(* The CSR contracts:

   - [Digraph]'s CSR, its only store, must match an independent model
     of the link set after ANY interleaving of in-place weight edits,
     inserts, deletes, node growth and detachment — rows sorted, slices
     disjoint — and a detach followed by the same links' rejoin must
     move no row;
   - the CSR Dijkstra kernels (ban mask, key-only pops, scratch-owned
     result) are [Float.equal]-identical to the boxed forbidden-node
     oracle ([Oracle.link_dist]/[node_dist]), the node model through
     the reversed [Digraph.of_node_costs] graph;
   - whole payment batches from the sessions' kernels (subtree-bounded,
     with the full-CSR fallback) match the [Oracle] batches bit for bit
     at pool sizes 1 and 3, edits included. *)

open Wnet_graph
module Rng = Wnet_prng.Rng

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* ---------------- view ≡ an independent model ---------------- *)

(* The CSR is [Digraph]'s only store, and [out_links] and the oracle
   read it too, so edits are checked against a model the test keeps
   itself: a table of (u, v) -> w.  Every row must be strictly sorted,
   live slices must not overlap, and slots, [m], [weight] and
   [out_links] must all agree with the model. *)
let check_against_model g ~n model =
  let { Digraph.row_off; row_end; col; wgt } = Digraph.csr g in
  if Digraph.n g <> n || Array.length row_off <> n || Array.length row_end <> n
  then QCheck2.Test.fail_reportf "node count diverged from the model";
  if Digraph.m g <> Hashtbl.length model then
    QCheck2.Test.fail_reportf "m = %d, model has %d links" (Digraph.m g)
      (Hashtbl.length model);
  if Array.length wgt <> Array.length col then
    QCheck2.Test.fail_reportf "col and wgt lengths differ";
  let slots = ref 0 and live = ref [] in
  for u = 0 to n - 1 do
    let lo = row_off.(u) and hi = row_end.(u) in
    if lo < 0 || hi < lo || hi > Array.length col then
      QCheck2.Test.fail_reportf "row %d slice [%d, %d) out of bounds" u lo hi;
    if hi > lo then live := (lo, hi) :: !live;
    for i = lo to hi - 1 do
      if i > lo && col.(i - 1) >= col.(i) then
        QCheck2.Test.fail_reportf "row %d not strictly sorted" u;
      (match Hashtbl.find_opt model (u, col.(i)) with
      | Some w when Float.equal w wgt.(i) -> ()
      | _ -> QCheck2.Test.fail_reportf "slot %d -> %d not in the model" u col.(i));
      incr slots
    done;
    let row = Digraph.out_links g u in
    if
      Array.length row <> hi - lo
      || not
           (Array.for_all Fun.id
              (Array.mapi
                 (fun i (v, w) -> col.(lo + i) = v && Float.equal wgt.(lo + i) w)
                 row))
    then QCheck2.Test.fail_reportf "out_links %d diverged from its slice" u
  done;
  if !slots <> Hashtbl.length model then
    QCheck2.Test.fail_reportf "%d live slots, model has %d links" !slots
      (Hashtbl.length model);
  ignore
    (List.fold_left
       (fun prev_end (lo, hi) ->
         if lo < prev_end then QCheck2.Test.fail_reportf "row slices overlap";
         hi)
       0
       (List.sort compare !live));
  Hashtbl.iter
    (fun (u, v) w ->
      if not (Float.equal (Digraph.weight g u v) w) then
        QCheck2.Test.fail_reportf "weight %d -> %d diverged" u v)
    model

let random_links rng ~n =
  let links = ref [] in
  let p = 3.0 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.bernoulli rng p then
        links := (u, v, Rng.float_range rng 0.5 10.0) :: !links
    done
  done;
  !links

let random_digraph rng ~n = Digraph.create ~n ~links:(random_links rng ~n)

(* 400 steps on at most 20 nodes, inserts outnumbering deletes: full
   rows move to the tail and the tail runs out many times over, so row
   moves and repacks are exercised, not just in-row shifts. *)
let digraph_edit_prop seed =
  let rng = Rng.create seed in
  let n = ref (4 + Rng.int rng 17) in
  let links = random_links rng ~n:!n in
  let model = Hashtbl.create 64 in
  List.iter
    (fun (u, v, w) ->
      match Hashtbl.find_opt model (u, v) with
      | Some w' when w' <= w -> ()
      | _ -> Hashtbl.replace model (u, v) w)
    links;
  let g = Digraph.create ~n:!n ~links in
  check_against_model g ~n:!n model;
  for _ = 1 to 400 do
    (match Rng.int rng 20 with
    | 0 -> ignore (Digraph.add_node g); incr n
    | 1 ->
      let v = Rng.int rng !n in
      Digraph.detach_node g v;
      Hashtbl.filter_map_inplace
        (fun (a, b) w -> if a = v || b = v then None else Some w)
        model
    | k ->
      let u = Rng.int rng !n and v = Rng.int rng !n in
      if u <> v then
        if k < 6 then begin
          Digraph.set_weight g u v infinity;
          Hashtbl.remove model (u, v)
        end
        else begin
          let w = Rng.float_range rng 0.5 10.0 in
          Digraph.set_weight g u v w;
          Hashtbl.replace model (u, v) w
        end);
    check_against_model g ~n:!n model
  done;
  true

(* Leave then rejoin with the same links: every row kept its slots, so
   nothing moves and the arrays are the very same ones. *)
let test_detach_rejoin_moves_no_row () =
  let rng = Rng.create 5 in
  let g = random_digraph rng ~n:30 in
  let before = Digraph.csr g in
  let off = Array.copy before.Digraph.row_off in
  for v = 0 to 29 do
    let out = Digraph.out_links g v in
    let inn =
      List.filter_map
        (fun (u, t, w) -> if t = v then Some (u, w) else None)
        (Digraph.links g)
    in
    Digraph.detach_node g v;
    Alcotest.(check int) "isolated" 0 (Digraph.out_degree g v);
    List.iter (fun (u, w) -> Digraph.set_weight g u v w) inn;
    Array.iter (fun (t, w) -> Digraph.set_weight g v t w) out
  done;
  let after = Digraph.csr g in
  Alcotest.(check bool) "col not reallocated" true
    (before.Digraph.col == after.Digraph.col);
  Alcotest.(check bool) "wgt not reallocated" true
    (before.Digraph.wgt == after.Digraph.wgt);
  Alcotest.(check (array int)) "no row moved" off after.Digraph.row_off

(* Growing one row link by link: it outgrows its slots again and again,
   moves to the tail, and the arrays are repacked when the tail runs
   out — the links stay exact throughout. *)
let test_full_rows_move () =
  let n = 40 in
  let g = Digraph.create ~n ~links:[ (1, 2, 1.0); (2, 3, 1.0) ] in
  let col0 = (Digraph.csr g).Digraph.col in
  for v = 1 to n - 1 do
    Digraph.set_weight g 0 v (float_of_int v)
  done;
  Alcotest.(check bool) "arrays repacked" false
    (col0 == (Digraph.csr g).Digraph.col);
  Alcotest.(check int) "m" (n + 1) (Digraph.m g);
  Alcotest.(check (list int)) "row 0 sorted and complete"
    (List.init (n - 1) (fun i -> i + 1))
    (Array.to_list (Array.map fst (Digraph.out_links g 0)));
  Test_util.check_float "1 -> 2 kept" 1.0 (Digraph.weight g 1 2);
  Test_util.check_float "0 -> 17" 17.0 (Digraph.weight g 0 17)

let graph_csr_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_ring_graph rng in
  let check g =
    let n = Graph.n g in
    let { Graph.row_off; col } = Graph.csr g in
    if row_off.(n) <> 2 * Graph.m g then
      QCheck2.Test.fail_reportf "row_off total <> 2m";
    for v = 0 to n - 1 do
      let row = Graph.neighbors g v in
      if
        row_off.(v + 1) - row_off.(v) <> Array.length row
        || not
             (Array.for_all Fun.id
                (Array.mapi (fun i w -> col.(row_off.(v) + i) = w) row))
      then QCheck2.Test.fail_reportf "CSR row %d diverged from neighbors" v
    done;
    if not (floats_equal (Graph.costs_view g) (Graph.costs g)) then
      QCheck2.Test.fail_reportf "costs_view diverged from costs"
  in
  check g;
  (* removal rebuilds the view; cost swaps share it *)
  check (Graph.remove_node g (Rng.int rng (Graph.n g)));
  check (Graph.with_cost g (Rng.int rng (Graph.n g)) 42.0);
  true

let egraph_csr_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 12 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng 0.3 then
        edges := (u, v, Rng.float_range rng 0.5 10.0) :: !edges
    done
  done;
  let g = Egraph.create ~n ~edges:!edges in
  let { Egraph.row_off; ncol; ecol } = Egraph.csr g in
  for v = 0 to n - 1 do
    let row = Egraph.incident g v in
    if row_off.(v + 1) - row_off.(v) <> Array.length row then
      QCheck2.Test.fail_reportf "CSR row %d length diverged from incident" v;
    Array.iteri
      (fun i (nbr, e) ->
        let s = row_off.(v) + i in
        if ncol.(s) <> nbr || ecol.(s) <> e then
          QCheck2.Test.fail_reportf "CSR slot diverged from incident")
      row
  done;
  floats_equal (Egraph.weights_view g) (Egraph.weights g)

(* ---------------- CSR kernels ≡ boxed oracle ---------------- *)

let link_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 25 in
  let g = random_digraph rng ~n in
  let scratch = Dijkstra.make_scratch n in
  for _ = 1 to 5 do
    let source = Rng.int rng n in
    let avoid =
      let k = Rng.int rng n in
      if k = source then -1 else k
    in
    let expect = Oracle.link_dist ~avoid g source in
    let got = Dijkstra.link_weighted_dist_csr scratch ~avoid g source in
    if not (floats_equal got expect) then
      QCheck2.Test.fail_reportf "CSR link kernel diverged from boxed oracle";
    (* the convenience wrapper must leave the ban mask clean *)
    if Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask scratch) then
      QCheck2.Test.fail_reportf "ban mask left dirty";
    (* a weight edit between runs must be visible to the next run *)
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then Digraph.set_weight g u v (Rng.float_range rng 0.5 10.0)
  done;
  true

(* The node model runs on the link kernel over the reversed
   node-weighted digraph; unit costs make most labels tie. *)
let node_kernel_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.maybe_unit_costs rng (Test_util.random_sparse_graph rng) in
  let n = Graph.n g in
  let scratch = Dijkstra.make_scratch n in
  for _ = 1 to 5 do
    let source = Rng.int rng n in
    let avoid =
      let k = Rng.int rng n in
      if k = source then -1 else k
    in
    let expect = Oracle.node_dist ~avoid g ~source in
    let rev = Test_util.node_rev g ~root:source in
    let got = Dijkstra.link_weighted_dist_csr scratch ~avoid rev source in
    if not (floats_equal got expect) then
      QCheck2.Test.fail_reportf "CSR node kernel diverged from boxed oracle"
  done;
  true

let test_scratch_result_is_internal () =
  (* [*_scratch] returns the scratch's own array: capacity-sized, reused
     by the next run. *)
  let g = Digraph.create ~n:3 ~links:[ (0, 1, 1.0); (1, 2, 2.0) ] in
  let s = Dijkstra.make_scratch 8 in
  let d = Dijkstra.link_weighted_scratch s g 0 in
  Alcotest.(check int) "capacity-sized" 8 (Array.length d);
  Test_util.check_float "dist" 3.0 d.(2);
  let d' = Dijkstra.link_weighted_scratch s g 2 in
  Alcotest.(check bool) "same array reused" true (d == d');
  Test_util.check_float "overwritten" 0.0 d.(2)

let test_banned_source_rejected () =
  let g = Digraph.create ~n:2 ~links:[ (0, 1, 1.0) ] in
  let s = Dijkstra.make_scratch 2 in
  Bytes.set (Dijkstra.ban_mask s) 0 '\001';
  Alcotest.check_raises "banned source"
    (Invalid_argument "Dijkstra: source is forbidden") (fun () ->
      ignore (Dijkstra.link_weighted_scratch s g 0))

let avoiding_cost_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_sparse_graph rng in
  let n = Graph.n g in
  let scratch = Dijkstra.make_scratch n in
  let src = Rng.int rng n in
  let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
  let avoid = Rng.int rng n in
  if avoid = src || avoid = dst then true
  else begin
    let slow = Avoid.avoiding_cost g ~src ~dst ~avoid in
    let fast = Avoid.avoiding_cost ~scratch g ~src ~dst ~avoid in
    Float.equal slow fast
    && not (Bytes.exists (fun c -> c <> '\000') (Dijkstra.ban_mask scratch))
  end

(* ---------------- batches and sessions vs the oracle ---------------- *)

module LS = Wnet_session.Link_session
module LC = Wnet_core.Link_cost
module U = Wnet_core.Unicast

let link_batch_equal (a : LC.batch) (b : LC.batch) =
  a.LC.root = b.LC.root
  && floats_equal a.LC.to_root_dist b.LC.to_root_dist
  && Oracle.options_equal
       (fun (x : LC.t) (y : LC.t) ->
         x.LC.path = y.LC.path
         && Float.equal x.LC.lcp_cost y.LC.lcp_cost
         && Float.equal x.LC.relay_cost y.LC.relay_cost
         && floats_equal x.LC.payments y.LC.payments)
       a.LC.results b.LC.results

let node_batch_equal =
  Oracle.options_equal (fun (x : U.t) (y : U.t) ->
      x.U.path = y.U.path
      && Float.equal x.U.lcp_cost y.U.lcp_cost
      && floats_equal x.U.payments y.U.payments)

let link_session_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 19 in
  let g = random_digraph rng ~n in
  let oracle = Oracle.link_batch g ~root:0 in
  Wnet_par.with_pool ~domains:3 (fun pool ->
      if
        not
          (link_batch_equal oracle (LC.all_to_root g ~root:0)
          && link_batch_equal oracle (LC.all_to_root ~pool g ~root:0))
      then
        QCheck2.Test.fail_reportf "link payments differ from the oracle batch";
      true)

let node_session_kernel_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.random_ring_graph rng in
  let oracle = Oracle.node_batch g ~root:0 in
  Wnet_par.with_pool ~domains:3 (fun pool ->
      node_batch_equal oracle (U.all_to_root g ~root:0)
      && node_batch_equal oracle (U.all_to_root ~pool g ~root:0))

(* Edited sessions: cache repair and cache-miss fills must stay
   invisible through a burst of edits. *)
let link_session_edit_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 15 in
  let g = random_digraph rng ~n in
  let s = LS.create g ~root:0 in
  let matches () =
    Oracle.link_matches (LS.payments s)
      (Oracle.link_batch (LS.snapshot s) ~root:0)
  in
  if not (matches ()) then QCheck2.Test.fail_reportf "initial batch differs";
  for _ = 1 to 8 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      LS.set_cost s u v
        (if Rng.bernoulli rng 0.2 then infinity
         else Rng.float_range rng 0.5 10.0);
    if not (matches ()) then
      QCheck2.Test.fail_reportf "batch diverged from the oracle after edit"
  done;
  true

(* ---------------- Digraph.create = the Hashtbl construction ---------------- *)

(* Random link lists over a few nodes, rich in duplicates, equal
   weights, signed zeros and [infinity]; now and then one bad link, so
   the first validation error must match too. *)
let create_prop seed =
  let r = Test_util.rng seed in
  let n = Rng.int r 9 in
  let weights = [| 0.0; -0.0; 1.0; 1.0; 2.5; infinity |] in
  let link () =
    let w =
      if Rng.bool r then Rng.choose r weights else Rng.float_range r 0.0 3.0
    in
    match Rng.int r 40 with
    | 0 -> (Rng.int r (n + 1), Rng.int r (n + 2), w)
    | 1 -> (0, 0, w)
    | 2 -> (0, 1, Rng.choose r [| -1.0; nan |])
    | _ ->
      let u = Rng.int r n in
      (u, (u + 1 + Rng.int r (n - 1)) mod n, w)
  in
  let links =
    if n < 2 then [] else List.init (Rng.int r 60) (fun _ -> link ())
  in
  let result f =
    match f ~n ~links with x -> Ok x | exception Invalid_argument e -> Error e
  in
  match (result Digraph.create, result Oracle.digraph_rows) with
  | Error a, Error b when a = b -> true
  | Ok g, Ok rows ->
    let { Digraph.row_off; row_end; col; wgt } = Digraph.csr g in
    let m = Array.fold_left (fun acc row -> acc + Array.length row) 0 rows in
    if Digraph.m g <> m then
      QCheck2.Test.fail_reportf "m = %d, oracle has %d" (Digraph.m g) m;
    Array.iteri
      (fun u row ->
        if row_end.(u) - row_off.(u) <> Array.length row then
          QCheck2.Test.fail_reportf "row %d length diverged" u;
        Array.iteri
          (fun k (v, w) ->
            let i = row_off.(u) + k in
            if col.(i) <> v
               || Int64.bits_of_float wgt.(i) <> Int64.bits_of_float w
            then
              QCheck2.Test.fail_reportf "row %d slot %d: %d %h, oracle %d %h"
                u k col.(i) wgt.(i) v w)
          row)
      rows;
    true
  | _ -> QCheck2.Test.fail_reportf "create and the oracle disagree on validity"

let suite =
  [
    Test_util.qcheck_case ~count:500 "digraph create = Hashtbl construction"
      Test_util.seed_gen create_prop;
    Test_util.qcheck_case ~count:60 "digraph CSR = out_links under edits"
      Test_util.seed_gen digraph_edit_prop;
    Alcotest.test_case "digraph detach then rejoin moves no row" `Quick
      test_detach_rejoin_moves_no_row;
    Alcotest.test_case "digraph full rows move to the tail" `Quick
      test_full_rows_move;
    Test_util.qcheck_case ~count:60 "graph CSR = neighbors"
      Test_util.seed_gen graph_csr_prop;
    Test_util.qcheck_case ~count:60 "egraph CSR = incident"
      Test_util.seed_gen egraph_csr_prop;
    Test_util.qcheck_case ~count:60 "link CSR kernel = boxed oracle"
      Test_util.seed_gen link_kernel_prop;
    Test_util.qcheck_case ~count:60 "node CSR kernel = boxed oracle"
      Test_util.seed_gen node_kernel_prop;
    Alcotest.test_case "scratch kernels return internal array" `Quick
      test_scratch_result_is_internal;
    Alcotest.test_case "banned source rejected" `Quick
      test_banned_source_rejected;
    Test_util.qcheck_case ~count:60 "avoiding_cost scratch = tree run"
      Test_util.seed_gen avoiding_cost_prop;
    Test_util.qcheck_case ~count:20
      "link payments: kernels x pools = clone-per-relay oracle"
      Test_util.seed_gen link_session_kernel_prop;
    Test_util.qcheck_case ~count:20
      "node payments: kernels x pools = boxed oracle batch"
      Test_util.seed_gen node_session_kernel_prop;
    Test_util.qcheck_case ~count:20
      "link sessions: kernels agree under edits with the oracle"
      Test_util.seed_gen link_session_edit_kernel_prop;
  ]
