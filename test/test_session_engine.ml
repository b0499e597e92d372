(* The session engine's determinism contract (ISSUE: incremental payment
   sessions): after ANY sequence of topology deltas, the incrementally
   maintained batch must be bit-identical — [Float.equal], including
   [infinity] payments at cut vertices — to a from-scratch batch on the
   edited graph, at pool sizes 1 and 3.  Both oracles live in
   [Oracle] and share no code with the sessions: the link model's is
   the clone-per-relay batch, the node model's the node-weighted tree
   plus a boxed forbidden-node Dijkstra per relay. *)

open Wnet_graph
module LS = Wnet_session.Link_session
module NS = Wnet_session.Node_session
module Par = Wnet_par
module Rng = Wnet_prng.Rng

let float_exact =
  Alcotest.testable (fun ppf x -> Format.fprintf ppf "%h" x) Float.equal

let check_exact = Alcotest.check float_exact

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

let link_batches_equal (a : LS.batch) (b : LS.batch) =
  a.LS.root = b.LS.root
  && floats_equal a.LS.to_root_dist b.LS.to_root_dist
  && Array.length a.LS.results = Array.length b.LS.results
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some (x : LS.outcome), Some (y : LS.outcome) ->
           x.LS.src = y.LS.src && x.LS.path = y.LS.path
           && Float.equal x.LS.lcp_cost y.LS.lcp_cost
           && Float.equal x.LS.relay_cost y.LS.relay_cost
           && x.LS.relays = y.LS.relays
           && floats_equal x.LS.payments y.LS.payments
         | _ -> false)
       a.LS.results b.LS.results

(* ---------------- link model: random instances and edits ---------------- *)

(* Sparse random digraph: expected out-degree ~2.5, so cut vertices,
   disconnected sources, and unbounded payments all occur. *)
let random_digraph rng ~n =
  let links = ref [] in
  let p = 2.5 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.bernoulli rng p then
        links := (u, v, Rng.float_range rng 0.5 10.0) :: !links
    done
  done;
  Digraph.create ~n ~links:!links

let random_links rng ~n ~self =
  let deg = 1 + Rng.int rng 3 in
  List.filter_map
    (fun _ ->
      let x = Rng.int rng n in
      if x = self then None else Some (x, Rng.float_range rng 0.5 10.0))
    (List.init deg Fun.id)

(* One random delta through the session API.  Replayed from identically
   seeded rngs against two sessions, so every draw must depend only on
   the rng and on session state both replicas share. *)
let apply_random_op rng s =
  let nn = LS.n s in
  match Rng.int rng 6 with
  | 0 | 1 | 2 ->
    (* cost change, link insert, or link delete (w = infinity) *)
    let u = Rng.int rng nn and v = Rng.int rng nn in
    if u <> v then
      let w =
        if Rng.bernoulli rng 0.2 then infinity
        else Rng.float_range rng 0.5 10.0
      in
      LS.set_cost s u v w
  | 3 ->
    (* node leave (never the root, which is 0 here) *)
    LS.remove_node s (1 + Rng.int rng (nn - 1))
  | 4 ->
    (* rejoin the lowest-id isolated node, when one exists *)
    let snap = LS.snapshot s in
    let in_deg = Array.make nn 0 in
    List.iter (fun (_, v, _) -> in_deg.(v) <- in_deg.(v) + 1) (Digraph.links snap);
    let iso = ref None in
    for k = nn - 1 downto 1 do
      if Digraph.out_degree snap k = 0 && in_deg.(k) = 0 then iso := Some k
    done;
    (match !iso with
    | None -> ()
    | Some k ->
      LS.rejoin_node s k
        ~out:(random_links rng ~n:nn ~self:k)
        ~inn:(random_links rng ~n:nn ~self:k))
  | _ ->
    ignore
      (LS.add_node s
         ~out:(random_links rng ~n:nn ~self:(-1))
         ~inn:(random_links rng ~n:nn ~self:(-1)))

let link_equiv_prop seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 21 in
  let g = random_digraph rng ~n in
  let nops = 4 + Rng.int rng 7 in
  let oseed = seed lxor 0x2545f49 in
  Par.with_pool ~domains:3 (fun pool ->
      let s_seq = LS.create g ~root:0 in
      let s_par = LS.create ~pool g ~root:0 in
      let check label =
        let b_seq = LS.payments s_seq in
        let b_par = LS.payments s_par in
        let oracle = Oracle.link_batch (LS.snapshot s_seq) ~root:0 in
        if not (Oracle.link_matches b_seq oracle) then
          QCheck2.Test.fail_reportf
            "%s: sequential batch differs from the clone-per-relay oracle"
            label;
        if not (Oracle.link_matches b_par oracle) then
          QCheck2.Test.fail_reportf
            "%s: pooled batch differs from the clone-per-relay oracle" label;
        if LS.unbounded_relays s_seq <> Oracle.link_unbounded oracle then
          QCheck2.Test.fail_reportf "%s: unbounded relay set differs" label
      in
      check "initial";
      let r_seq = Rng.create oseed and r_par = Rng.create oseed in
      for i = 1 to nops do
        apply_random_op r_seq s_seq;
        apply_random_op r_par s_par;
        check (Printf.sprintf "after op %d" i)
      done;
      true)

(* ---------------- node model: oracle comparison ---------------- *)

let apply_random_node_op rng s =
  let nn = NS.n s in
  if Rng.bernoulli rng 0.7 then
    (* any node, including the root: the root's declared cost must not
       disturb payments or caches *)
    NS.set_cost s (Rng.int rng nn) (Rng.float_range rng 0.05 8.0)
  else
    let k = Rng.int rng nn in
    if k <> NS.root s then NS.remove_node s k

let node_equiv_prop seed =
  let rng = Rng.create seed in
  let g =
    if Rng.bernoulli rng 0.5 then Test_util.random_ring_graph rng
    else Test_util.random_sparse_graph rng
  in
  let nops = 4 + Rng.int rng 7 in
  let oseed = seed lxor 0x51ed270b in
  Par.with_pool ~domains:3 (fun pool ->
      let s_seq = NS.create g ~root:0 in
      let s_par = NS.create ~pool g ~root:0 in
      let check label =
        let oracle = Oracle.node_batch (NS.graph s_seq) ~root:0 in
        if not (Oracle.node_matches (NS.payments s_seq) oracle) then
          QCheck2.Test.fail_reportf
            "%s: sequential batch differs from the boxed oracle batch" label;
        if not (Oracle.node_matches (NS.payments s_par) oracle) then
          QCheck2.Test.fail_reportf
            "%s: pooled batch differs from the boxed oracle batch" label;
        if NS.unbounded_relays s_seq <> Oracle.node_unbounded oracle then
          QCheck2.Test.fail_reportf "%s: unbounded relay set differs" label
      in
      check "initial";
      let r_seq = Rng.create oseed and r_par = Rng.create oseed in
      for i = 1 to nops do
        apply_random_node_op r_seq s_seq;
        apply_random_node_op r_par s_par;
        check (Printf.sprintf "after op %d" i)
      done;
      true)

(* ---------------- sparse outcome shape ---------------- *)

(* Every outcome of both models, after every op of a random edit, churn
   and (link model) rejoin sequence, at pool sizes 1 and 3: [relays] is
   the path's relays in strictly ascending order, [payments.(i)] is
   bitwise the dense oracle's entry for [relays.(i)], and the left-fold
   charge is bitwise the oracle's index-order sum.  The instances are
   random recursive trees plus a few chords, 30 to 80 nodes, so paths
   carry many relays whose path order differs from their id order. *)
let deep_digraph rng =
  let g = Test_util.random_sparse_graph ~min_n:30 ~max_n:80 rng in
  let links = ref [] in
  for u = 0 to Graph.n g - 1 do
    Array.iter
      (fun v -> links := (u, v, Rng.float_range rng 0.5 10.0) :: !links)
      (Graph.neighbors g u)
  done;
  Digraph.create ~n:(Graph.n g) ~links:!links

let sparse_shape_prop seed =
  let rng = Rng.create seed in
  let nops = 3 + Rng.int rng 6 in
  let report what label = function
    | None -> ()
    | Some m -> QCheck2.Test.fail_reportf "%s, %s: %s" what label m
  in
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let what = Printf.sprintf "pool %d" domains in
          let lrng = Rng.create (seed lxor 0x3c6ef372) in
          let ls = LS.create ~pool (deep_digraph lrng) ~root:0 in
          let check_link label =
            report ("link, " ^ what) label
              (Oracle.link_mismatch (LS.payments ls)
                 (Oracle.link_batch (LS.snapshot ls) ~root:0))
          in
          let nrng = Rng.create (seed lxor 0x1b873593) in
          let g = Test_util.random_sparse_graph ~min_n:30 ~max_n:80 nrng in
          let ns = NS.create ~pool g ~root:0 in
          let check_node label =
            report ("node, " ^ what) label
              (Oracle.node_mismatch (NS.payments ns)
                 (Oracle.node_batch (NS.graph ns) ~root:0))
          in
          check_link "initial";
          check_node "initial";
          for i = 1 to nops do
            apply_random_op lrng ls;
            apply_random_node_op nrng ns;
            check_link (Printf.sprintf "after op %d" i);
            check_node (Printf.sprintf "after op %d" i)
          done))
    [ 1; 3 ];
  true

(* ---------------- in-place digraph mutation ---------------- *)

let test_digraph_mutation () =
  let g = Digraph.create ~n:3 ~links:[ (0, 1, 2.0); (1, 2, 3.0) ] in
  Alcotest.(check int) "fresh graph at version 0" 0 (Digraph.version g);
  Digraph.set_weight g 0 1 5.0;
  check_exact "update in place" 5.0 (Digraph.weight g 0 1);
  Digraph.set_weight g 2 0 1.5;
  check_exact "insert in place" 1.5 (Digraph.weight g 2 0);
  Alcotest.(check int) "m counts the insert" 3 (Digraph.m g);
  Digraph.set_weight g 1 2 infinity;
  check_exact "infinity removes" infinity (Digraph.weight g 1 2);
  Alcotest.(check int) "m counts the removal" 2 (Digraph.m g);
  Alcotest.(check int) "every mutation bumps the version" 3 (Digraph.version g);
  let c = Digraph.copy g in
  Alcotest.(check int) "copy restarts history" 0 (Digraph.version c);
  Digraph.set_weight c 0 1 9.0;
  check_exact "copies are independent" 5.0 (Digraph.weight g 0 1);
  let id = Digraph.add_node g in
  Alcotest.(check int) "dense new id" 3 id;
  Digraph.set_weight g 3 0 1.0;
  Digraph.detach_node g 0;
  Alcotest.(check int) "detach drops out-links" 0 (Digraph.out_degree g 0);
  check_exact "detach drops in-links" infinity (Digraph.weight g 3 0)

(* ---------------- selective invalidation, observably ---------------- *)

(* Chain 3 -> 2 -> 1 -> 0 plus a pendant 4 -> 0 and a slack link 4 -> 1
   that no shortest path (avoidance or not) ever uses: editing it must
   keep every cache, and a repeat batch must be memoized. *)
let test_selective_invalidation () =
  let g =
    Digraph.create ~n:5
      ~links:[ (1, 0, 1.0); (2, 1, 1.0); (3, 2, 1.0); (4, 0, 1.0); (4, 1, 50.0) ]
  in
  let s = LS.create g ~root:0 in
  ignore (LS.payments s);
  let st1 = LS.stats s in
  Alcotest.(check int) "two relays computed" 2 st1.LS.avoid_runs;
  LS.set_cost s 4 1 45.0;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "slack edit reruns no avoidance Dijkstra"
    st1.LS.avoid_runs st2.LS.avoid_runs;
  Alcotest.(check int) "slack edit serves both relays from cache"
    (st1.LS.avoid_reused + 2) st2.LS.avoid_reused;
  Alcotest.(check int) "shared tree patched, not recomputed" st1.LS.spt_runs
    st2.LS.spt_runs;
  Alcotest.(check int) "tree and both caches repaired in place"
    (st1.LS.repaired_entries + 3) st2.LS.repaired_entries;
  Alcotest.(check int) "no repair fell back" st1.LS.fallback_recomputes
    st2.LS.fallback_recomputes;
  Alcotest.(check bool) "repeat batch is memoized" true (b == LS.payments s);
  Alcotest.(check int) "memoized batch does no work" st2.LS.avoid_reused
    (LS.stats s).LS.avoid_reused;
  (* the incremental answer is still the from-scratch answer *)
  let oracle = Oracle.link_batch (LS.snapshot s) ~root:0 in
  Alcotest.(check bool) "still matches the oracle" true
    (Oracle.link_matches b oracle)

(* Inserting forward link 3 -> 2 gives node 3 a second root-side path of
   bit-identical cost 2.0 with a different next hop: from-scratch
   settlement order decides the tree parent, so the repair must detect
   the tie and fall back to a full Dijkstra — and the payments must
   still match the oracle. *)
let test_tie_triggers_fallback () =
  let g =
    Digraph.create ~n:4 ~links:[ (1, 0, 1.0); (3, 1, 1.0); (2, 0, 1.0) ]
  in
  let s = LS.create g ~root:0 in
  ignore (LS.payments s);
  let st1 = LS.stats s in
  LS.set_cost s 3 2 1.0;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "tie detected: one repair fell back"
    (st1.LS.fallback_recomputes + 1) st2.LS.fallback_recomputes;
  Alcotest.(check int) "the fallback recomputed the shared tree"
    (st1.LS.spt_runs + 1) st2.LS.spt_runs;
  let oracle = Oracle.link_batch (LS.snapshot s) ~root:0 in
  Alcotest.(check bool) "payments still match the oracle after fallback" true
    (Oracle.link_matches b oracle)

(* Chain 2 -> 1 -> 0: relay 1 is a monopoly (cut vertex), so its payment
   is unbounded — until an alternate route appears. *)
let test_cut_vertex_tracking () =
  let g = Digraph.create ~n:3 ~links:[ (2, 1, 1.0); (1, 0, 1.0) ] in
  let s = LS.create g ~root:0 in
  let b = LS.payments s in
  (match b.LS.results.(2) with
  | Some o ->
    Alcotest.(check (array int)) "relay 1 is the only relay" [| 1 |]
      o.LS.relays;
    check_exact "monopoly relay is paid infinity" infinity o.LS.payments.(0)
  | None -> Alcotest.fail "source 2 should be served");
  Alcotest.(check (list int)) "relay 1 reported unbounded" [ 1 ]
    (LS.unbounded_relays s);
  LS.set_cost s 2 0 10.0;
  let b = LS.payments s in
  (match b.LS.results.(2) with
  | Some o ->
    (* used link 1 + (avoidance 10 - lcp 2) *)
    check_exact "alternate route bounds the payment" 9.0 o.LS.payments.(0)
  | None -> Alcotest.fail "source 2 should be served");
  Alcotest.(check (list int)) "no unbounded relays left" []
    (LS.unbounded_relays s)

(* Leave + rejoin with the same links must restore the original batch
   bit for bit — and [rejoin_node] must enforce its preconditions. *)
let test_leave_rejoin_roundtrip () =
  let g =
    Digraph.create ~n:5
      ~links:[ (1, 0, 1.0); (2, 1, 1.0); (3, 2, 1.0); (4, 0, 1.0); (4, 1, 50.0) ]
  in
  let s = LS.create g ~root:0 in
  let before = LS.payments s in
  LS.remove_node s 3;
  let gone = LS.payments s in
  Alcotest.(check bool) "left node unserved" true (gone.LS.results.(3) = None);
  LS.rejoin_node s 3 ~out:[ (2, 1.0) ] ~inn:[];
  let after = LS.payments s in
  Alcotest.(check bool) "rejoin restores the batch bitwise" true
    (link_batches_equal before after);
  Alcotest.check_raises "rejoining a connected node is refused"
    (Invalid_argument "Link_session.rejoin_node: node is not isolated")
    (fun () -> LS.rejoin_node s 3 ~out:[ (2, 1.0) ] ~inn:[]);
  Alcotest.check_raises "rejoining the root is refused"
    (Invalid_argument "Link_session.rejoin_node: cannot rejoin the root")
    (fun () -> LS.rejoin_node s 0 ~out:[] ~inn:[]);
  Alcotest.check_raises "out-of-range id is refused"
    (Invalid_argument "Link_session.rejoin_node: out of range") (fun () ->
      LS.rejoin_node s 9 ~out:[] ~inn:[])

(* ---------------- coalesced deferred invalidation ---------------- *)

let burst_graph () =
  Digraph.create ~n:5
    ~links:[ (1, 0, 1.0); (2, 1, 1.0); (3, 2, 1.0); (4, 0, 1.0); (4, 1, 50.0) ]

(* A burst of k cost edits before the next payments must fold into
   EXACTLY one invalidation pass — the server's coalescing contract —
   and still match the from-scratch oracle bit for bit. *)
let test_coalesced_burst () =
  let s = LS.create (burst_graph ()) ~root:0 in
  ignore (LS.payments s);
  let st0 = LS.stats s in
  LS.set_cost s 4 1 45.0;
  LS.set_cost s 4 1 40.0;
  LS.set_cost s 3 2 1.5;
  let st1 = LS.stats s in
  Alcotest.(check int) "no pass while the burst buffers" st0.LS.inval_passes
    st1.LS.inval_passes;
  let b = LS.payments s in
  let st2 = LS.stats s in
  Alcotest.(check int) "3-edit burst = one invalidation pass"
    (st0.LS.inval_passes + 1) st2.LS.inval_passes;
  Alcotest.(check int) "every burst edit counted coalesced"
    (st0.LS.coalesced_edits + 3) st2.LS.coalesced_edits;
  let oracle = Oracle.link_batch (LS.snapshot s) ~root:0 in
  Alcotest.(check bool) "coalesced burst still matches the oracle" true
    (Oracle.link_matches b oracle)

(* A burst that nets out to nothing (edit then revert, [Float.equal])
   must cost zero passes and leave the batch bit-identical. *)
let test_reverted_burst () =
  let s = LS.create (burst_graph ()) ~root:0 in
  let before = LS.payments s in
  let st0 = LS.stats s in
  LS.set_cost s 4 1 45.0;
  LS.set_cost s 4 1 50.0;
  let after = LS.payments s in
  let st1 = LS.stats s in
  Alcotest.(check int) "reverted burst = zero invalidation passes"
    st0.LS.inval_passes st1.LS.inval_passes;
  Alcotest.(check int) "reverted edits still counted coalesced"
    (st0.LS.coalesced_edits + 2) st1.LS.coalesced_edits;
  Alcotest.(check int) "reverted burst keeps the shared tree"
    st0.LS.spt_runs st1.LS.spt_runs;
  Alcotest.(check bool) "reverted burst leaves the batch bitwise" true
    (link_batches_equal before after)

(* Explicit flush applies the pending pass immediately and is idempotent;
   payments after it adds no second pass. *)
let test_explicit_flush () =
  let s = LS.create (burst_graph ()) ~root:0 in
  ignore (LS.payments s);
  let st0 = LS.stats s in
  LS.set_cost s 4 1 45.0;
  LS.flush s;
  let st1 = LS.stats s in
  Alcotest.(check int) "flush performs the pass now" (st0.LS.inval_passes + 1)
    st1.LS.inval_passes;
  LS.flush s;
  ignore (LS.payments s);
  let st2 = LS.stats s in
  Alcotest.(check int) "empty flush and payments add no pass"
    st1.LS.inval_passes st2.LS.inval_passes

let test_node_coalesced_burst () =
  let g =
    Graph.create
      ~costs:[| 1.0; 2.0; 3.0; 2.0; 1.0 |]
      ~edges:[ (1, 0); (2, 1); (3, 2); (4, 0); (4, 1) ]
  in
  let s = NS.create g ~root:0 in
  ignore (NS.payments s);
  let st0 = NS.stats s in
  NS.set_cost s 1 5.0;
  NS.set_cost s 2 4.0;
  NS.set_cost s 1 6.0;
  let b = NS.payments s in
  let st1 = NS.stats s in
  Alcotest.(check int) "node burst = one invalidation pass"
    (st0.NS.inval_passes + 1) st1.NS.inval_passes;
  Alcotest.(check int) "node burst edits counted coalesced"
    (st0.NS.coalesced_edits + 3) st1.NS.coalesced_edits;
  let oracle = Oracle.node_batch (NS.graph s) ~root:0 in
  Alcotest.(check bool) "node burst still matches the oracle batch" true
    (Oracle.node_matches b oracle)

(* ---------------- node adapter edge cases ---------------- *)

(* A bad cost must be refused before anything changes: on the arcs it
   would become an [infinity] weight, which deletes the arc. *)
let test_node_bad_cost_rejected () =
  let g = Test_util.random_ring_graph (Test_util.rng 17) in
  let s = NS.create g ~root:0 in
  ignore (NS.payments s);
  let v0 = NS.version s in
  List.iter
    (fun c ->
      match NS.set_cost s 1 c with
      | () -> Alcotest.failf "cost %g accepted" c
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity; -1.0 ];
  Alcotest.(check int) "version unchanged" v0 (NS.version s);
  Alcotest.(check int) "no edit counted" 0 (NS.stats s).NS.edits;
  Alcotest.(check bool) "payments unchanged" true
    (Oracle.node_matches (NS.payments s) (Oracle.node_batch g ~root:0));
  let module P = Wnet_proto in
  let session = Wnet_session.make ~root:0 (`Node g) in
  match P.handle_line session "cost 1 inf" with
  | `Reply [ P.Err _ ] -> ()
  | _ -> Alcotest.fail "`cost N inf' on a node session must answer err"

(* One node edit writes deg(x) arcs but is one edit on the wire. *)
let test_node_edit_counts_once () =
  let g = Test_util.random_ring_graph ~min_n:20 (Test_util.rng 5) in
  let x = ref 1 in
  for v = 1 to Graph.n g - 1 do
    if Graph.degree g v > Graph.degree g !x then x := v
  done;
  Alcotest.(check bool) "picked a node with several neighbours" true
    (Graph.degree g !x >= 3);
  let s = NS.create g ~root:0 in
  ignore (NS.payments s);
  let st0 = NS.stats s in
  NS.set_cost s !x (Graph.cost g !x +. 1.5);
  Alcotest.(check int) "version +1" 1 (NS.version s);
  Alcotest.(check int) "edits +1" (st0.NS.edits + 1) (NS.stats s).NS.edits;
  NS.set_cost s !x (NS.cost s !x);
  Alcotest.(check int) "a no-op edit bumps nothing" 1 (NS.version s);
  ignore (NS.payments s);
  let st1 = NS.stats s in
  Alcotest.(check int) "coalesced +1" (st0.NS.coalesced_edits + 1)
    st1.NS.coalesced_edits;
  Alcotest.(check int) "one invalidation pass" (st0.NS.inval_passes + 1)
    st1.NS.inval_passes

(* The root's cost weighs no arc, so editing it touches no cache. *)
let test_node_root_edit_no_pass () =
  let g = Test_util.random_ring_graph (Test_util.rng 23) in
  let s = NS.create g ~root:0 in
  ignore (NS.payments s);
  let st0 = NS.stats s in
  NS.set_cost s 0 (Graph.cost g 0 +. 3.0);
  let b = NS.payments s in
  let st1 = NS.stats s in
  Alcotest.(check int) "version +1" 1 (NS.version s);
  Alcotest.(check int) "no invalidation pass" st0.NS.inval_passes
    st1.NS.inval_passes;
  Alcotest.(check int) "no repair" st0.NS.repaired_entries
    st1.NS.repaired_entries;
  Alcotest.(check int) "no tree run" st0.NS.spt_runs st1.NS.spt_runs;
  Alcotest.(check int) "no avoidance run" st0.NS.avoid_runs st1.NS.avoid_runs;
  Alcotest.(check bool) "payments match the oracle" true
    (Oracle.node_matches b (Oracle.node_batch (NS.graph s) ~root:0))

(* Raising a non-relay's cost leaves every shortest path in place: the
   shared tree is repaired in place, never rerun. *)
let test_node_slack_burst_keeps_tree () =
  let g = Test_util.random_ring_graph ~min_n:20 (Test_util.rng 41) in
  let s = NS.create g ~root:0 in
  let b = NS.payments s in
  let st0 = NS.stats s in
  let is_relay = Array.make (Graph.n g) false in
  Array.iter
    (Option.iter (fun (o : NS.outcome) ->
         Array.iter (fun k -> is_relay.(k) <- true) (Path.relays o.NS.path)))
    b;
  let leaves =
    List.filter
      (fun v -> v <> 0 && not is_relay.(v))
      (List.init (Graph.n g) Fun.id)
  in
  Alcotest.(check bool) "instance has non-relay nodes" true
    (List.length leaves >= 2);
  for round = 1 to 3 do
    List.iter
      (fun v -> NS.set_cost s v (NS.cost s v +. float_of_int round))
      leaves;
    let b = NS.payments s in
    Alcotest.(check bool)
      (Printf.sprintf "round %d matches the oracle" round)
      true
      (Oracle.node_matches b (Oracle.node_batch (NS.graph s) ~root:0))
  done;
  let st1 = NS.stats s in
  Alcotest.(check int) "shared tree never rerun" st0.NS.spt_runs
    st1.NS.spt_runs;
  Alcotest.(check int) "one pass per burst" (st0.NS.inval_passes + 3)
    st1.NS.inval_passes

(* ---------------- pool plumbing the sessions rely on ---------------- *)

(* The [tasks=] wire field is the pool's task counter.  Every avoidance
   fill and every avoidance-entry repair the flush hands to the pool is
   one task; the shared-tree repair runs in the caller, and it is the
   one repaired-or-fallback entry of each flush that is not a task. *)
let check_task_ledger ~label ~stats ~pay ~edit =
  pay ();
  let st = stats () in
  Alcotest.(check bool) (label ^ ": instance has relays") true
    (st.LS.avoid_runs > 0);
  Alcotest.(check int) (label ^ ": first payments, one task per fill")
    st.LS.avoid_runs st.LS.tasks_executed;
  for step = 1 to 8 do
    let st0 = stats () in
    edit step;
    pay ();
    let st1 = stats () in
    let d f = f st1 - f st0 in
    Alcotest.(check int)
      (Printf.sprintf "%s: edit %d, fills + pooled repairs" label step)
      (d (fun s -> s.LS.avoid_runs)
      + d (fun s -> s.LS.repaired_entries)
      + d (fun s -> s.LS.fallback_recomputes)
      - 1)
      (d (fun s -> s.LS.tasks_executed))
  done

let test_task_ledger () =
  List.iter
    (fun domains ->
      Par.with_pool ~domains (fun pool ->
          let r = Rng.create 23 in
          let s = LS.create ~pool (random_digraph r ~n:60) ~root:0 in
          check_task_ledger
            ~label:(Printf.sprintf "link, pool %d" domains)
            ~stats:(fun () -> LS.stats s)
            ~pay:(fun () -> ignore (LS.payments s))
            ~edit:(fun step ->
              let links = Array.of_list (Digraph.links (LS.snapshot s)) in
              let u, v, w = Rng.choose r links in
              LS.set_cost s u v (if step mod 2 = 0 then w *. 2.0 else w *. 0.5));
          let g = Test_util.random_ring_graph ~min_n:20 (Test_util.rng 41) in
          let ns = NS.create ~pool g ~root:0 in
          check_task_ledger
            ~label:(Printf.sprintf "node, pool %d" domains)
            ~stats:(fun () -> NS.stats ns)
            ~pay:(fun () -> ignore (NS.payments ns))
            ~edit:(fun step ->
              let v = 1 + Rng.int r (Graph.n g - 1) in
              NS.set_cost ns v
                (if step mod 2 = 0 then NS.cost ns v *. 2.0
                 else NS.cost ns v *. 0.5))))
    [ 1; 3 ]

let test_map_array_pooled () =
  Par.with_pool ~domains:3 (fun pool ->
      let a = Array.init 90 (fun i -> i) in
      let expect = Array.map (fun x -> 2 * x) a in
      let states = Array.init (Par.size pool) (fun _ -> ref 0) in
      let got = Par.map_array_pooled pool ~states (fun st x -> incr st; 2 * x) a in
      Alcotest.(check bool) "pooled states give the plain map" true
        (got = expect);
      Alcotest.(check int) "every element touched exactly once" 90
        (Array.fold_left (fun acc st -> acc + !st) 0 states);
      Alcotest.check_raises "too few states are refused"
        (Invalid_argument
           "Wnet_par.map_array_pooled: need one state per participant")
        (fun () ->
          ignore (Par.map_array_pooled pool ~states:[| ref 0 |] (fun _ x -> x) a)))

let suite =
  [
    Alcotest.test_case "digraph in-place mutation" `Quick test_digraph_mutation;
    Alcotest.test_case "slack edit keeps caches + memoization" `Quick
      test_selective_invalidation;
    Alcotest.test_case "bit-equal tie triggers repair fallback" `Quick
      test_tie_triggers_fallback;
    Alcotest.test_case "cut-vertex tracking across edits" `Quick
      test_cut_vertex_tracking;
    Alcotest.test_case "leave/rejoin round-trip is bitwise" `Quick
      test_leave_rejoin_roundtrip;
    Alcotest.test_case "coalesced burst = one invalidation pass" `Quick
      test_coalesced_burst;
    Alcotest.test_case "reverted burst = zero invalidation passes" `Quick
      test_reverted_burst;
    Alcotest.test_case "explicit flush is immediate and idempotent" `Quick
      test_explicit_flush;
    Alcotest.test_case "node model coalesces bursts too" `Quick
      test_node_coalesced_burst;
    Alcotest.test_case "node model: bad costs rejected, nothing changes"
      `Quick test_node_bad_cost_rejected;
    Alcotest.test_case "node model: one edit counts once at any degree"
      `Quick test_node_edit_counts_once;
    Alcotest.test_case "node model: root-cost edit runs no pass" `Quick
      test_node_root_edit_no_pass;
    Alcotest.test_case "node model: slack burst repairs the tree in place"
      `Quick test_node_slack_burst_keeps_tree;
    Alcotest.test_case "map_array_pooled caller-owned states" `Quick
      test_map_array_pooled;
    Alcotest.test_case "tasks counter = fills + pooled repairs" `Quick
      test_task_ledger;
    Test_util.qcheck_case ~count:60
      "link session: random edit sequences = clone-per-relay oracle (bits)"
      Test_util.seed_gen link_equiv_prop;
    Test_util.qcheck_case ~count:60
      "node session: random edit sequences = boxed oracle batch (bits)"
      Test_util.seed_gen node_equiv_prop;
    Test_util.qcheck_case ~count:40
      "sparse outcomes: ascending relays, oracle payments and charges (bits)"
      Test_util.seed_gen sparse_shape_prop;
  ]
