(* The subtree-bounded avoidance tentpole (ISSUE: subtree-bounded
   avoidance kernels):

   - [Avoid_region.link_avoid] is [Float.equal]-identical to the
     full-CSR kernel and to the boxed forbidden-node oracle
     ([Oracle.link_dist], and [Oracle.node_dist] on the reversed
     [Digraph.of_node_costs] graph) for every relay — cut vertices
     (infinite avoidance) and unreachable nodes included;
   - an undersized budget reports [`Overflow] honestly, and rerunning
     with a sufficient one recovers the exact answer (the session's
     fallback discipline);
   - whole session payment batches stay bit-identical to the
     [Oracle] batches at pool sizes 1 and 3, under random edit/fill
     interleavings;
   - tied integer weights on a path topology force the fallback (a
     subtree larger than the budget) without perturbing payments. *)

open Wnet_graph
module Rng = Wnet_prng.Rng
module LS = Wnet_session.Link_session
module NS = Wnet_session.Node_session

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

let random_digraph rng ~n =
  let links = ref [] in
  let p = 3.0 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.bernoulli rng p then
        links := (u, v, Rng.float_range rng 0.5 10.0) :: !links
    done
  done;
  Digraph.create ~n ~links:!links

(* ---------------- kernel-level equivalence ---------------- *)

(* Every non-root node is a candidate relay: the bounded run must match
   the full-CSR and boxed forbidden runs whatever the subtree looks
   like — empty (leaves), the whole reachable graph (root's only
   child), or disconnected from [k] entirely (unreachable nodes keep
   their [infinity] labels bit-for-bit). *)
let link_kernel_prop seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 25 in
  let g = random_digraph rng ~n in
  let root = Rng.int rng n in
  let rev = Digraph.reverse g in
  let tree = Dijkstra.link_weighted rev root in
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch n in
  let scratch = Dijkstra.make_scratch n in
  let d = Array.make n nan in
  for k = 0 to n - 1 do
    if k <> root then begin
      if
        Avoid_region.link_avoid ds ~budget:n idx ~graph:rev ~mirror:g ~tree
          ~avoid:k ~dist:d
        < 0
      then QCheck2.Test.fail_reportf "budget n can never overflow (k=%d)" k;
      let csr = Dijkstra.link_weighted_dist_csr scratch ~avoid:k rev root in
      let boxed = Oracle.link_dist ~avoid:k rev root in
      if not (floats_equal d csr && floats_equal csr boxed) then
        QCheck2.Test.fail_reportf "bounded/full/boxed diverged at relay %d" k
    end
  done;
  true

(* The node model on the link kernels: over the reversed
   [Digraph.of_node_costs] graph the shared tree is the node-weighted
   tree, parents (tie order) included, and every bounded fill matches
   the node oracle.  Unit costs make ties the common case. *)
let node_kernel_prop seed =
  let rng = Rng.create seed in
  let g = Test_util.maybe_unit_costs rng (Test_util.random_ring_graph rng) in
  let n = Graph.n g in
  let root = Rng.int rng n in
  let fwd = Digraph.of_node_costs g ~root in
  let rev = Digraph.reverse fwd in
  let tree = Dijkstra.link_weighted rev root in
  let node_tree = Dijkstra.node_weighted g ~source:root in
  if
    not
      (floats_equal tree.Dijkstra.dist node_tree.Dijkstra.dist
      && tree.Dijkstra.parent = node_tree.Dijkstra.parent)
  then QCheck2.Test.fail_reportf "link tree differs from the node tree";
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch n in
  let scratch = Dijkstra.make_scratch n in
  let d = Array.make n nan in
  for k = 0 to n - 1 do
    if k <> root then begin
      if
        Avoid_region.link_avoid ds ~budget:n idx ~graph:rev ~mirror:fwd ~tree
          ~avoid:k ~dist:d
        < 0
      then QCheck2.Test.fail_reportf "budget n overflowed (k=%d)" k;
      let csr = Dijkstra.link_weighted_dist_csr scratch ~avoid:k rev root in
      let boxed = Oracle.node_dist ~avoid:k g ~source:root in
      if not (floats_equal d csr && floats_equal csr boxed) then
        QCheck2.Test.fail_reportf "bounded/full/boxed diverged at relay %d" k
    end
  done;
  true

(* An undersized budget must overflow honestly; retrying with budget [n]
   recovers the exact answer from the same (corrupted) buffer — the
   session's fallback path in miniature.  Checked on a random digraph
   and on a node-weighted one against the node oracle. *)
let overflow_recovery ~rng ~rev ~fwd ~root ~exact =
  let n = Digraph.n rev in
  let tree = Dijkstra.link_weighted rev root in
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch n in
  let d = Array.make n nan in
  let k = (root + 1 + Rng.int rng (n - 1)) mod n in
  let exact = exact k in
  let tight = Rng.int rng 3 in
  let r =
    Avoid_region.link_avoid ds ~budget:tight idx ~graph:rev ~mirror:fwd ~tree
      ~avoid:k ~dist:d
  in
  if r >= 0 then begin
    (* a tiny region may genuinely fit — then it must already be exact *)
    if r > tight then QCheck2.Test.fail_reportf "region %d exceeds budget" r;
    if not (floats_equal d exact) then
      QCheck2.Test.fail_reportf "in-budget run diverged"
  end
  else begin
    if
      Avoid_region.link_avoid ds ~budget:n idx ~graph:rev ~mirror:fwd ~tree
        ~avoid:k ~dist:d
      < 0
    then QCheck2.Test.fail_reportf "budget n overflowed after retry";
    if not (floats_equal d exact) then
      QCheck2.Test.fail_reportf "post-overflow retry diverged"
  end

let overflow_recovery_prop seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 20 in
  let g = random_digraph rng ~n in
  let root = Rng.int rng n in
  let rev = Digraph.reverse g in
  overflow_recovery ~rng ~rev ~fwd:g ~root ~exact:(fun k ->
      Oracle.link_dist ~avoid:k rev root);
  let gn =
    Test_util.maybe_unit_costs rng (Test_util.random_ring_graph ~min_n:8 rng)
  in
  let root = Rng.int rng (Graph.n gn) in
  let fwd = Digraph.of_node_costs gn ~root in
  overflow_recovery ~rng ~rev:(Digraph.reverse fwd) ~fwd ~root
    ~exact:(fun k -> Oracle.node_dist ~avoid:k gn ~source:root);
  true

(* ---------------- sessions vs the oracle batches ---------------- *)

let with_pool ~domains f =
  if domains = 1 then f Wnet_par.sequential
  else Wnet_par.with_pool ~domains f

(* Random edit/fill interleavings: one session absorbs a stream of cost
   edits, node leaves and rejoins, with payment batches (= cache fills)
   demanded at random points and checked against the clone-per-relay
   oracle on the session's current topology. *)
let session_interleaving_prop ~domains seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 17 in
  let g = random_digraph rng ~n in
  with_pool ~domains (fun pool ->
      let s = LS.create ~pool g ~root:0 in
      let agree what =
        let oracle = Oracle.link_batch (LS.snapshot s) ~root:0 in
        if not (Oracle.link_matches (LS.payments s) oracle) then
          QCheck2.Test.fail_reportf "batch diverged from the oracle after %s"
            what
      in
      agree "cold start";
      let removed = ref [] in
      for step = 1 to 12 do
        (match Rng.int rng 6 with
        | 0 | 1 | 2 ->
          let u = Rng.int rng n and v = Rng.int rng n in
          (* leave detached nodes isolated so rejoin stays legal *)
          if u <> v && (not (List.mem u !removed)) && not (List.mem v !removed)
          then begin
            let w =
              if Rng.bernoulli rng 0.2 then infinity
              else Rng.float_range rng 0.5 10.0
            in
            LS.set_cost s u v w
          end
        | 3 ->
          let k = 1 + Rng.int rng (n - 1) in
          if not (List.mem k !removed) then begin
            LS.remove_node s k;
            removed := k :: !removed
          end
        | 4 -> (
          match !removed with
          | k :: rest ->
            let out = [ (Rng.int rng n, Rng.float_range rng 0.5 10.0) ] in
            let out =
              List.filter (fun (v, _) -> v <> k && not (List.mem v rest)) out
            in
            LS.rejoin_node s k ~out ~inn:[];
            removed := rest
          | [] -> ())
        | _ -> agree (Printf.sprintf "step %d" step));
        if step mod 4 = 0 then agree (Printf.sprintf "step %d" step)
      done;
      agree "final";
      (* the session must actually have used the bounded path *)
      let st = LS.stats s in
      if st.LS.avoid_runs > 0 && st.LS.avoid_bounded + st.LS.avoid_fallback = 0
      then QCheck2.Test.fail_reportf "bounded kernel never engaged");
  true

let node_session_prop ~domains seed =
  let rng = Rng.create seed in
  let g = Test_util.random_ring_graph rng in
  let n = Graph.n g in
  with_pool ~domains (fun pool ->
      let s = NS.create ~pool g ~root:0 in
      let agree what =
        let oracle = Oracle.node_batch (NS.graph s) ~root:0 in
        if not (Oracle.node_matches (NS.payments s) oracle) then
          QCheck2.Test.fail_reportf
            "node batch diverged from the oracle after %s" what
      in
      agree "cold start";
      for step = 1 to 10 do
        (match Rng.int rng 5 with
        | 0 | 1 | 2 ->
          let x = 1 + Rng.int rng (n - 1) in
          NS.set_cost s x (Rng.float_range rng 0.0 5.0)
        | 3 -> NS.remove_node s (1 + Rng.int rng (n - 1))
        | _ -> agree (Printf.sprintf "step %d" step));
        if step mod 3 = 0 then agree (Printf.sprintf "step %d" step)
      done;
      agree "final");
  true

(* ---------------- fallback under tied integer weights ------------- *)

(* A unit-weight path 0 <- 1 <- ... <- n-1: relay 1's subtree holds the
   n-2 nodes behind it, blowing any n/2 budget, and every distance is a
   tie-rich small integer.  The session must fall back (counter) yet
   keep payments identical to the oracle batch. *)
let test_tied_path_forces_fallback () =
  let n = 100 in
  let links = List.init (n - 1) (fun i -> (i + 1, i, 1.0)) in
  (* a detour so relay payments stay finite for early relays *)
  let links = (n - 1, 0, float_of_int n) :: links in
  let g = Digraph.create ~n ~links in
  let sb = LS.create g ~root:0 in
  let b = LS.payments sb in
  Alcotest.(check bool) "payments match the clone-per-relay oracle" true
    (Oracle.link_matches b (Oracle.link_batch g ~root:0));
  let st = LS.stats sb in
  Alcotest.(check bool) "some subtree outgrew the budget" true
    (st.LS.avoid_fallback > 0);
  Alcotest.(check bool) "small subtrees still ran bounded" true
    (st.LS.avoid_bounded > 0);
  Alcotest.(check int) "every relay filled exactly once"
    st.LS.avoid_runs
    (st.LS.avoid_bounded + st.LS.avoid_fallback)

(* ---------------- pinned unit: leaf relay, size-1 subtree --------- *)

let test_leaf_relay_pinned () =
  (* toward-root links: 1 -> 0 (w 1), 2 -> 1 (w 1), detour 2 -> 0 (w 5).
     Reversed tree from root 0: parent(1) = 0, parent(2) = 1 — relay 1
     serves exactly leaf 2, so its region is the single node {2}. *)
  let g =
    Digraph.create ~n:3 ~links:[ (1, 0, 1.0); (2, 1, 1.0); (2, 0, 5.0) ]
  in
  let rev = Digraph.reverse g in
  let tree = Dijkstra.link_weighted rev 0 in
  Alcotest.(check int) "relay 1 parents leaf 2" 1 tree.Dijkstra.parent.(2);
  let idx = Avoid_region.make_index tree in
  let ds = Dynamic_sssp.make_dist_scratch 3 in
  let d = Array.make 3 nan in
  Alcotest.(check int) "region is the single leaf" 1
    (Avoid_region.link_avoid ds idx ~graph:rev ~mirror:g ~tree ~avoid:1
       ~dist:d);
  Test_util.check_float "root keeps 0" 0.0 d.(0);
  Alcotest.(check bool) "silenced relay reads infinity" true (d.(1) = infinity);
  Test_util.check_float "leaf reroutes over the detour" 5.0 d.(2);
  (* drop the detour: relay 1 becomes a cut vertex and the leaf's
     avoidance distance goes unbounded *)
  let g' = Digraph.create ~n:3 ~links:[ (1, 0, 1.0); (2, 1, 1.0) ] in
  let rev' = Digraph.reverse g' in
  let tree' = Dijkstra.link_weighted rev' 0 in
  let idx' = Avoid_region.make_index tree' in
  Alcotest.(check bool) "cut-vertex run stays in budget" true
    (Avoid_region.link_avoid ds idx' ~graph:rev' ~mirror:g' ~tree:tree'
       ~avoid:1 ~dist:d
    >= 0);
  Alcotest.(check bool) "cut vertex yields infinite avoidance" true
    (d.(2) = infinity);
  let s = LS.create g' ~root:0 in
  ignore (LS.payments s);
  Alcotest.(check (list int)) "session flags the monopoly relay" [ 1 ]
    (LS.unbounded_relays s)

let suite =
  [
    Test_util.qcheck_case ~count:60 "link bounded = full CSR = boxed oracle"
      Test_util.seed_gen link_kernel_prop;
    Test_util.qcheck_case ~count:60 "node bounded = full CSR = boxed oracle"
      Test_util.seed_gen node_kernel_prop;
    Test_util.qcheck_case ~count:60 "overflow is honest, retry recovers"
      Test_util.seed_gen overflow_recovery_prop;
    Test_util.qcheck_case ~count:15
      "link sessions agree under churn with the oracle (pool 1)"
      Test_util.seed_gen
      (session_interleaving_prop ~domains:1);
    Test_util.qcheck_case ~count:10
      "link sessions agree under churn with the oracle (pool 3)"
      Test_util.seed_gen
      (session_interleaving_prop ~domains:3);
    Test_util.qcheck_case ~count:20
      "node sessions agree under churn with the oracle (pool 1)"
      Test_util.seed_gen
      (node_session_prop ~domains:1);
    Test_util.qcheck_case ~count:10
      "node sessions agree under churn with the oracle (pool 3)"
      Test_util.seed_gen
      (node_session_prop ~domains:3);
    Alcotest.test_case "tied unit-weight path forces the fallback" `Quick
      test_tied_path_forces_fallback;
    Alcotest.test_case "leaf relay: size-1 region, cut-vertex variant" `Quick
      test_leaf_relay_pinned;
  ]
