(* Shared helpers for the test suites. *)

let approx ?(eps = 1e-9) a b =
  (a = b)
  || (a = infinity && b = infinity)
  || (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= eps *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let float_approx =
  Alcotest.testable
    (fun ppf x -> Format.fprintf ppf "%.12g" x)
    (fun a b -> approx a b)

let check_float = Alcotest.check float_approx

let rng seed = Wnet_prng.Rng.create seed

(* A connected random graph with strictly positive costs, for property
   tests: ring backbone + random chords. *)
let random_ring_graph ?(min_n = 4) ?(max_n = 40) r =
  let n = min_n + Wnet_prng.Rng.int r (max_n - min_n + 1) in
  let costs = Array.init n (fun _ -> 0.1 +. Wnet_prng.Rng.float r 10.0) in
  let edges = ref (List.init n (fun v -> (v, (v + 1) mod n))) in
  let extra = Wnet_prng.Rng.int r (2 * n) in
  for _ = 1 to extra do
    let u = Wnet_prng.Rng.int r n and v = Wnet_prng.Rng.int r n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Wnet_graph.Graph.create ~costs ~edges:!edges

(* Sparse random graph (tree + few chords): node removal often
   disconnects, exercising the infinity paths. *)
let random_sparse_graph ?(min_n = 4) ?(max_n = 30) r =
  let n = min_n + Wnet_prng.Rng.int r (max_n - min_n + 1) in
  let costs = Array.init n (fun _ -> 0.05 +. Wnet_prng.Rng.float r 5.0) in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Wnet_prng.Rng.int r v) :: !edges
  done;
  let extra = Wnet_prng.Rng.int r 4 in
  for _ = 1 to extra do
    let u = Wnet_prng.Rng.int r n and v = Wnet_prng.Rng.int r n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Wnet_graph.Graph.create ~costs ~edges:!edges

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* QCheck generator wrapping one of our seeded graph generators: we
   generate a seed and derive the structure, which shrinks poorly but
   keeps generation deterministic and cheap. *)
let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* The node model as the link engine searches it: the reverse of
   [Digraph.of_node_costs], run from [root]. *)
let node_rev g ~root =
  Wnet_graph.Digraph.reverse (Wnet_graph.Digraph.of_node_costs g ~root)

(* Half the time, every cost set to 1.0: the tie-rich node instances. *)
let maybe_unit_costs r g =
  if Wnet_prng.Rng.bernoulli r 0.5 then
    Wnet_graph.Graph.with_costs g (Array.make (Wnet_graph.Graph.n g) 1.0)
  else g
