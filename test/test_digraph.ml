open Wnet_graph

let small () =
  Digraph.create ~n:4
    ~links:[ (0, 1, 1.0); (1, 2, 2.0); (2, 3, 3.0); (3, 0, 4.0); (1, 0, 5.0) ]

let test_sizes () =
  let g = small () in
  Alcotest.(check int) "n" 4 (Digraph.n g);
  Alcotest.(check int) "m" 5 (Digraph.m g)

let test_weight_lookup () =
  let g = small () in
  Test_util.check_float "forward" 1.0 (Digraph.weight g 0 1);
  Test_util.check_float "reverse direction distinct" 5.0 (Digraph.weight g 1 0);
  Test_util.check_float "absent" infinity (Digraph.weight g 0 2)

let test_parallel_links_keep_cheapest () =
  let g = Digraph.create ~n:2 ~links:[ (0, 1, 5.0); (0, 1, 2.0); (0, 1, 9.0) ] in
  Alcotest.(check int) "one link" 1 (Digraph.m g);
  Test_util.check_float "cheapest" 2.0 (Digraph.weight g 0 1)

let test_infinite_links_dropped () =
  let g = Digraph.create ~n:2 ~links:[ (0, 1, infinity) ] in
  Alcotest.(check int) "dropped" 0 (Digraph.m g)

let test_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.create: self-loop")
    (fun () -> ignore (Digraph.create ~n:1 ~links:[ (0, 0, 1.0) ]));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Digraph.create: weight must be non-negative") (fun () ->
      ignore (Digraph.create ~n:2 ~links:[ (0, 1, -1.0) ]))

let test_reverse () =
  let g = small () in
  let r = Digraph.reverse g in
  Alcotest.(check int) "same m" (Digraph.m g) (Digraph.m r);
  Test_util.check_float "flipped" 1.0 (Digraph.weight r 1 0);
  Test_util.check_float "flipped 2" 3.0 (Digraph.weight r 3 2);
  (* reversing twice is the identity on the link set *)
  Alcotest.(check (list (triple int int (float 0.0)))) "involution"
    (Digraph.links g)
    (Digraph.links (Digraph.reverse r))

let test_silence_node () =
  let g = small () in
  let s = Digraph.silence_node g 1 in
  Test_util.check_float "out-links gone" infinity (Digraph.weight s 1 2);
  Test_util.check_float "in-links kept" 1.0 (Digraph.weight s 0 1);
  Alcotest.(check int) "m reduced by out-degree" 3 (Digraph.m s)

let test_remove_node () =
  let g = small () in
  let s = Digraph.remove_node g 1 in
  Test_util.check_float "out gone" infinity (Digraph.weight s 1 2);
  Test_util.check_float "in gone" infinity (Digraph.weight s 0 1);
  Alcotest.(check int) "m" 2 (Digraph.m s)

let test_remove_links_to () =
  let g = small () in
  let s = Digraph.remove_links_to g 0 in
  Test_util.check_float "3->0 gone" infinity (Digraph.weight s 3 0);
  Test_util.check_float "1->0 gone" infinity (Digraph.weight s 1 0);
  Test_util.check_float "0->1 kept" 1.0 (Digraph.weight s 0 1);
  Alcotest.(check int) "m" 3 (Digraph.m s)

let test_silence_reverse_duality () =
  (* silence in g == remove_links_to in reverse g: the identity the batch
     payment computation relies on. *)
  let g = small () in
  let a = Digraph.reverse (Digraph.silence_node g 1) in
  let b = Digraph.remove_links_to (Digraph.reverse g) 1 in
  Alcotest.(check (list (triple int int (float 0.0)))) "duality"
    (Digraph.links a) (Digraph.links b)

let test_out_links () =
  let g = small () in
  let l = Digraph.out_links g 1 in
  Alcotest.(check int) "out degree" 2 (Array.length l);
  Alcotest.(check bool) "sorted by target" true (fst l.(0) < fst l.(1))

(* [reverse] is one counting pass; hold it to the definition: the
   flipped link set, sorted, and an involution row for row.  Edits
   (deletes and inserts) leave rows the create path never builds. *)
let reverse_prop seed =
  let rng = Test_util.rng seed in
  let n = 1 + Wnet_prng.Rng.int rng 20 in
  let links = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Wnet_prng.Rng.bernoulli rng 0.2 then
        links := (u, v, float_of_int (Wnet_prng.Rng.int rng 4)) :: !links
    done
  done;
  let g = Digraph.create ~n ~links:!links in
  for _ = 1 to Wnet_prng.Rng.int rng 6 do
    let u = Wnet_prng.Rng.int rng n and v = Wnet_prng.Rng.int rng n in
    if u <> v then
      Digraph.set_weight g u v
        (if Wnet_prng.Rng.bernoulli rng 0.5 then infinity else 2.5)
  done;
  let r = Digraph.reverse g in
  let flipped =
    List.sort compare (List.map (fun (u, v, w) -> (v, u, w)) (Digraph.links g))
  in
  let rr = Digraph.reverse r in
  let same_row u =
    let a = Digraph.out_links g u and b = Digraph.out_links rr u in
    Array.length a = Array.length b
    && Array.for_all2
         (fun (x, w) (y, w') -> x = y && Float.equal w w')
         a b
  in
  Digraph.links r = flipped
  && Digraph.m r = Digraph.m g
  && List.for_all same_row (List.init n Fun.id)

let test_of_node_costs () =
  let g =
    Graph.create ~costs:[| 7.0; 2.0; 3.0 |] ~edges:[ (0, 1); (1, 2) ]
  in
  let d = Digraph.of_node_costs g ~root:0 in
  Alcotest.(check int) "both directions" 4 (Digraph.m d);
  Test_util.check_float "into the root is free" 0.0 (Digraph.weight d 1 0);
  Test_util.check_float "into 1 weighs c(1)" 2.0 (Digraph.weight d 0 1);
  Test_util.check_float "into 1 from 2" 2.0 (Digraph.weight d 2 1);
  Test_util.check_float "into 2 weighs c(2)" 3.0 (Digraph.weight d 1 2);
  Test_util.check_float "no edge, no arc" infinity (Digraph.weight d 0 2)

let suite =
  [
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "weight lookup" `Quick test_weight_lookup;
    Alcotest.test_case "parallel links keep cheapest" `Quick test_parallel_links_keep_cheapest;
    Alcotest.test_case "infinite links dropped" `Quick test_infinite_links_dropped;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "reverse" `Quick test_reverse;
    Test_util.qcheck_case ~count:200 "reverse = flipped links, an involution"
      Test_util.seed_gen reverse_prop;
    Alcotest.test_case "of_node_costs weighs arcs by their head" `Quick
      test_of_node_costs;
    Alcotest.test_case "silence_node" `Quick test_silence_node;
    Alcotest.test_case "remove_node" `Quick test_remove_node;
    Alcotest.test_case "remove_links_to" `Quick test_remove_links_to;
    Alcotest.test_case "silence/reverse duality" `Quick test_silence_reverse_duality;
    Alcotest.test_case "out_links sorted" `Quick test_out_links;
  ]
