(* From-scratch oracles the payment engines are held to, bit for bit.

   Nothing here calls a session, the one-shot batch wrappers built on
   them ([Link_cost.all_to_root], [Unicast.all_to_root]), or the CSR
   scratch kernels:

   - [link_dist] / [node_dist] are a boxed forbidden-node Dijkstra over
     [Digraph.out_links] / [Graph.neighbors], settling by linear scan;
   - [link_batch] is the clone-per-relay link-cost batch: the reversed
     tree, then one [Digraph.remove_links_to] clone and tree run per
     relay;
   - [node_batch] is the node-cost batch: the [Dijkstra.node_weighted]
     tree, one [node_dist] per relay, and [cost k +. avoid -. lcp] — the
     sessions' float association, so payments compare with
     [Float.equal].

   The oracles return dense per-node payment vectors; the comparators
   hold the sessions' sparse outcomes (ascending relay ids, aligned
   payments) and their charges to them.

   [digraph_rows] is [Digraph.create]'s link-list construction as a
   [Hashtbl] keyed by (u, v), which the bucketed rows replaced.

   Two text-codec references sit at the end: the [Printf] float printer
   and the tokenizing served-line parser that [Wnet_proto]'s in-place
   writer and scanner replaced.

   Any correct Dijkstra yields the same float distances: float addition
   of a non-negative weight is monotone and never decreases, so every
   label is the minimum over paths of that path's left-to-right sum,
   whatever the settlement order. *)

open Wnet_graph
module LC = Wnet_core.Link_cost
module U = Wnet_core.Unicast
module LS = Wnet_session.Link_session
module NS = Wnet_session.Node_session

(* [relax u du offer] offers each out-neighbour [w] of the settled node
   [u] its candidate distance through [u]. *)
let dijkstra ~n ~avoid ~source relax =
  if source < 0 || source >= n then invalid_arg "Oracle: source out of range";
  let dist = Array.make n infinity and settled = Array.make n false in
  dist.(source) <- 0.0;
  let offer w c = if w <> avoid && c < dist.(w) then dist.(w) <- c in
  let rec loop () =
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && dist.(v) < infinity
         && (!u < 0 || dist.(v) < dist.(!u))
      then u := v
    done;
    if !u >= 0 then begin
      settled.(!u) <- true;
      relax !u dist.(!u) offer;
      loop ()
    end
  in
  loop ();
  dist

(* Link-weighted distances from [source] with node [avoid] (default:
   none) never entered. *)
let link_dist ?(avoid = -1) g source =
  dijkstra ~n:(Digraph.n g) ~avoid ~source (fun u du offer ->
      Array.iter (fun (w, wt) -> offer w (du +. wt)) (Digraph.out_links g u))

(* Node-weighted distances: leaving [u] charges its relay cost, except
   from the source. *)
let node_dist ?(avoid = -1) g ~source =
  dijkstra ~n:(Graph.n g) ~avoid ~source (fun u du offer ->
      let c = if u = source then du else du +. Graph.cost g u in
      Array.iter (fun w -> offer w c) (Graph.neighbors g u))

(* Relays: the internal nodes of a from-root tree. *)
let relays (tree : Dijkstra.tree) ~root =
  let n = Array.length tree.Dijkstra.parent in
  let is_relay = Array.make n false in
  for v = 0 to n - 1 do
    let h = tree.Dijkstra.parent.(v) in
    if v <> root && Dijkstra.reachable tree v && h <> root && h >= 0 then
      is_relay.(h) <- true
  done;
  is_relay

let link_batch g ~root =
  let n = Digraph.n g in
  let rev = Digraph.reverse g in
  let tree = Dijkstra.link_weighted rev root in
  let is_relay = relays tree ~root in
  let avoid =
    Array.init n (fun k ->
        if is_relay.(k) then
          (Dijkstra.link_weighted (Digraph.remove_links_to rev k) root)
            .Dijkstra.dist
        else [||])
  in
  let results =
    Array.init n (fun src ->
        if src = root || not (Dijkstra.reachable tree src) then None
        else begin
          let path = Array.of_list (Dijkstra.path_in_tree tree src) in
          let lcp_cost = Dijkstra.dist tree src in
          let payments = Array.make n 0.0 in
          for l = 1 to Array.length path - 2 do
            let k = path.(l) in
            let used_link = Digraph.weight g k path.(l + 1) in
            payments.(k) <- used_link +. (avoid.(k).(src) -. lcp_cost)
          done;
          let first_link = Digraph.weight g path.(0) path.(1) in
          Some
            {
              LC.src;
              dst = root;
              path;
              lcp_cost;
              relay_cost = lcp_cost -. first_link;
              payments;
            }
        end)
  in
  { LC.root; to_root_dist = Array.copy tree.Dijkstra.dist; results }

let node_batch g ~root =
  let n = Graph.n g in
  let tree = Dijkstra.node_weighted g ~source:root in
  let is_relay = relays tree ~root in
  let avoid =
    Array.init n (fun k ->
        if is_relay.(k) then node_dist ~avoid:k g ~source:root else [||])
  in
  Array.init n (fun src ->
      if src = root || not (Dijkstra.reachable tree src) then None
      else begin
        let path = Array.of_list (Dijkstra.path_in_tree tree src) in
        let lcp_cost = Dijkstra.dist tree src in
        let payments = Array.make n 0.0 in
        Array.iter
          (fun k ->
            payments.(k) <- Graph.cost g k +. avoid.(k).(src) -. lcp_cost)
          (Path.relays path);
        Some { U.src; dst = root; path; lcp_cost; payments }
      end)

(* Rows sorted by target, one link per (u, v): a later duplicate
   replaces the kept one only if strictly cheaper; [infinity] links are
   dropped. *)
let digraph_rows ~n ~links =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  let best = Hashtbl.create (2 * List.length links) in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.create: endpoint out of range";
      if u = v then invalid_arg "Digraph.create: self-loop";
      if Float.is_nan w || w < 0.0 then
        invalid_arg "Digraph.create: weight must be non-negative";
      if w < infinity then
        match Hashtbl.find_opt best (u, v) with
        | Some w' when w' <= w -> ()
        | _ -> Hashtbl.replace best (u, v) w)
    links;
  let rows = Array.make n [] in
  Hashtbl.iter (fun (u, v) w -> rows.(u) <- (v, w) :: rows.(u)) best;
  Array.map
    (fun row ->
      Array.of_list (List.sort (fun (a, _) (b, _) -> Int.compare a b) row))
    rows

(* ---------------- comparators ---------------- *)

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

let options_equal eq a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some x, Some y -> eq x y
         | _ -> false)
       a b

(* How a session outcome's sparse payments depart from the oracle's
   dense per-node vector [dense] for the same [path], if they do:
   [relays] must be the path's relays in strictly ascending id order,
   each [payments.(i)] bitwise [dense.(relays.(i))], and the charge —
   the left fold of [payments] — bitwise the index-order sum of
   [dense]. *)
let sparse_mismatch ~path ~relays ~payments dense =
  let nr = Array.length relays in
  let expect = List.sort compare (Array.to_list (Path.relays path)) in
  let rec ascending i =
    i + 1 >= nr || (relays.(i) < relays.(i + 1) && ascending (i + 1))
  in
  if not (ascending 0) then Some "relays not strictly ascending"
  else if Array.to_list relays <> expect then
    Some "relays are not the path's relays"
  else if Array.length payments <> nr then
    Some "payments not aligned with relays"
  else
    match
      List.find_opt
        (fun i -> not (Float.equal payments.(i) dense.(relays.(i))))
        (List.init nr Fun.id)
    with
    | Some i ->
      Some
        (Printf.sprintf "payment to relay %d is %h, oracle %h" relays.(i)
           payments.(i) dense.(relays.(i)))
    | None ->
      let charge = Array.fold_left ( +. ) 0.0 payments
      and dense_charge = Array.fold_left ( +. ) 0.0 dense in
      if Float.equal charge dense_charge then None
      else Some (Printf.sprintf "charge %h, oracle %h" charge dense_charge)

(* The first source on which two per-source option arrays disagree. *)
let first_mismatch mismatch a b =
  if Array.length a <> Array.length b then Some "batch sizes differ"
  else
    let rec go i =
      if i >= Array.length a then None
      else
        match (a.(i), b.(i)) with
        | None, None -> go (i + 1)
        | Some x, Some y -> (
          match mismatch x y with
          | Some m -> Some (Printf.sprintf "source %d: %s" i m)
          | None -> go (i + 1))
        | _ -> Some (Printf.sprintf "source %d: served on one side only" i)
    in
    go 0

(* A link session batch against [link_batch]: paths, costs, payments,
   charges and to-root distances, all bitwise; [None] when they agree. *)
let link_mismatch (b : LS.batch) (o : LC.batch) =
  if b.LS.root <> o.LC.root then Some "roots differ"
  else if not (floats_equal b.LS.to_root_dist o.LC.to_root_dist) then
    Some "to-root distances differ"
  else
    first_mismatch
      (fun (x : LS.outcome) (y : LC.t) ->
        if x.LS.src <> y.LC.src || x.LS.path <> y.LC.path then
          Some "paths differ"
        else if not (Float.equal x.LS.lcp_cost y.LC.lcp_cost) then
          Some "lcp costs differ"
        else if not (Float.equal x.LS.relay_cost y.LC.relay_cost) then
          Some "relay costs differ"
        else
          sparse_mismatch ~path:y.LC.path ~relays:x.LS.relays
            ~payments:x.LS.payments y.LC.payments)
      b.LS.results o.LC.results

let link_matches b o = link_mismatch b o = None

(* A node session batch against [node_batch]. *)
let node_mismatch (x : NS.outcome option array) (y : U.t option array) =
  first_mismatch
    (fun (a : NS.outcome) (b : U.t) ->
      if a.NS.src <> b.U.src || a.NS.path <> b.U.path then Some "paths differ"
      else if not (Float.equal a.NS.lcp_cost b.U.lcp_cost) then
        Some "lcp costs differ"
      else
        sparse_mismatch ~path:b.U.path ~relays:a.NS.relays
          ~payments:a.NS.payments b.U.payments)
    x y

let node_matches x y = node_mismatch x y = None

(* Relays charged [infinity] somewhere in a batch — what
   [unbounded_relays] must report, ascending. *)
let unbounded payments_of results =
  let n = Array.length results in
  let cut = Array.make n false in
  Array.iter
    (Option.iter (fun r ->
         Array.iteri (fun k p -> if p = infinity then cut.(k) <- true)
           (payments_of r)))
    results;
  List.filter (fun k -> cut.(k)) (List.init n Fun.id)

let link_unbounded (o : LC.batch) =
  unbounded (fun (r : LC.t) -> r.LC.payments) o.LC.results

let node_unbounded (y : U.t option array) =
  unbounded (fun (r : U.t) -> r.U.payments) y

(* ---------------- text codec references ---------------- *)

(* [%.12g] if it reads back to the same bits, else [%.17g]. *)
let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let tokens line =
  String.split_on_char ' '
    (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun t -> t <> "")

(* Split [s] at the first occurrence of substring [sep]. *)
let cut ~sep s =
  let n = String.length s and m = String.length sep in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sep then
      Some (String.sub s 0 i, String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

let parse_served line =
  let bad () = Error (Printf.sprintf "bad served line %S" line) in
  match cut ~sep:"src " line with
  | Some ("", rest) -> (
    match cut ~sep:": path " rest with
    | Some (src_s, rest) -> (
      match cut ~sep:", charge " rest with
      | Some (path_s, charge_s) -> (
        match (int_of_string_opt src_s, float_of_string_opt charge_s) with
        | Some src, Some charge -> (
          let hops = tokens path_s |> List.filter (fun t -> t <> "->") in
          let rec ints = function
            | [] -> Some []
            | t :: rest ->
              Option.bind (int_of_string_opt t) (fun i ->
                  Option.map (List.cons i) (ints rest))
          in
          match ints hops with
          | Some path -> Ok (Wnet_proto.Served { src; path; charge })
          | None -> bad ())
        | _ -> bad ())
      | None -> bad ())
    | None -> bad ())
  | _ -> bad ()
