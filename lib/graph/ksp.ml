(* Yen's algorithm over the node-weighted shortest-path machinery.  The
   spur computations need Dijkstra with both forbidden nodes and
   forbidden edges, which only this module needs, so it gets a private
   variant here. *)

let dijkstra g ~source ~forbidden_node ~forbidden_edge =
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let heap = Indexed_heap.create n in
  dist.(source) <- 0.0;
  Indexed_heap.insert heap source 0.0;
  while not (Indexed_heap.is_empty heap) do
    let u, du = Indexed_heap.pop_min heap in
    if du <= dist.(u) then begin
      let leave = if u = source then 0.0 else Graph.cost g u in
      Array.iter
        (fun w ->
          if (not (forbidden_node w)) && not (forbidden_edge u w) then begin
            let cand = du +. leave in
            if cand < dist.(w) then begin
              dist.(w) <- cand;
              parent.(w) <- u;
              Indexed_heap.insert_or_decrease heap w cand
            end
          end)
        (Graph.neighbors g u)
    end
  done;
  let path_to v =
    if dist.(v) = infinity then None
    else begin
      let rec up v acc = if v = source then v :: acc else up parent.(v) (v :: acc) in
      Some (Array.of_list (up v []))
    end
  in
  path_to

let prefix p i = Array.sub p 0 (i + 1)

(* The spur from position [i] of [prev]: ban the root nodes and every
   first-edge out of the spur node that a known path sharing the root
   prefix already uses, then search for the cheapest deviation.  [known]
   is the round-start snapshot of accepted ∪ candidate paths — frozen,
   so every spur of a round is independent of the others and the round
   can fan out over the pool.  (Banning a candidate's first-edge is
   Lawler's optimisation: the path it hides is already in the candidate
   list, and deviations beyond position [i] are found by that path's own
   spur scan once it is accepted, so a one-round-stale ban set costs
   only duplicates — which [seen] drops — never a missed path.) *)
let spur_search g ~dst ~known ~prev i =
  let root = prefix prev i in
  let spur = prev.(i) in
  let banned_edges = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Array.length p > i + 1 && prefix p i = root then begin
        Hashtbl.replace banned_edges (p.(i), p.(i + 1)) ();
        Hashtbl.replace banned_edges (p.(i + 1), p.(i)) ()
      end)
    known;
  let root_nodes = Hashtbl.create 8 in
  Array.iteri (fun j v -> if j < i then Hashtbl.replace root_nodes v ()) root;
  match
    dijkstra g ~source:spur
      ~forbidden_node:(fun v -> Hashtbl.mem root_nodes v)
      ~forbidden_edge:(fun u w -> Hashtbl.mem banned_edges (u, w))
      dst
  with
  | None -> None
  | Some sp -> Some (Array.append root (Array.sub sp 1 (Array.length sp - 1)))

let k_shortest_paths ?(pool = Wnet_par.sequential) g ~src ~dst ~k =
  if k <= 0 then invalid_arg "Ksp: k must be positive";
  let n = Graph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Ksp: endpoint out of range";
  if src = dst then invalid_arg "Ksp: src = dst";
  let first =
    dijkstra g ~source:src ~forbidden_node:(fun _ -> false)
      ~forbidden_edge:(fun _ _ -> false)
      dst
  in
  match first with
  | None -> []
  | Some p0 ->
    let accepted = ref [ p0 ] in
    (* candidates: (cost, path); kept sorted by polling the minimum *)
    let candidates : (float * Path.t) list ref = ref [] in
    let seen = Hashtbl.create 16 in
    Hashtbl.add seen p0 ();
    let add_candidate p =
      if not (Hashtbl.mem seen p) then begin
        Hashtbl.add seen p ();
        candidates := (Path.relay_cost g p, p) :: !candidates
      end
    in
    (try
       for _ = 2 to k do
         let prev = List.hd !accepted in
         (* Every spur of the round reads the same frozen [known]
            snapshot, so the per-spur searches are independent tasks;
            stealing only reorders their execution.  Results are merged
            in spur-index order, and selection sorts the deduplicated
            candidate *set* by (cost, path) — both independent of
            execution order, so the output is identical at every pool
            size. *)
         let known = !accepted @ List.map snd !candidates in
         let spurs =
           Wnet_par.map_array pool
             (spur_search g ~dst ~known ~prev)
             (Array.init (Array.length prev - 1) Fun.id)
         in
         Array.iter (Option.iter add_candidate) spurs;
         match List.sort compare !candidates with
         | [] -> raise Exit
         | (_, best) :: rest ->
           candidates := rest;
           accepted := best :: !accepted
       done
     with Exit -> ());
    List.rev !accepted

let second_best_gap ?pool g ~src ~dst =
  match k_shortest_paths ?pool g ~src ~dst ~k:2 with
  | [ a; b ] -> Some (Path.relay_cost g b -. Path.relay_cost g a)
  | _ -> None
