open Wnet_graph

type outcome = {
  src : int;
  path : Path.t;
  lcp_cost : float;
  payments : float array;
}

type stats = Link_session.stats = {
  edits : int;
  coalesced_edits : int;
  inval_passes : int;
  spt_runs : int;
  avoid_runs : int;
  avoid_reused : int;
  repaired_entries : int;
  fallback_recomputes : int;
  tasks_executed : int;
  tasks_stolen : int;
  avoid_bounded : int;
  avoid_fallback : int;
}

module C = Engine_common

type t = {
  root : int;
  pool : Wnet_par.t;
  mutable g : Graph.t;  (* adjacency shared; cost vector swapped per edit *)
  mutable gver : int;  (* session-managed version stamp *)
  mutable tree : Dijkstra.tree option;
      (* the node-weighted shared tree stays live-or-die:
         Dynamic_sssp repairs link-weighted trees, and the node model's
         tree is one Dijkstra per burst anyway — the per-relay avoidance
         arrays are the expensive part, and those are patched *)
  mutable tree_version : int;
  mutable avoid : float array option array;
  mutable avoid_epoch : int array;  (* entry k exact iff = cache_epoch *)
  mutable cache_epoch : int;
  scratches : Dijkstra.scratch array;
  dscratches : Dynamic_sssp.dist_scratch array;
  mutable unbounded : int list;
  mutable last : (int * outcome option array) option;
  pending : (int, float) Hashtbl.t;
      (* nodes cost-edited since the last flush, mapped to their cost
         *before* the burst; invalidation is deferred and coalesced *)
  mutable pending_order : int list;  (* insertion order, reversed *)
  mutable pending_edits : int;
  mutable edits : int;
  mutable coalesced_edits : int;
  mutable inval_passes : int;
  mutable spt_runs : int;
  mutable avoid_runs : int;
  mutable avoid_reused : int;
  mutable repaired_entries : int;
  mutable fallback_recomputes : int;
  tasks : C.tasks;
  mutable avoid_bounded : int;
  mutable avoid_fallback : int;
  region_hist : int array;
}

let create ?(pool = Wnet_par.sequential) g ~root =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Node_session.create: root out of range";
  {
    root;
    pool;
    g;
    gver = 0;
    tree = None;
    tree_version = -1;
    avoid = Array.make n None;
    avoid_epoch = Array.make n (-1);
    cache_epoch = 0;
    scratches =
      Array.init (Wnet_par.size pool) (fun _ -> Dijkstra.make_scratch n);
    dscratches =
      Array.init (Wnet_par.size pool) (fun _ ->
          Dynamic_sssp.make_dist_scratch n);
    unbounded = [];
    last = None;
    pending = Hashtbl.create 16;
    pending_order = [];
    pending_edits = 0;
    edits = 0;
    coalesced_edits = 0;
    inval_passes = 0;
    spt_runs = 0;
    avoid_runs = 0;
    avoid_reused = 0;
    repaired_entries = 0;
    fallback_recomputes = 0;
    tasks = C.make_tasks ();
    avoid_bounded = 0;
    avoid_fallback = 0;
    region_hist = C.make_hist ();
  }

let n t = Graph.n t.g
let root t = t.root
let cost t v = Graph.cost t.g v
let graph t = t.g
let version t = t.gver
let stats t =
  { edits = t.edits; coalesced_edits = t.coalesced_edits;
    inval_passes = t.inval_passes; spt_runs = t.spt_runs;
    avoid_runs = t.avoid_runs; avoid_reused = t.avoid_reused;
    repaired_entries = t.repaired_entries;
    fallback_recomputes = t.fallback_recomputes;
    tasks_executed = t.tasks.C.executed; tasks_stolen = t.tasks.C.stolen;
    avoid_bounded = t.avoid_bounded; avoid_fallback = t.avoid_fallback }
let unbounded_relays t = t.unbounded
let steal_map t ~states f a = C.steal_map t.pool t.tasks ~states f a
let region_histogram t = C.region_histogram t.region_hist
let record_region t r = C.record_region t.region_hist r

let mark_edit t =
  t.gver <- t.gver + 1;
  t.edits <- t.edits + 1;
  t.last <- None

(* Patch every currently-exact avoidance entry against the
   burst's net node-cost edits, fanned out over the pool.  An
   [`Overflow] leaves the entry corrupted: drop it and count a
   fallback. *)
let repair_avoid_entries t nedits =
  let fresh = ref [] in
  Array.iteri
    (fun j entry ->
      match entry with
      | Some _ when t.avoid_epoch.(j) = t.cache_epoch -> fresh := j :: !fresh
      | _ -> ())
    t.avoid;
  let fresh = Array.of_list (List.rev !fresh) in
  t.cache_epoch <- t.cache_epoch + 1;
  let regions =
    steal_map t ~states:t.dscratches
      (fun ds j ->
        match t.avoid.(j) with
        | Some d -> (
          match
            Dynamic_sssp.repair_node_dist ds ~forbidden:j ~graph:t.g
              ~source:t.root ~dist:d nedits
          with
          | `Patched r -> r
          | `Overflow -> -1)
        | None -> -1)
      fresh
  in
  Array.iteri
    (fun i j ->
      if regions.(i) >= 0 then begin
        t.avoid_epoch.(j) <- t.cache_epoch;
        t.repaired_entries <- t.repaired_entries + 1;
        record_region t regions.(i)
      end
      else begin
        t.avoid.(j) <- None;
        t.fallback_recomputes <- t.fallback_recomputes + 1
      end)
    fresh

(* Deferred, coalesced maintenance: cost edits swap the cost vector
   eagerly, the cache pass waits for the next flush and repairs each
   exact cache in place against every *net* node-cost change in one go
   (an edit reverted within the burst vanishes).  Adjacency
   never changes between flushes — the structural delta
   ({!remove_node}) flushes first — so neighbour sets read at flush
   time are the ones every buffered edit saw. *)
let flush t =
  if t.pending_edits > 0 then begin
    let net =
      List.rev_map
        (fun x ->
          let c0 = Hashtbl.find t.pending x in
          (x, Graph.neighbors t.g x, c0, Graph.cost t.g x))
        t.pending_order
      |> List.filter (fun (_, _, c0, c1) -> not (Float.equal c0 c1))
    in
    t.coalesced_edits <- t.coalesced_edits + t.pending_edits;
    Hashtbl.reset t.pending;
    t.pending_order <- [];
    t.pending_edits <- 0;
    if net <> [] then begin
      t.inval_passes <- t.inval_passes + 1;
      repair_avoid_entries t
        (List.map
           (fun (x, nbrs, c0, c1) -> { Dynamic_sssp.x; nbrs; c0; c1 })
           net)
    end
  end

let set_cost t x c =
  if x < 0 || x >= n t then invalid_arg "Node_session.set_cost: out of range";
  let c0 = Graph.cost t.g x in
  if not (Float.equal c0 c) then begin
    t.g <- Graph.with_cost t.g x c;
    mark_edit t;
    (* The root's relay cost never enters a from-root search (leaving
       the source is free) nor any payment, so every cache survives and
       there is nothing to buffer. *)
    if x <> t.root then begin
      t.pending_edits <- t.pending_edits + 1;
      if not (Hashtbl.mem t.pending x) then begin
        Hashtbl.add t.pending x c0;
        t.pending_order <- x :: t.pending_order
      end
    end
  end

let remove_node t x =
  if x < 0 || x >= n t then invalid_arg "Node_session.remove_node: out of range";
  if x = t.root then invalid_arg "Node_session.remove_node: cannot remove the root";
  flush t;
  let nbrs = Graph.neighbors t.g x in
  let c0 = Graph.cost t.g x in
  t.g <- Graph.remove_node t.g x;
  mark_edit t;
  t.inval_passes <- t.inval_passes + 1;
  (* as a cost edit to infinity: no search relays x any more.  The entry
     avoid.(x) itself stays exact (x is invisible to its own search);
     the others are repaired, then x's now-adjacencyless label is forced
     to the from-scratch value. *)
  repair_avoid_entries t [ { Dynamic_sssp.x; nbrs; c0; c1 = infinity } ];
  Array.iteri
    (fun j entry ->
      match entry with
      | Some d when t.avoid_epoch.(j) = t.cache_epoch -> d.(x) <- infinity
      | _ -> ())
    t.avoid

let shared_tree t =
  match t.tree with
  | Some tree when t.tree_version = t.gver -> tree
  | _ ->
    let tree = Dijkstra.node_weighted t.g ~source:t.root in
    t.tree <- Some tree;
    t.tree_version <- t.gver;
    t.spt_runs <- t.spt_runs + 1;
    tree

let entry_fresh t k =
  match t.avoid.(k) with
  | None -> false
  | Some _ -> t.avoid_epoch.(k) = t.cache_epoch

let payments t =
  match t.last with
  | Some (v, results) when v = t.gver -> results
  | _ ->
    flush t;
    let nn = n t in
    let tree = shared_tree t in
    let next_hop v = tree.Dijkstra.parent.(v) in
    let is_relay = Array.make nn false in
    for v = 0 to nn - 1 do
      if v <> t.root && Dijkstra.reachable tree v then begin
        let h = next_hop v in
        if h >= 0 && h <> t.root then is_relay.(h) <- true
      end
    done;
    let relays = C.relay_array is_relay in
    let missing =
      C.relay_array
        (Array.init nn (fun k -> is_relay.(k) && not (entry_fresh t k)))
    in
    let dists =
      if Array.length missing = 0 then [||]
      else begin
        (* Subtree-bounded fills; see {!Link_session.payments}.  Stolen
           tasks return (dist, region) pairs, counters fold here on the
           main thread. *)
        let idx = Avoid_region.make_index tree in
        let states =
          Array.init (Array.length t.scratches) (fun i ->
              (t.scratches.(i), t.dscratches.(i)))
        in
        let pairs =
          steal_map t ~states
            (fun (scratch, ds) k ->
              let d = Array.make nn infinity in
              let r =
                Avoid_region.node_avoid ds idx ~graph:t.g ~tree ~avoid:k
                  ~dist:d
              in
              if r >= 0 then (d, r)
              else
                ( Dijkstra.node_weighted_dist_csr scratch ~avoid:k t.g
                    ~source:t.root,
                  -1 ))
            missing
        in
        Array.map
          (fun (d, r) ->
            if r >= 0 then begin
              t.avoid_bounded <- t.avoid_bounded + 1;
              record_region t r
            end
            else t.avoid_fallback <- t.avoid_fallback + 1;
            d)
          pairs
      end
    in
    Array.iteri
      (fun i k ->
        t.avoid.(k) <- Some dists.(i);
        t.avoid_epoch.(k) <- t.cache_epoch)
      missing;
    t.avoid_runs <- t.avoid_runs + Array.length missing;
    t.avoid_reused <-
      t.avoid_reused + (Array.length relays - Array.length missing);
    let cut = Array.make nn false in
    let results =
      Array.init nn (fun src ->
          if src = t.root || not (Dijkstra.reachable tree src) then None
          else begin
            let rec chain v acc =
              if v = t.root then List.rev (t.root :: acc)
              else chain (next_hop v) (v :: acc)
            in
            let path = Array.of_list (chain src []) in
            let lcp_cost = Dijkstra.dist tree src in
            let payments = Array.make nn 0.0 in
            Array.iter
              (fun k ->
                let avoid_k =
                  match t.avoid.(k) with
                  | Some d -> d.(src)
                  | None -> assert false
                in
                payments.(k) <- Graph.cost t.g k +. avoid_k -. lcp_cost;
                if avoid_k = infinity then cut.(k) <- true)
              (Path.relays path);
            Some { src; path; lcp_cost; payments }
          end)
    in
    t.unbounded <- Array.to_list (C.relay_array cut);
    t.last <- Some (t.gver, results);
    results

(* The payments table reshaped the way the distributed protocols report
   it: per source, a (relay, payment) assoc sorted by relay id.  Used as
   the oracle side of the dsim cross-check. *)
let relay_tables t =
  let results = payments t in
  Array.map
    (fun o ->
      match o with
      | None -> []
      | Some o ->
        Path.relays o.path |> Array.to_list
        |> List.map (fun k -> (k, o.payments.(k)))
        |> List.sort compare)
    results
