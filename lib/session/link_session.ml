open Wnet_graph

type outcome = {
  src : int;
  path : Path.t;
  lcp_cost : float;
  relay_cost : float;
  relays : int array;
  payments : float array;
}

type batch = {
  root : int;
  to_root_dist : float array;
  results : outcome option array;
}

type stats = {
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
  g : Digraph.t;  (* forward topology, mutated in place *)
  rev : Digraph.t;  (* reversed mirror, kept in lockstep *)
  mutable dyn : Dynamic_sssp.t option;
      (* the shared SPT over [rev] as a patched structure; exact for the
         current graph whenever the pending burst is empty *)
  mutable tree_version : int;
  mutable avoid : float array option array;
      (* avoid.(k): root-side distances over [rev] with k forbidden.
         Entries carry per-entry epochs: exact iff
         [avoid_epoch.(k) = cache_epoch]; stale entries are kept but
         never read (they are rebuilt from scratch on demand). *)
  mutable avoid_epoch : int array;
  mutable cache_epoch : int;  (* bumped once per invalidation pass *)
  mutable scratches : Dijkstra.scratch array;  (* one per pool slot *)
  mutable dscratches : Dynamic_sssp.dist_scratch array;  (* likewise *)
  mutable unbounded : int list;
  mutable last : (int * batch) option;  (* memoized batch, keyed by version *)
  pending : (int * int, float) Hashtbl.t;
      (* links cost-edited since the last flush, mapped to their weight
         *before* the burst; the graph itself is mutated eagerly, only
         the cache maintenance is deferred and coalesced *)
  mutable pending_order : (int * int) list;  (* insertion order, reversed *)
  mutable pending_edits : int;  (* set_cost calls buffered in this burst *)
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

let create ?(pool = Wnet_par.sequential) ?(copy = true) g ~root =
  let n = Digraph.n g in
  if root < 0 || root >= n then invalid_arg "Link_session.create: root out of range";
  let g = if copy then Digraph.copy g else g in
  {
    root;
    pool;
    g;
    rev = Digraph.reverse g;
    dyn = None;
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

let n t = Digraph.n t.g
let root t = t.root
let cost t u v = Digraph.weight t.g u v
let version t = Digraph.version t.g
let snapshot t = Digraph.copy t.g
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

(* ------------------------------------------------------------------ *)
(* Cache maintenance.

   Every cached array [d = avoid.(j)] is the distance-from-root array of
   a Dijkstra over [rev] with [j] forbidden.  Each burst's net link
   changes go to {!Dynamic_sssp}, which patches each entry in place (and
   the shared SPT, parents included) so it stays bit-for-bit what a
   from-scratch run would produce; entries whose affected region
   exceeds the budget go stale and are rebuilt from scratch at the next
   {!payments}.  The qcheck suite holds the result to [Float.equal]
   against the from-scratch oracle in test/oracle.ml. *)

let mark_edit t =
  t.edits <- t.edits + 1;
  t.last <- None

(* Patch the shared SPT after a burst of net rev-graph edits.  A
   fallback (oversized region, or a bit-equal tie that could flip a
   parent under from-scratch settlement order) costs one full
   Dijkstra. *)
let repair_spt t redits =
  match t.dyn with
  | None -> ()  (* not built yet; the first payments call runs it fresh *)
  | Some dy ->
    (match Dynamic_sssp.apply dy redits with
    | Dynamic_sssp.Patched { region } ->
      t.repaired_entries <- t.repaired_entries + 1;
      record_region t region
    | Dynamic_sssp.Rebuilt _ ->
      t.spt_runs <- t.spt_runs + 1;
      t.fallback_recomputes <- t.fallback_recomputes + 1);
    t.tree_version <- version t

(* Patch every currently-exact avoidance entry, fanned out over the
   pool (disjoint entries, one repair scratch per slot).  An
   [`Overflow] leaves the entry corrupted, so it is dropped and counted
   as a fallback; everything else moves to the new epoch. *)
let repair_avoid_entries t redits =
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
            Dynamic_sssp.repair_dist ds ~forbidden:j ~graph:t.rev ~mirror:t.g
              ~source:t.root ~dist:d redits
          with
          | `Patched r -> r
          | `Overflow -> -1)
        | None -> -1)
      fresh
  in
  Array.iteri
    (fun i j ->
      let r = regions.(i) in
      if r >= 0 then begin
        t.avoid_epoch.(j) <- t.cache_epoch;
        t.repaired_entries <- t.repaired_entries + 1;
        record_region t r
      end
      else begin
        t.avoid.(j) <- None;
        t.fallback_recomputes <- t.fallback_recomputes + 1
      end)
    fresh

(* Cost edits mutate the graph eagerly but defer the cache repair: the
   burst of edits accumulated since the last flush is folded into ONE
   pass over the avoidance array, each cache repaired against every
   *net* link change (first-recorded old weight vs. current weight), so
   an edit reverted within the burst vanishes entirely. *)
let flush t =
  if t.pending_edits > 0 then begin
    let net =
      List.rev_map
        (fun (u, v) ->
          let w0 = Hashtbl.find t.pending (u, v) in
          (u, v, w0, Digraph.weight t.g u v))
        t.pending_order
      |> List.filter (fun (_, _, w0, w1) -> not (Float.equal w0 w1))
    in
    t.coalesced_edits <- t.coalesced_edits + t.pending_edits;
    Hashtbl.reset t.pending;
    t.pending_order <- [];
    t.pending_edits <- 0;
    if net = [] then begin
      (* A burst that reverted itself leaves the graph as the shared
         tree last saw it, so the tree is still exact. *)
      if Option.is_some t.dyn then t.tree_version <- version t
    end
    else begin
      t.inval_passes <- t.inval_passes + 1;
      (* the forward link u -> v is the rev-link v -> u *)
      let redits =
        List.rev_map
          (fun (u, v, w0, w1) -> { Dynamic_sssp.u = v; v = u; w0; w1 })
          net
      in
      repair_spt t redits;
      repair_avoid_entries t redits
    end
  end

let set_cost t u v w =
  let w0 = Digraph.weight t.g u v in
  if not (Float.equal w0 w) then begin
    Digraph.set_weight t.g u v w;
    Digraph.set_weight t.rev v u w;
    mark_edit t;
    t.pending_edits <- t.pending_edits + 1;
    if not (Hashtbl.mem t.pending (u, v)) then begin
      Hashtbl.add t.pending (u, v) w0;
      t.pending_order <- (u, v) :: t.pending_order
    end
  end

(* [f target weight acc] over row [u] of [g], in target order. *)
let fold_row f g u acc =
  let { Digraph.row_off; row_end; col; wgt } = Digraph.csr g in
  let acc = ref acc in
  for i = row_off.(u) to row_end.(u) - 1 do
    acc := f col.(i) wgt.(i) !acc
  done;
  !acc

let remove_node t k =
  flush t;
  let nn = n t in
  if k < 0 || k >= nn then invalid_arg "Link_session.remove_node: out of range";
  if k = t.root then invalid_arg "Link_session.remove_node: cannot remove the root";
  (* every incident link deleted, expressed as rev-graph edits and read
     off both rows before detaching: rev out-links of k (forward links
     *into* k) can carry other nodes' root-side paths.  The entry
     avoid.(k) itself survives untouched (and exact): links incident to
     k are invisible to the k-forbidden search. *)
  let redits =
    fold_row
      (fun u w acc -> { Dynamic_sssp.u = k; v = u; w0 = w; w1 = infinity } :: acc)
      t.rev k []
  in
  let redits =
    fold_row
      (fun y w acc -> { Dynamic_sssp.u = y; v = k; w0 = w; w1 = infinity } :: acc)
      t.g k redits
  in
  Digraph.detach_node t.g k;
  Digraph.detach_node t.rev k;
  mark_edit t;
  t.inval_passes <- t.inval_passes + 1;
  repair_spt t redits;
  repair_avoid_entries t redits

let grow_scratches t nn =
  if nn > Dijkstra.scratch_capacity t.scratches.(0) then
    t.scratches <-
      Array.init (Wnet_par.size t.pool) (fun _ ->
          Dijkstra.make_scratch (max nn (2 * Dijkstra.scratch_capacity t.scratches.(0))));
  if nn > Dynamic_sssp.dist_scratch_capacity t.dscratches.(0) then
    t.dscratches <-
      Array.init (Wnet_par.size t.pool) (fun _ ->
          Dynamic_sssp.make_dist_scratch
            (max nn (2 * Dynamic_sssp.dist_scratch_capacity t.dscratches.(0))))

let apply_links t id ~out ~inn =
  List.iter
    (fun (v, w) ->
      if w < infinity then begin
        Digraph.set_weight t.g id v w;
        Digraph.set_weight t.rev v id w
      end)
    out;
  List.iter
    (fun (u, w) ->
      if w < infinity then begin
        Digraph.set_weight t.g u id w;
        Digraph.set_weight t.rev id u w
      end)
    inn

(* A freshly attached node's links, as rev-graph insertions, read off
   the graph itself (so duplicates in the caller's link lists fold
   away). *)
let attach_redits t id =
  let redits =
    fold_row
      (fun v w acc -> { Dynamic_sssp.u = v; v = id; w0 = infinity; w1 = w } :: acc)
      t.g id []
  in
  fold_row
    (fun u w acc -> { Dynamic_sssp.u = id; v = u; w0 = infinity; w1 = w } :: acc)
    t.rev id redits

let attach t id =
  t.inval_passes <- t.inval_passes + 1;
  let redits = attach_redits t id in
  repair_spt t redits;
  repair_avoid_entries t redits

let check_attach_link ~what ~n ~self (x, w) =
  if x < 0 || x >= n || x = self then
    invalid_arg (what ^ ": link endpoint out of range");
  if Float.is_nan w || w < 0.0 then
    invalid_arg (what ^ ": weight must be non-negative")

let add_node t ~out ~inn =
  flush t;
  let old_n = n t in
  List.iter (check_attach_link ~what:"Link_session.add_node" ~n:old_n ~self:(-1)) out;
  List.iter (check_attach_link ~what:"Link_session.add_node" ~n:old_n ~self:(-1)) inn;
  let id = Digraph.add_node t.g in
  let id' = Digraph.add_node t.rev in
  assert (id = id');
  grow_scratches t (id + 1);
  let avoid = Array.make (id + 1) None in
  let avoid_epoch = Array.make (id + 1) (-1) in
  Array.iteri
    (fun j entry ->
      match entry with
      | Some d ->
        let d' = Array.make (id + 1) infinity in
        Array.blit d 0 d' 0 old_n;
        avoid.(j) <- Some d';
        avoid_epoch.(j) <- t.avoid_epoch.(j)
      | None -> ())
    t.avoid;
  t.avoid <- avoid;
  t.avoid_epoch <- avoid_epoch;
  apply_links t id ~out ~inn;
  mark_edit t;
  attach t id;
  id

let rejoin_node t k ~out ~inn =
  flush t;
  let nn = n t in
  if k < 0 || k >= nn then invalid_arg "Link_session.rejoin_node: out of range";
  if k = t.root then invalid_arg "Link_session.rejoin_node: cannot rejoin the root";
  if
    Digraph.out_degree t.g k > 0 || Digraph.out_degree t.rev k > 0
  then invalid_arg "Link_session.rejoin_node: node is not isolated";
  List.iter (check_attach_link ~what:"Link_session.rejoin_node" ~n:nn ~self:k) out;
  List.iter (check_attach_link ~what:"Link_session.rejoin_node" ~n:nn ~self:k) inn;
  apply_links t k ~out ~inn;
  mark_edit t;
  (* Surviving caches hold d.(k) = infinity — exactly the add_node
     situation, minus the array extension.  The node's own entry
     avoid.(k) stays exact: k's links are invisible to the k-forbidden
     search. *)
  attach t k

(* ------------------------------------------------------------------ *)
(* The batch, assembled from caches.                                    *)

let shared_tree t =
  match t.dyn with
  | Some dy ->
    (* flush and the structural deltas keep the patched tree exact;
       anything else would be a bookkeeping bug — recover by a
       rebuild *)
    if t.tree_version <> version t then begin
      Dynamic_sssp.rebuild dy;
      t.spt_runs <- t.spt_runs + 1;
      t.tree_version <- version t
    end;
    Dynamic_sssp.tree dy
  | None ->
    let dy = Dynamic_sssp.create ~graph:t.rev ~mirror:t.g ~source:t.root in
    t.dyn <- Some dy;
    t.tree_version <- version t;
    t.spt_runs <- t.spt_runs + 1;
    Dynamic_sssp.tree dy

let entry_fresh t k =
  match t.avoid.(k) with
  | None -> false
  | Some _ -> t.avoid_epoch.(k) = t.cache_epoch

(* The shared step of every payments batch, whichever model assembles
   it: flush, bring the shared tree up to date, and fill the avoidance
   array of every relay (internal tree node) whose cache is missing or
   stale. *)
let fill_caches t =
  flush t;
  let nn = n t in
  let tree = shared_tree t in
  let is_relay = Array.make nn false in
  for v = 0 to nn - 1 do
    if v <> t.root && Dijkstra.reachable tree v then begin
      let h = tree.Dijkstra.parent.(v) in
      if h <> t.root && h >= 0 then is_relay.(h) <- true
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
      (* Per-relay fills bounded to the relay's SPT subtree: exterior
         distances are copied bit-for-bit from the shared tree, only the
         region is wiped/reseeded/settled.  Oversized subtrees fall back
         to the full-graph CSR kernel.  Stolen tasks run on other
         domains, so they only return (dist, region) pairs; the counters
         and histogram are folded here on the main thread. *)
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
              Avoid_region.link_avoid ds idx ~graph:t.rev ~mirror:t.g ~tree
                ~avoid:k ~dist:d
            in
            if r >= 0 then (d, r)
            else
              ( Dijkstra.link_weighted_dist_csr scratch ~avoid:k t.rev t.root,
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
  tree

let avoid_dist t k =
  match t.avoid.(k) with
  | Some d when t.avoid_epoch.(k) = t.cache_epoch -> d
  | _ -> invalid_arg "Link_session.avoid_dist: no fresh cache for this node"

let payments t =
  match t.last with
  | Some (v, batch) when v = version t -> batch
  | _ ->
    let tree = fill_caches t in
    let relays, payments, cut =
      C.assemble tree ~root:t.root ~avoid:(avoid_dist t) ~node:false
        ~base:(fun k -> Digraph.weight t.g k tree.Dijkstra.parent.(k))
    in
    let results =
      Array.init (n t) (fun src ->
          if src = t.root || not (Dijkstra.reachable tree src) then None
          else begin
            let path = Dijkstra.path_up tree src in
            let lcp_cost = Dijkstra.dist tree src in
            let first_link = Digraph.weight t.g src path.(1) in
            Some
              {
                src;
                path;
                lcp_cost;
                relay_cost = lcp_cost -. first_link;
                relays = relays.(src);
                payments = payments.(src);
              }
          end)
    in
    t.unbounded <- Array.to_list (C.relay_array cut);
    let batch =
      { root = t.root; to_root_dist = Array.copy tree.Dijkstra.dist; results }
    in
    t.last <- Some (version t, batch);
    batch
