open Wnet_graph

type outcome = {
  src : int;
  path : Path.t;
  lcp_cost : float;
  relays : int array;
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

module LS = Link_session

(* The node model on the link engine: [ls] runs over
   [Digraph.of_node_costs], where every arc into [x] weighs [x]'s relay
   cost (0 into the root), so its reversed tree and avoidance caches are
   bit-identical to node-weighted Dijkstra runs.  The adapter keeps the
   [Graph.t] for [graph]/[cost] and the payment association, and counts
   edits per node rather than per arc. *)
type t = {
  ls : LS.t;
  mutable g : Graph.t;
  mutable version : int;
  mutable edits : int;
  mutable coalesced_edits : int;
  mutable pending_edits : int;  (* node edits buffered since the last flush *)
  mutable unbounded : int list;
  mutable last : (int * outcome option array) option;
}

let create ?pool g ~root =
  if root < 0 || root >= Graph.n g then
    invalid_arg "Node_session.create: root out of range";
  {
    ls = LS.create ?pool ~copy:false (Digraph.of_node_costs g ~root) ~root;
    g;
    version = 0;
    edits = 0;
    coalesced_edits = 0;
    pending_edits = 0;
    unbounded = [];
    last = None;
  }

let n t = Graph.n t.g
let root t = LS.root t.ls
let cost t v = Graph.cost t.g v
let graph t = t.g
let version t = t.version
let stats t =
  { (LS.stats t.ls) with edits = t.edits; coalesced_edits = t.coalesced_edits }
let unbounded_relays t = t.unbounded
let region_histogram t = LS.region_histogram t.ls

let mark_edit t =
  t.version <- t.version + 1;
  t.edits <- t.edits + 1;
  t.last <- None

let flush t =
  t.coalesced_edits <- t.coalesced_edits + t.pending_edits;
  t.pending_edits <- 0;
  LS.flush t.ls

let set_cost t x c =
  if x < 0 || x >= n t then invalid_arg "Node_session.set_cost: out of range";
  if not (Float.equal (Graph.cost t.g x) c) then begin
    (* [with_cost] rejects a negative or non-finite cost before anything
       changes; an [infinity] would otherwise delete the arcs into [x] *)
    t.g <- Graph.with_cost t.g x c;
    mark_edit t;
    (* The root's cost weighs no arc: leaving the source is free and the
       root is never paid, so there is nothing to buffer. *)
    if x <> root t then begin
      t.pending_edits <- t.pending_edits + 1;
      Array.iter (fun a -> LS.set_cost t.ls a x c) (Graph.neighbors t.g x)
    end
  end

let remove_node t x =
  if x < 0 || x >= n t then invalid_arg "Node_session.remove_node: out of range";
  if x = root t then invalid_arg "Node_session.remove_node: cannot remove the root";
  flush t;
  LS.remove_node t.ls x;
  t.g <- Graph.remove_node t.g x;
  mark_edit t

(* Same tree and caches as the link batch; only the assembly differs:
   the node model pays relay [k] its declared cost plus the avoidance
   detour, associated as [cost k +. avoid_k -. lcp]. *)
let payments t =
  match t.last with
  | Some (v, results) when v = t.version -> results
  | _ ->
    flush t;
    let tree = LS.fill_caches t.ls in
    let relays, payments, cut =
      Engine_common.assemble tree ~root:(root t) ~avoid:(LS.avoid_dist t.ls)
        ~node:true ~base:(Graph.cost t.g)
    in
    let results =
      Array.init (n t) (fun src ->
          if src = root t || not (Dijkstra.reachable tree src) then None
          else
            Some
              {
                src;
                path = Dijkstra.path_up tree src;
                lcp_cost = Dijkstra.dist tree src;
                relays = relays.(src);
                payments = payments.(src);
              })
    in
    t.unbounded <- Array.to_list (Engine_common.relay_array cut);
    t.last <- Some (t.version, results);
    results

(* The payments table reshaped the way the distributed protocols report
   it: per source, a (relay, payment) assoc sorted by relay id — the
   outcome's own order.  Used as the oracle side of the dsim
   cross-check. *)
let relay_tables t =
  Array.map
    (function
      | None -> []
      | Some o ->
        Array.to_list (Array.map2 (fun k p -> (k, p)) o.relays o.payments))
    (payments t)
