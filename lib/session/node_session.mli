(** Incremental all-to-access-point payment sessions, node-cost model
    (Sec. II — the paper's primary model).

    The node-model sibling of {!Link_session}: a session owns the
    graph, the shared node-weighted shortest-path tree from the access
    point (node-weighted distances are symmetric, so from-root trees
    serve to-root queries), the per-relay avoidance-distance cache, a
    {!Wnet_par} pool and per-domain Dijkstra scratches.  Deltas are a
    node's declared cost changing ({!set_cost}) and a node leaving
    ({!remove_node}); each coalesced burst {e repairs} every exact
    [k]-avoiding array in place over its affected region
    ({!Wnet_graph.Dynamic_sssp.repair_node_dist}), falling back to a
    from-scratch rerun when the region exceeds the budget.  The shared
    node-weighted tree stays live-or-die (it is one Dijkstra per burst;
    the per-relay arrays are the expensive part).  Cache misses are
    filled by the subtree-bounded kernel ({!Wnet_graph.Avoid_region}),
    with a full-graph CSR Dijkstra as its budget-overflow fallback.

    {b Determinism contract:} {!payments} after any edit sequence is
    bit-identical ([Float.equal], identical paths) to a from-scratch
    batch on the edited graph.  The oracle lives in the test suite
    ([test/oracle.ml]): the node-weighted tree, a boxed forbidden-node
    Dijkstra per relay, and the payment formula — no session code. *)

type t

type outcome = {
  src : int;
  path : Wnet_graph.Path.t;  (** [src; ...; root] *)
  lcp_cost : float;  (** relay cost of the path *)
  payments : float array;
      (** per node; [infinity] marks a monopoly (cut-vertex) relay *)
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
(** The link engine's work ledger, counted the same way: [spt_runs]
    counts node-weighted tree reruns, [repaired_entries] avoidance
    arrays patched in place, [fallback_recomputes] repairs that bailed
    on an oversized region. *)

val create :
  ?pool:Wnet_par.t ->
  Wnet_graph.Graph.t ->
  root:int ->
  t
(** [create g ~root] opens a session on [g].  [Graph.t] is immutable,
    so the session shares the adjacency structure and swaps cost
    vectors; the caller's graph is never affected.  [?pool] (default
    {!Wnet_par.sequential}) fans avoidance work out over domains; every
    pool size yields bit-identical payments.
    @raise Invalid_argument if [root] is out of range. *)

val n : t -> int
val root : t -> int

val cost : t -> int -> float
(** Current declared relay cost of a node. *)

val graph : t -> Wnet_graph.Graph.t
(** The current topology (immutable value; safe to keep). *)

val version : t -> int
(** Bumps on every effective edit. *)

val set_cost : t -> int -> float -> unit
(** [set_cost s v c] re-declares node [v]'s relay cost.  The cost vector
    swaps immediately; the avoidance-cache invalidation is deferred and
    coalesced — a burst of cost edits before the next {!payments} (or
    {!remove_node}) is folded into one {!flush} pass over the cache
    array, testing each cache against the burst's net changes.
    @raise Invalid_argument on a negative or non-finite cost. *)

val flush : t -> unit
(** Apply the deferred invalidation for every buffered cost edit in one
    pass, now.  Called automatically by {!payments} and
    {!remove_node}; a no-op when nothing is buffered. *)

val remove_node : t -> int -> unit
(** [remove_node s v] isolates [v] (node leave; the identifier stays
    valid so ids are stable).
    @raise Invalid_argument when [v] is the root or out of range. *)

val payments : t -> outcome option array
(** The all-to-root batch on the current topology: entry [src] is
    [None] for the root and disconnected sources.  Shared tree
    recomputed only after an edit; avoidance Dijkstras run only for
    relays whose cache is missing or invalidated, over the session's
    pool and per-domain scratches; memoized until the next edit. *)

val relay_tables : t -> (int * float) list array
(** {!payments} reshaped the way the distributed stage-2 protocol
    reports it: entry [src] is the [(relay, payment)] table of [src]'s
    unicast, sorted by relay id; empty for the root, for sources
    adjacent to it and for disconnected sources.  This is the oracle
    side of the dsim cross-check ([Wnet_dsim.Payment_protocol]
    outcomes compare against it entry for entry). *)

val unbounded_relays : t -> int list
(** Monopoly relays as of the last {!payments}: sorted, derived from
    the cached avoidance arrays. *)

val stats : t -> stats

val region_histogram : t -> (int * int) list
(** Histogram of bounded-region sizes (successful repairs and
    subtree-bounded cache-miss fills), same power-of-two size classes
    as {!Link_session.region_histogram}. *)
