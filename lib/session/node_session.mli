(** Incremental all-to-access-point payment sessions, node-cost model
    (Sec. II — the paper's primary model).

    The node model is the link model (Sec. III-F) in which every node
    charges the same cost towards each neighbour, so this session runs
    on the link engine: a {!Link_session} over
    {!Wnet_graph.Digraph.of_node_costs}, where each arc into [x] weighs
    [x]'s relay cost and arcs into the access point weigh [0.0].  The
    engine's reversed-graph searches then relax exactly
    [dist u +. cost u], over neighbours in the same order, so its tree,
    tie order and avoidance arrays are bit-identical to node-weighted
    Dijkstra runs.  A cost edit on [x] becomes deg([x]) in-place arc
    writes, coalesced and repaired like any link burst: the shared tree
    and every exact avoidance array are patched over the affected
    region, falling back to a from-scratch run when the region exceeds
    the budget (or a bit-equal tie could flip a tree parent).  Cache
    misses are filled by the subtree-bounded kernel.  Only the payment
    assembly is the node model's own ([cost k +. avoid_k -. lcp]).

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
  relays : int array;
      (** the relays on [path], in strictly ascending id order *)
  payments : float array;
      (** [payments.(i)] is the VCG payment to [relays.(i)]; [infinity]
          marks a monopoly (cut-vertex) relay.  Sparse and ordered as in
          {!Link_session.outcome}, for the same reason: the
          left-to-right sum is bit-identical to the index-order sum of
          the dense per-node vector. *)
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
(** The link engine's work ledger, except that [edits] and
    [coalesced_edits] count node edits (one per effective {!set_cost} or
    {!remove_node}, whatever the node's degree).  [spt_runs] counts
    shared-tree builds and from-scratch fallbacks only — an edit burst
    normally patches the tree in place, which counts in
    [repaired_entries] with the patched avoidance arrays;
    [fallback_recomputes] counts repairs that bailed on an oversized
    region or a tie. *)

val create :
  ?pool:Wnet_par.t ->
  Wnet_graph.Graph.t ->
  root:int ->
  t
(** [create g ~root] opens a session on [g], building the node-weighted
    digraph and its reverse in O(n + m).  [Graph.t] is immutable, so the
    caller's graph is never affected.  [?pool] (default
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
    swaps and the weights of the arcs into [v] are rewritten
    immediately (none for the root, whose cost weighs nothing); the
    cache repair is deferred and coalesced — a burst of cost edits
    before the next {!payments} (or {!remove_node}) is folded into one
    {!flush} pass that repairs the shared tree and each cache against
    the burst's net changes.
    @raise Invalid_argument on a negative or non-finite cost, before
    anything changes. *)

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
    [None] for the root and disconnected sources.  The shared tree is
    patched in place after an edit burst; avoidance fills run only for
    relays whose cache is missing or invalidated, over the session's
    pool and per-domain scratches; memoized until the next edit. *)

val relay_tables : t -> (int * float) list array
(** {!payments} reshaped the way the distributed stage-2 protocol
    reports it: entry [src] is the [(relay, payment)] table of [src]'s
    unicast, in the outcome's ascending relay order; empty for the
    root, for sources adjacent to it and for disconnected sources.
    This is the oracle side of the dsim cross-check
    ([Wnet_dsim.Payment_protocol] outcomes compare against it entry for
    entry). *)

val unbounded_relays : t -> int list
(** Monopoly relays as of the last {!payments}: sorted, derived from
    the cached avoidance arrays. *)

val stats : t -> stats

val region_histogram : t -> (int * int) list
(** Histogram of bounded-region sizes (successful repairs and
    subtree-bounded cache-miss fills), same power-of-two size classes
    as {!Link_session.region_histogram}. *)
