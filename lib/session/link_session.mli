(** Incremental all-to-access-point payment sessions, link-cost model
    (Sec. III-F).

    An access point in the paper's model does not face one-shot
    instances: declared costs drift, nodes join and leave, and each
    topology delta invalidates only a sliver of the previous batch's
    work.  A session owns the mutable topology and every cache the
    batch payment engine builds from it:

    - the shared reversed-graph shortest-path tree (one Dijkstra),
    - the per-relay avoidance-distance arrays (one Dijkstra per relay —
      the expensive part),
    - a {!Wnet_par} domain pool and one Dijkstra scratch per domain,
      alive across requests.

    The delta API ({!set_cost}, {!add_node}, {!remove_node}) updates
    the graph in place and the caches follow by {e dynamic SSSP repair}
    ({!Wnet_graph.Dynamic_sssp}): after each coalesced burst the shared
    tree and every exact avoidance array are {e patched} over the
    edit's affected region — typically a tiny bounded-frontier Dijkstra,
    fanned out across the {!Wnet_par} pool — instead of being dropped
    and recomputed whole.  Entries whose region exceeds the repair
    budget (or whose parents hit a bit-equal tie, for the tree) fall
    back to a from-scratch run.  Cache misses are filled by the
    subtree-bounded kernel ({!Wnet_graph.Avoid_region}), which falls
    back to a full-graph CSR Dijkstra when a relay's subtree outgrows
    its budget.

    {b Determinism contract:} after any edit sequence, {!payments} is
    bit-identical ([Float.equal], including [infinity] payments for
    cut-vertex relays and identical paths) to a from-scratch batch on
    the edited graph.  The oracle lives in the test suite
    ([test/oracle.ml]): a clone-per-relay batch that shares no code with
    the session.  The qcheck suite drives random edit, churn, join and
    rejoin sequences against it at pool sizes 1 and 3. *)

type t

type outcome = {
  src : int;
  path : Wnet_graph.Path.t;  (** [src; ...; root] *)
  lcp_cost : float;  (** full directed path cost *)
  relay_cost : float;  (** [lcp_cost] minus the source's first link *)
  relays : int array;
      (** the relays on [path] (every node but [src] and the root), in
          strictly ascending id order *)
  payments : float array;
      (** [payments.(i)] is the VCG payment to [relays.(i)];
          [infinity] marks a cut-vertex (monopoly) relay.  Every other
          node is paid nothing and has no entry, so an outcome costs
          O(|path|), not O(n).  Ascending ids make the left-to-right
          sum of [payments] bit-identical to the index-order sum of the
          dense per-node vector: the entries skipped are all [+0.0],
          and a sum that starts at [+0.0] is never [-0.0], the one
          value that adding [+0.0] would change. *)
}

type batch = {
  root : int;
  to_root_dist : float array;
  results : outcome option array;
      (** per source; [None] for the root and disconnected nodes *)
}

type stats = {
  edits : int;  (** delta operations applied *)
  coalesced_edits : int;
      (** cost edits whose cache invalidation was deferred and folded
          into a shared flush pass (every buffered edit counts, so a
          [k]-edit burst adds [k] here and 1 to [inval_passes]) *)
  inval_passes : int;
      (** passes over the avoidance-cache array: one per {!flush} with a
          non-empty net burst, one per join/leave/rejoin *)
  spt_runs : int;  (** shared-tree Dijkstras (initial build + fallbacks) *)
  avoid_runs : int;  (** avoidance Dijkstras actually run *)
  avoid_reused : int;  (** relay results served from cache *)
  repaired_entries : int;
      (** cache structures (shared tree or avoidance array) patched in
          place by dynamic SSSP repair instead of recomputed *)
  fallback_recomputes : int;
      (** repair attempts that bailed to a from-scratch run: oversized
          affected region, or a bit-equal tie that could flip a tree
          parent *)
  tasks_executed : int;
      (** units of work run through the pool's work-stealing scheduler
          (avoidance Dijkstras and in-place repairs, inline fallbacks
          included) *)
  tasks_stolen : int;
      (** the subset executed by a domain other than the one that queued
          them — nonzero only when stealing actually rebalanced load *)
  avoid_bounded : int;
      (** cache-miss fills served by the subtree-bounded region kernel
          (exterior distances copied from the shared tree, only the
          relay's SPT subtree recomputed) *)
  avoid_fallback : int;
      (** bounded fills whose region outgrew the budget and fell back to
          a full-graph CSR Dijkstra *)
}

val create :
  ?pool:Wnet_par.t ->
  ?copy:bool ->
  Wnet_graph.Digraph.t ->
  root:int ->
  t
(** [create g ~root] opens a session on [g].  With [~copy:true] (the
    default) the session deep-copies [g] and later edits never touch the
    caller's graph; [~copy:false] borrows it — the caller must neither
    mutate nor rely on it afterwards (used by the one-shot wrappers).
    [?pool] (default {!Wnet_par.sequential}) fans avoidance Dijkstras
    out over domains; every pool size yields bit-identical payments.
    @raise Invalid_argument if [root] is out of range. *)

val n : t -> int
val root : t -> int

val cost : t -> int -> int -> float
(** Current declared cost of a link, [infinity] when absent. *)

val version : t -> int
(** The underlying graph's version stamp; bumps on every edit. *)

val snapshot : t -> Wnet_graph.Digraph.t
(** A fresh immutable copy of the current topology — what a
    from-scratch oracle should be run on. *)

val set_cost : t -> int -> int -> float -> unit
(** [set_cost s u v w] sets the declared cost of link [u -> v]:
    update, insert, or remove ([w = infinity]).  The graph mutates
    immediately, but cache maintenance is {e deferred}: a burst of cost
    edits arriving before the next {!payments} (or structural delta) is
    coalesced into one {!flush} pass that repairs the shared tree and
    each exact avoidance cache against the burst's net link changes —
    one bounded repair per structure per burst, instead of one scan (or
    recompute) per edit.  Edits reverted within a burst cancel out
    entirely.
    @raise Invalid_argument as {!Wnet_graph.Digraph.set_weight}. *)

val flush : t -> unit
(** Fold the cost edits buffered since the last flush into one
    invalidation pass over the avoidance caches, now.  Called
    automatically by {!payments} and by the structural deltas
    ({!add_node}, {!remove_node}, {!rejoin_node}); calling it after
    every edit reproduces the old eager per-edit scans (what the bench's
    one-at-a-time baseline does).  A no-op when nothing is buffered. *)

val add_node :
  t -> out:(int * float) list -> inn:(int * float) list -> int
(** [add_node s ~out ~inn] joins a new node with declared out-links
    [out = (target, cost)] and in-links [inn = (source, cost)], and
    returns its identifier.  Surviving avoidance caches are patched
    with the newcomer's distance (a Bellman step over [out]) instead of
    being recomputed.
    @raise Invalid_argument on invalid endpoints or weights. *)

val remove_node : t -> int -> unit
(** [remove_node s v] detaches every link incident to [v] — the paper's
    node-leave.  The identifier remains valid (isolated), so ids are
    stable; the node may rejoin via {!rejoin_node}.
    @raise Invalid_argument when [v] is the root or out of range. *)

val rejoin_node :
  t -> int -> out:(int * float) list -> inn:(int * float) list -> unit
(** [rejoin_node s v ~out ~inn] re-attaches an isolated node (one that
    {!remove_node} detached, or that joined linkless) under its existing
    identifier — the node-rejoin half of churn.  Surviving caches are
    patched with the rejoiner's Bellman-step distance exactly as in
    {!add_node}; inserting the links one by one through {!set_cost}
    would instead invalidate every cache, because each insert makes the
    node's own distance change from [infinity].
    @raise Invalid_argument when [v] is the root, out of range, or not
    isolated, or on invalid endpoints or weights. *)

val payments : t -> batch
(** The all-to-root batch for the current topology.  Recomputes the
    shared tree if any edit occurred, runs avoidance Dijkstras only for
    relays whose cache is missing or invalidated (fanned out over the
    pool, through the session's per-domain scratches), and memoizes the
    batch until the next edit. *)

val fill_caches : t -> Wnet_graph.Dijkstra.tree
(** The shared step of {!payments}, for adapters that assemble their
    own payments from the caches ({!Node_session}): {!flush}, bring the
    shared reversed tree up to date, and fill the avoidance array of
    every relay (internal tree node).  Returns the shared tree, valid
    until the next edit; treat it as read-only. *)

val avoid_dist : t -> int -> float array
(** [avoid_dist s k] is relay [k]'s cached root-side distances over the
    reversed graph with [k] forbidden, as of the last {!fill_caches}
    (or {!payments}).  Read-only, valid until the next edit.
    @raise Invalid_argument when [k] has no fresh cache entry. *)

val unbounded_relays : t -> int list
(** Cut-vertex relays as of the last {!payments} call: relays whose
    removal disconnects some served source from the root, making their
    VCG payment unbounded (Sec. III-G).  Tracked from the cached
    avoidance arrays — no extra graph traversal.  Sorted ascending. *)

val stats : t -> stats
(** Cumulative work counters — the incremental-vs-batch ledger. *)

val region_histogram : t -> (int * int) list
(** Histogram of bounded-region sizes over every successful repair
    (shared tree and avoidance entries alike) and every
    subtree-bounded cache-miss fill, as [(class lower bound, count)]
    pairs with power-of-two size classes [{0}, {1}, [2,4), [4,8), ...]
    — ascending, zero-count classes omitted. *)
