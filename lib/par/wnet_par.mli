(** A fixed-size domain pool for deterministic data parallelism.

    The batch payment engine fans the per-relay avoidance Dijkstras and
    the per-instance experiment loops out over OCaml 5 domains.  Every
    combinator runs through one work-stealing scheduler: each index is
    one task, every participant seeds its own bounded Chase–Lev deque
    with a contiguous chunk (so the uniform case keeps chunked locality),
    and idle participants steal the stragglers.  Results are merged
    {e positionally}, so every combinator returns exactly what its
    sequential loop would — float for float, bit for bit — as long as
    the per-element function is itself deterministic; only the execution
    order, and which scratch state computes which element, depends on
    scheduling.  Determinism is the contract the mechanism experiments
    rely on (a sweep must reproduce from its seed regardless of how many
    domains ran it).

    Built on [Domain], [Atomic], [Mutex] and [Condition] from the
    standard library only; no external dependencies.

    A pool of size 1 spawns no domains and runs everything inline in the
    caller, so sequential code pays nothing for the abstraction.

    Pools are {e single-owner}: only one {e top-level} call may be in
    flight at a time.  A call made from inside a running task on the
    same pool nests: its tasks go on the calling participant's own
    deque, and the caller runs queued or stolen tasks until they are
    done. *)

type t
(** A pool of [size t] participants: the calling domain plus
    [size t - 1] worker domains. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] starts a pool with [domains] total participants
    ([domains - 1] spawned worker domains).  Defaults to
    {!default_domains}.  If a spawn fails part-way (other domains hold
    part of the runtime's limit), the workers already started are shut
    down before the exception is re-raised.
    @raise Invalid_argument if [domains] is outside [\[1, 128\]] (OCaml
    5.1's domain limit), before any domain is spawned. *)

val default_domains : unit -> int
(** Pool sizing policy: the [WNET_DOMAINS] environment variable when set
    (clamped to [\[1, 128\]]), otherwise
    [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [WNET_DOMAINS] is set but not a positive
    integer. *)

val size : t -> int

val sequential : t
(** A shared size-1 pool: every combinator degrades to its inline
    sequential loop.  The default for all [?pool] arguments downstream. *)

val shutdown : t -> unit
(** Stops and joins the worker domains.  Idempotent; the pool must not
    be used afterwards.  [sequential] pools have nothing to stop. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for pool ~lo ~hi body] runs [body i] for every
    [i ∈ \[lo, hi)], one task per index.  Iterations must be
    independent (they may write to disjoint locations of shared arrays).
    This drives the per-round node fan-out of the distributed simulation
    engine, where a few hub nodes can carry most of a round's inbox
    traffic.  If any [body] raises, one of the exceptions is re-raised
    in the caller after every index has run. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f a] is [Array.map f a], one task per element.
    Results are written positionally, so the output is identical for
    every pool size when [f] is deterministic.  Exceptions as in
    {!parallel_for}. *)

val map_array_pooled :
  t -> states:'s array -> ('s -> 'a -> 'b) -> 'a array -> 'b array
(** [map_array_pooled pool ~states f a] is {!map_array} with
    {e caller-owned} per-participant states: a task runs on
    [states.(slot)] of the participant executing it, so a long-running
    session can keep one scratch workspace per domain alive across
    requests.  Which state computes which element is
    scheduling-dependent, so [f]'s result must not depend on a state's
    prior contents; each state is used by one domain at a time.
    @raise Invalid_argument when fewer states than participants are
    supplied. *)

(** The bounded Chase–Lev deque under the scheduler, exposed for
    the per-primitive microbench suite ([bench/micro/bench_deque]) and
    anyone who wants the raw structure.  The scheduler's own usage
    contract applies: {!Deque.push}/{!Deque.pop} from the owning domain
    only, {!Deque.steal} from anywhere. *)
module Deque : sig
  type 'a t

  val create : int -> 'a t
  (** [create capacity] with [capacity] a power of two. *)

  val push : 'a t -> 'a -> bool
  (** Owner only.  [false] means full — run the element inline. *)

  val pop : 'a t -> 'a option
  (** Owner only.  Most recently pushed element (LIFO). *)

  val steal : 'a t -> 'a option
  (** Any domain.  Oldest element (FIFO); [None] on a lost race. *)
end

type stats = { tasks_executed : int; tasks_stolen : int }
(** Scheduler counters, cumulative over the pool's lifetime:
    [tasks_executed] counts every task run (a size-1 call counts its [n]
    elements; a larger map counts element 0, run by the caller, plus one
    per queued task), [tasks_stolen] the subset executed by a
    participant other than the one that queued them. *)

val stats : t -> stats
