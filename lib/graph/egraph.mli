(** Undirected edge-weighted graphs with first-class edge identities.

    This is the network model of Nisan–Ronen's mechanism (the paper's
    ref [8], reviewed in Sec. II-D): each {e edge} is a selfish agent
    whose private type is its transmission cost.  Edge identities matter
    because payments attach to edges, so parallel edges are collapsed to
    the cheapest and every edge gets a dense id [0 .. m-1]. *)

type t

val create : n:int -> edges:(int * int * float) list -> t
(** @raise Invalid_argument on out-of-range endpoints, self-loops, or
    negative/NaN weights.  Duplicate endpoints keep the cheapest
    weight. *)

val n : t -> int
val m : t -> int

val endpoints : t -> int -> int * int
(** [endpoints g e] with the smaller node first.
    @raise Invalid_argument on a bad edge id. *)

val weight : t -> int -> float
(** Weight of edge id [e]. *)

val weights : t -> float array
(** Copy of the weight vector, indexed by edge id — an edge-agent
    profile. *)

val weights_view : t -> float array
(** The live weight vector itself — zero-copy, do {e not} mutate.  The
    view the kernels hoist instead of paying {!weights}'s O(m) copy (or
    a {!weight} call) per relaxation. *)

(** {1 CSR view}

    The graph's only incidence store, flat for the kernel loops: the
    incidences of [v] are slots [row_off.(v) .. row_off.(v+1) - 1],
    neighbour in [ncol], edge id in [ecol], sorted by neighbour.  Built
    once (incidence is immutable); weight swaps share it. *)

type csr = {
  row_off : int array;  (** [n + 1] row offsets *)
  ncol : int array;  (** neighbour ids *)
  ecol : int array;  (** edge ids, parallel to [ncol] *)
}

val csr : t -> csr
(** [csr g] is the shared CSR view — do {e not} mutate. *)

val with_weights : t -> float array -> t
(** Replace all weights (declared profile).
    @raise Invalid_argument on length mismatch or invalid weight. *)

val with_weight : t -> int -> float -> t

val edge_between : t -> int -> int -> int option
(** Edge id joining two nodes, if any: a binary search of the CSR
    row. *)

val incident : t -> int -> (int * int) array
(** [incident g v] is a fresh array of [(neighbour, edge_id)] pairs,
    sorted by neighbour: a copy of [v]'s CSR row. *)

val fold_edges : (int -> int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g acc] calls [f u v edge_id weight] once per edge with
    [u < v], in edge-id order. *)
