(** K shortest loopless paths (Yen's algorithm), node-weighted.

    The paper explains Figure 3(d) through the {e second} shortest path:
    "for node closer to the source node, the second shortest path could
    be much larger than the shortest path, which in turn incurs large
    overpayment; for node far away ... the second shortest path has
    total cost almost the same".  This module lets the experiments test
    that explanation directly by measuring the gap between the best and
    second-best paths as a function of hop distance. *)

val k_shortest_paths :
  ?pool:Wnet_par.t -> Graph.t -> src:int -> dst:int -> k:int -> Path.t list
(** Up to [k] cheapest loopless paths, ordered by relay cost (ties
    broken by the deterministic spur construction); fewer if the graph
    has fewer simple paths.  Each round's spur-path Dijkstras are
    independent tasks fanned out over [pool] (default
    {!Wnet_par.sequential}) — safe to call from inside another task on
    the same pool — and the
    candidate merge is execution-order independent, so the result is
    identical at every pool size.
    @raise Invalid_argument if [k <= 0] or [src = dst] or out of
    range. *)

val second_best_gap :
  ?pool:Wnet_par.t -> Graph.t -> src:int -> dst:int -> float option
(** [(cost of 2nd best) - (cost of best)], [None] when fewer than two
    simple paths exist. *)
