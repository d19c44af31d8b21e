(** Global maze routing of one net: multi-source Dijkstra tree growth
    under PathFinder's congestion-aware edge costs.

    The tree starts at the lowest pin bin.  Each step runs Dijkstra from
    every tree bin at once, stops at the first remaining pin bin it
    settles, and back-traces that path into the tree; this repeats until
    every pin is connected.  An edge costs its length (over the longer
    bin side) x (1 + history) x congestion, where congestion is 1 below
    the edge's usable capacity and 1 + (overuse + 1) x [pres_fac] at or
    above it; a dead edge costs its length x 1e15.

    Routes are stable because the frontier pops in (cost, bin) order,
    a total order, and no (cost, bin) entry is pushed twice: any
    frontier structure with that order yields the same routes.  Changing
    the order, or adding an A* bound, changes routes and is a declared
    QoR change (the bounded A* router planned in ROADMAP.md is one).

    The search allocates only the returned list.  Its distance,
    predecessor, tree and pin tables and its heap are per-domain scratch
    ([Domain.DLS]), grown on demand and invalidated by a generation stamp
    rather than refilled.  A call runs to completion on its own domain
    and never re-enters the router, so one scratch per domain is safe. *)

type route = {
  net : int array;  (** netlist node ids (driver first) *)
  edges : int list;  (** grid edge indices used *)
  wirelength : float;  (** um *)
}

val route_net :
  Grid.t -> pres_fac:float -> pins:int list -> int list option
(** Route a single net over the given pin bins, which must be strictly
    ascending (sorted, no duplicates; callers normalize with
    [List.sort_uniq Int.compare]); returns the edges used (empty for a
    single pin), or [None] if disconnected (cannot happen on a grid).
    Updates no usage — caller commits.
    @raise Invalid_argument on an empty, unsorted or duplicated list, or a
    pin outside the grid. *)

val commit : Grid.t -> int list -> unit
val uncommit : Grid.t -> int list -> unit

val wirelength_of : Grid.t -> int list -> float
