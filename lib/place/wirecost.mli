(** The incremental wirelength cost model shared by both annealers.

    The cost is criticality-weighted half-perimeter wirelength: net [e]
    costs [(1 + 3 * max crit over its pins) * hpwl e], and the total is
    the sum over {!Placement.nets_with_io}.  Detailed placement
    ({!Anneal.refine}) and post-legalization refinement
    ([Vpga_pack.Refine]) both minimise it through this module; each keeps
    only its own proposal generation.

    The model is split in two:
    - a {!model}, built once per run and never mutated afterwards, so
      region walks on worker domains can share it;
    - a per-walk {!state}: per-net costs, cached {!Placement.Bbox}
      records, the running total and the touched-net scratch.

    One proposal is: a [touch*] function names the movers {e before}
    the caller moves them (it records their old coordinates from the
    state's view), the caller writes the new coordinates into the view,
    then {!metropolis} prices the move and runs the acceptance test, and
    {!commit} applies an accepted move.  A rejected move is undone by the
    caller restoring the coordinates; the state needs no undo.  The path
    allocates no closure, and the movers' coordinates travel in a float
    array, never as boxed arguments. *)

type model

val model : ?criticality:float array -> Placement.t -> model
(** Nets, weights, ascending per-node incidence arrays, small-net flags
    (at most 4 pins: rescanned on every move instead of tracked by a
    cached bounding box) and scratch size for a placement's netlist.
    [criticality] is a per-node weight in [0, 1] (absent: every weight
    is 1). *)

val cost : model -> Placement.t -> float
(** Fresh weighted recomputation at the placement's coordinates, summed
    in net order. *)

type state

val state : model -> Placement.t -> state
(** A walk over [view]'s coordinate arrays (read, never written), with
    every net's cost computed at its current coordinates. *)

val total : state -> float
(** Running total: the initial cost plus every committed delta. *)

(** {2 Touched-net collection}

    Both swap orders are kept because the order in which the touched nets'
    changes are summed decides the float rounding, and with it which
    moves are accepted.  A net two movers share, or a node listed twice
    on one net, counts as multi-pin and is rescanned. *)

val touch : state -> int -> unit
(** One mover: its incident nets, ascending. *)

val touch_pair_registered : state -> int -> int -> unit
(** A swap of [a] and [b] in registration order: [a]'s nets, then [b]'s
    nets that [a] does not touch (the order {!Anneal.refine} sums in). *)

val touch_pair_ascending : state -> int -> int -> unit
(** A swap of [a] and [b] in ascending net order, the two-way merge of
    their incidence arrays (the order [Vpga_pack.Refine] sums in). *)

(** {2 Pricing and acceptance} *)

val delta : state -> float
(** Cost change of the touched proposal at the view's current (moved)
    coordinates.  A cached box shifts in O(1) unless the net is small,
    more than one of its pins moved, or {!Placement.Bbox.Rescan} fires;
    then the net is rescanned. *)

val metropolis : state -> Random.State.t -> bool
(** Prices the proposal as {!delta} does, then the Metropolis test
    [d <= 0 || u < exp (-d / max 1e-9 T)]: one [Random.State.float rng 1.0]
    draw, only when [d > 0]. *)

val commit : state -> unit
(** Accept the last priced proposal: boxes shift (or rebuild), the
    tentative per-net costs become current and the total moves by its
    delta. *)

(** {2 Cooling schedule} *)

val schedule : ?t_start:float -> state -> iterations:int -> unit
(** Geometric cooling over [iterations] steps from [t_start] to
    [t_start / 1000].  A non-positive or absent [t_start] derives
    [max 1 (total / nets)]. *)

val cool : state -> unit
(** One step: [T <- T * alpha]. *)

val temperature : state -> float
