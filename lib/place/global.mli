(** Recursive min-cut global placement: FM bipartitioning alternating
    vertical/horizontal cutlines down to small bins, then spreading each
    bin's cells inside its region.  Produces the detailed-placement seed the
    annealer refines — together they substitute for the paper's Dolphin
    physical synthesis. *)

val place : seed:int -> Placement.t -> unit
(** Mutates the placement's cell coordinates.  A region of 8 cells or
    fewer stops splitting.  A region whose bisection leaves one side empty
    (a cell heavier than the balance slack can make that FM's zero-cut
    optimum) is spread as a leaf bin too. *)
