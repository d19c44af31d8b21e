(** Timing-aware simulated-annealing detailed placement.

    Refines a global placement by random cell displacements and swaps under a
    geometric cooling schedule.  The cost is total HPWL, with nets on
    timing-critical paths weighted up when a criticality map is supplied
    (the "cost function [that] takes into consideration the criticality of
    the cells" of the paper's packing/physical-synthesis loop).

    The cost model, its incremental bookkeeping, the Metropolis test and
    the cooling schedule are {!Wirecost}'s, shared with the packing
    refiner; this module only proposes moves.  A swap's touched nets are
    summed in registration order ({!Wirecost.touch_pair_registered}): the
    first mover's nets, then the second mover's new ones.  That order
    fixes the float rounding of every delta, so it is what keeps the
    walk's accept/reject sequence, and the final placement, unchanged. *)

type stats = { initial_cost : float; final_cost : float; moves : int; accepted : int }

val refine :
  ?iterations:int ->
  ?t_start:float ->
  ?criticality:float array ->
  seed:int ->
  Placement.t ->
  stats
(** Mutates cell coordinates.  [iterations] defaults to [100 * cells];
    a positive [t_start] overrides the derived start temperature (the
    schedule always ends at [t_start / 1000]); [criticality] is a per-node
    weight in [0,1] (nets driven by critical nodes cost more).
    Deterministic for a fixed seed. *)
