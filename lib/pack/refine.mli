(** Post-legalization refinement: the paper's iterative loop between the
    packing step and physical synthesis ("the packing algorithm [runs] in an
    iterative loop with the physical synthesis tool Dolphin ... It ensures
    that the performance degradation due to legalizing the ASIC-style
    placement is minimal").

    Simulated annealing over tile assignments: single-item moves to nearby
    tiles and item swaps, accepted only when the destination tiles remain
    feasible ({!Vpga_plb.Packer.fits}), minimizing criticality-weighted
    half-perimeter wirelength.  Mutates the quadrisection result and the
    snapped placement coordinates in place.

    The cost model, its incremental bookkeeping, the Metropolis test and
    the cooling schedule are {!Vpga_place.Wirecost}'s, shared with
    detailed placement ({!Vpga_place.Anneal}); this module proposes tile
    moves and answers occupancy.  A swap's touched nets are summed in
    ascending net order ({!Vpga_place.Wirecost.touch_pair_ascending}),
    not the annealer's registration order: the order fixes the float
    rounding of every delta, so keeping it keeps every walk unchanged.

    With [regions > 1] the die is cut into a [regions x regions] grid
    ({!Quadrisect.region_bounds}); each region anneals its own items
    (ownership by current tile, so walks are conflict-free) on a private
    bookkeeping slice with an RNG stream derived from [(seed, region)],
    fanned out over [jobs] domains by {!Vpga_par.Pool.run}, then a sequential
    cross-boundary pass with the original seed restores inter-region
    moves.  Results are identical at every [jobs] setting. *)

type stats = {
  moves : int;
  accepted : int;
  initial_cost : float;
  final_cost : float;
  region_moves : int;  (** moves spent inside region walks *)
  boundary_moves : int;  (** moves spent in the cross-boundary pass *)
}

val radius : int
(** How far, in tiles along each axis, one move may go (4).  The static
    region-ownership proof ([Vpga_analysis.Ownership.check]) reads it. *)

exception Infeasible of string
(** The initial packing violates per-tile feasibility — a stage
    precondition failure, adopted as a typed
    [Vpga_resil.Fail.Stage_failure] by the flow driver. *)

val run :
  ?iterations:int ->
  ?criticality:float array ->
  ?jobs:int ->
  ?regions:int ->
  seed:int ->
  Quadrisect.t ->
  Vpga_place.Placement.t ->
  stats
(** [run ~seed q pl] — [pl] must already be snapped to [q]'s tile grid;
    [iterations] defaults to [60 * packed items].  [regions] (default 1)
    selects the region grid; with one region no region walks run and the
    full-die pass takes every iteration: the sequential reference walk,
    bit-identical to the historical implementation.
    [jobs] (default 1) bounds the worker domains used for region walks;
    it affects wall time only, never results.

    Counters emitted on the ambient {!Vpga_obs.Trace}:
    [pack.fits_calls], [pack.fits_cache_hits], [refine.region_moves],
    [refine.boundary_moves] (single-region runs count every move as a
    region move).
    @raise Infeasible if the initial packing is infeasible. *)
