(** Minimum-channel-width search and the congestion-stress sweep.

    Per (design, architecture, defect map), {!search} binary-searches the
    smallest channel capacity [W_min] for which PathFinder converges
    ([Pathfinder.final_overflow = 0]) {e and} detailed track assignment
    succeeds, packing once and re-routing the same snapped placement at
    each probed capacity.  The probe count is O(log w_max): usable-track
    counts are monotone in the capacity ([Defect.tracks] exposes
    [ceil (keep * W)] tracks of a derated boundary and none of a dead
    one), so routability is monotone in [W].

    {!stress} sweeps (design x architecture x defect rate x seeded map)
    through {!search} on a deterministic task pool — defect-map seeds and
    search seeds derive from the task identity alone, so results are
    bit-identical at every [jobs] setting — and aggregates a
    routability-vs-area-vs-delay Pareto cell per (design, arch, rate):
    survival rate plus mean [W_min], wirelength, vias, worst slack and
    array area over the surviving maps. *)

type metrics = {
  wirelength : float;  (** um, at [W_min] *)
  vias : int;  (** detailed-routing vias at [W_min] *)
  wns : float;  (** ps, at [W_min] *)
}

type search_result = {
  w_min : int option;  (** [None]: unroutable even at [w_max] *)
  probes : int;  (** routing probes spent by the search *)
  array_cols : int;
  array_rows : int;
  array_area : float;  (** um^2 *)
  metrics : metrics option;  (** [Some] iff [w_min] is [Some] *)
}

val search :
  ?seed:int ->
  ?period:float ->
  ?policy:Vpga_resil.Policy.t ->
  ?w_max:int ->
  ?max_iterations:int ->
  ?log:Vpga_resil.Log.t ->
  ?trace:Vpga_obs.Trace.t ->
  ?defect:Vpga_resil.Defect.t ->
  ?cache:Vpga_cache.Cache.t ->
  Vpga_plb.Arch.t ->
  Vpga_netlist.Netlist.t ->
  search_result
(** Find the minimum routable channel capacity of one design on one
    architecture under one defect map.  The front-end (compact, buffer,
    place, legalize, snap) runs once; legalization reuses the policy's
    relaxation ladder and raises a typed failure when exhausted, so a
    sweep task that cannot even pack fails in isolation.  Probes are
    memoized per capacity and traced as [minchan:probe] spans with a
    [minchan.probes] counter.

    With [cache], the defect-independent front-end stages feed the same
    content-addressed keys {!Flow.run} builds (identical computes), so
    the sweep's defect maps share one front-end per (design, arch) and
    a stress sweep shares work with a paper sweep; the defect-dependent
    legalization and the routing probes key on the defect map's full
    fingerprint.  The [probes] count records {e requested} probes —
    identical whether the cache serves them or not.
    @raise Vpga_resil.Fail.Stage_failure when legalization exhausts the
    policy's relaxation ladder.
    @raise Invalid_argument when [w_max < 1]. *)

type point = {
  p_design : string;
  p_arch : Vpga_plb.Arch.t;
  p_rate : float;
  p_map_seed : int;  (** the defect map's generator seed *)
  p_defect : Vpga_resil.Defect.t;
  p_result : (search_result, Vpga_resil.Fail.t) result;
  p_trace : Vpga_obs.Trace.t;
}
(** One sweep task: a (design, arch, rate, map) combination with its
    search result or isolated failure. *)

type cell = {
  c_design : string;
  c_arch : string;
  c_rate : float;
  c_maps : int;
  c_survived : int;  (** maps with a [W_min <= w_max] *)
  c_w_min : float;  (** means over survivors; 0 when none survived *)
  c_wirelength : float;
  c_vias : float;
  c_wns : float;
  c_area : float;
}
(** One Pareto row: (design, arch, defect rate) with the survival count
    and mean metrics over the surviving maps. *)

type report = {
  r_seed : int;
  r_w_max : int;
  r_rates : float list;
  r_maps_per_rate : int;
  r_points : point list;
  r_cells : cell list;
}

val stress :
  ?seed:int ->
  ?jobs:int ->
  ?policy:Vpga_resil.Policy.t ->
  ?dist:Vpga_resil.Defect.dist ->
  ?rates:float list ->
  ?maps_per_rate:int ->
  ?w_max:int ->
  ?traced:bool ->
  ?cache:Vpga_cache.Cache.t ->
  ?designs:(string * Vpga_netlist.Netlist.t) list ->
  Experiments.scale ->
  report
(** Run the congestion-stress sweep: every design (of [designs] when
    given, else {!Experiments.designs} at [scale]) x both paper
    architectures x [rates] (default [[0.0; 0.02; 0.05; 0.10]]) x
    [maps_per_rate] (default 3; the defect-free rate always runs exactly
    one map) seeded defect maps of distribution [dist].  Tasks run on
    {!Vpga_par.Pool} under [jobs] domains; a task that fails (e.g. its
    relaxation ladder exhausts) is recorded as a non-survivor without
    disturbing its siblings.  [traced] attaches a per-task
    {!Vpga_obs.Trace} to each point. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable Pareto table (one row per {!cell}) followed by any
    isolated task failures. *)

val report_json : report -> Vpga_obs.Json.t
(** The report as the [robustness] block of [BENCH_sweep.json] (and the
    output of [vpga stress --json]): sweep parameters plus one object
    per Pareto {!cell}. *)
