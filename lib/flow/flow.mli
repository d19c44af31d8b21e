(** The full Figure-6 design flow.

    Shared front-end: characterize (library) -> synthesize/map (AIG +
    technology mapping) -> regularity-driven compaction -> fanout buffering
    -> global + annealed detailed placement (criticality-driven).

    - {e Flow a} (the ASIC-style baseline): route and time the detailed
      placement directly; die area is cell area at standard-cell row
      utilization.
    - {e Flow b} (the VPGA flow): legalize by recursive quadrisection into
      the PLB array, snap to tiles, route over the array and time; die area
      is the PLB-array area. *)

type kind = Flow_a | Flow_b

type verify = Off | Fast | Formal
(** Verification level threaded through {!run}:

    - [Off] runs no checks at all (ablation / raw-speed benchmarking);
    - [Fast] (the default) lints the input ({!Vpga_verify.Lint.run}),
      checks structural well-formedness ({!Vpga_verify.Lint.structure})
      at every front-end stage boundary, gates each front-end stage with
      the randomized simulation equivalence check, and enforces the
      physical invariants (placement legality, PLB packing coverage and
      feasibility, the static region-ownership proof for the
      region-parallel refinement ([verify:regions],
      {!Vpga_analysis.Ownership.check} on the legalized packing at the
      refiner's region grid, run whenever [refine] is on), routing
      connectivity and capacity, detailed-track consistency);
    - [Formal] additionally {e proves} each front-end stage equivalent to
      the source netlist with the SAT-based combinational equivalence
      checker in {!Vpga_verify.Cec}. *)

type outcome = {
  design : string;
  arch : Vpga_plb.Arch.t;
  kind : kind;
  die_area : float;  (** um^2 *)
  cell_area : float;  (** sum of component/configuration areas, um^2 *)
  gate_count : float;  (** NAND2 equivalents of the source design *)
  avg_top10_slack : float;  (** ps, the paper's Table-2 metric *)
  wns : float;
  wirelength : float;  (** um *)
  array_dims : (int * int) option;  (** flow b: PLB array cols x rows *)
  tiles_used : int;
  compaction_gain : float;  (** fractional gate-area saving of compaction *)
  config_histogram : (Vpga_plb.Config.t * int) list;
  displacement : float;  (** flow b: legalization perturbation, um *)
  displacement_tiles : float;
      (** flow b: mean per-item perturbation in tile units *)
  power_uw : float;
      (** total (dynamic + leakage) power estimate at the target period, uW *)
  routed_vias : int;
      (** vias used by the detailed (track-assignment) routing *)
}

type pair = { a : outcome; b : outcome }

val period : float
(** The target clock period, 500 ps (the paper's 0.5 ns): STA, slack,
    criticality and the power estimate are all taken against it. *)

val run :
  ?seed:int ->
  ?anneal_iterations:int ->
  ?refine:bool ->
  ?use_criticality:bool ->
  ?jobs:int ->
  ?verify:verify ->
  ?policy:Vpga_resil.Policy.t ->
  ?log:Vpga_resil.Log.t ->
  ?trace:Vpga_obs.Trace.t ->
  ?trace_labels:bool ->
  ?cache:Vpga_cache.Cache.t ->
  Vpga_plb.Arch.t ->
  Vpga_netlist.Netlist.t ->
  pair
(** Runs both flows on a design, sharing the front-end, at {!period};
    flow a places at
    {!Vpga_place.Placement.create}'s standard-cell row utilization (0.7);
    [seed] (1) drives every randomized stage deterministically.  [refine] (true) enables the packing <->
    physical-synthesis iteration; [use_criticality] (true) enables
    timing-criticality weighting in placement and packing — both exist for
    the ablation benches.  [jobs] (default 1) bounds the worker domains
    the region-parallel refinement may use; the region grid itself is a
    fixed function of the PLB array dims, so results are identical at
    every [jobs] setting.  [verify] (default {!Fast}) selects the
    verification level; see {!type-verify}.

    [policy] (default {!Vpga_resil.Policy.default}) controls what happens
    when a heuristic stage fails: global/detailed routing retries with
    escalated channel capacity and rip-up budget, and a diverging anneal
    restarts with a derived reseed at a cooler temperature.
    Legalization and the equivalence gates read no policy: quadrisection
    grows its own PLB array until the design fits (an unfittable design
    fails the stage at once), and a [Formal] proof is one unbounded
    {!Vpga_verify.Cec.check} whose counterexample fails the stage.  Every retry's knobs
    and reseeds derive from the policy and the attempt index alone, so a
    retried flow remains deterministic.  Recovery events (retries,
    escalations, degradations) are recorded into [log] when supplied.

    [trace] (default {!Vpga_obs.Trace.null}, i.e. disabled) receives a
    hierarchical span per stage boundary (mapping, packing, placement,
    routing, timing, power and every verification gate), counter updates
    from the inner loops (annealer moves, PathFinder rip-up iterations,
    SAT conflicts/decisions/propagations, cut enumeration) via the
    ambient-trace mechanism, and the recovery log replayed as instant
    events on the same monotonic timeline.  Export with
    {!Vpga_obs.Export}.  A [null] trace reduces every probe to a single
    branch, and a traced run does exactly the work of an untraced one:
    observing a flow changes neither its result nor what it computes.
    [trace_labels] is ignored; it remains only for callers that still
    pass it and goes away with the next revision of this signature.

    The flow runs on the healthy fabric; manufacturing-defect maps
    ({!Vpga_resil.Defect}) enter through {!Minchan.search} alone.

    [cache] (default {!Vpga_cache.Cache.none}, i.e. disabled) memoizes
    every stage boundary content-addressed on the stage's actual inputs
    (netlist structural digest, architecture digest, seeds, policy,
    verify level — see {!Stagekey}): rerunning
    an identical (sub)flow replays stored artifacts instead of
    recomputing them, with byte-identical outcomes — the flow is
    deterministic, so a hit is exactly a rerun.  Recovery events
    recorded during a cached compute replay into [log] on a hit, and
    each hit marks the trace timeline with a [cache:hit] instant plus
    [cache.*] counters.  A shared cache is safe across worker domains.
    Cheap stages (STA, power estimates, structural and physical checks)
    stay live and double as per-run spot checks of revived artifacts.

    @raise Vpga_resil.Fail.Stage_failure when an enabled verification
    check finds a violation or a stage exhausts its retry policy; the
    payload carries the stage name, attempt count, diagnostics and the
    recovery-event trail.  A failed [verify:*] gate names its own span,
    makes one attempt and carries its checker's error diagnostics as the
    checker reported them (codes and node ids). *)

val check_equivalence :
  Vpga_netlist.Netlist.t -> Vpga_netlist.Netlist.t -> Vpga_verify.Diag.t list
(** Randomized equivalence gate used between flow stages: [[]] when the
    candidate passes.  The two netlists' PI/PO/flop counts are compared
    first; a changed interface is one [interface-changed] error naming both
    sets of counts, a simulation mismatch one [sim-mismatch] error naming
    the cycle and output. *)
