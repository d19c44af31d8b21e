(** The paper's evaluation, experiment by experiment (see DESIGN.md's
    per-experiment index).  Everything returns plain data; {!Report} formats
    the tables. *)

module Config := Vpga_plb.Config

type scale = Test | Paper
(** [Test] builds small design instances (seconds); [Paper] builds
    paper-comparable ones (the bench default). *)

val designs : scale -> (string * Vpga_netlist.Netlist.t) list
(** ALU, Firewire, FPU, Network switch — the paper's four benchmarks. *)

type row = { name : string; lut : Flow.pair; granular : Flow.pair }

type task_report = {
  t_design : string;
  t_arch : Vpga_plb.Arch.t;
  t_result : (Flow.pair, Vpga_resil.Fail.t) result;
      (** the flow pair, or the typed failure that exhausted the policy *)
  t_recovery : Vpga_resil.Log.summary;
      (** retry/escalation/degradation counts for this task alone *)
  t_trace : Vpga_obs.Trace.t;
      (** this task's span/counter trace; {!Vpga_obs.Trace.null} unless
          the sweep ran with [~traced:true] *)
}

val task_seed : seed:int -> string -> Vpga_plb.Arch.t -> int
(** Per-task seed derived from the sweep seed and the task identity
    (design name, architecture name) alone — never from submission order
    or worker count — so any fan-out over tasks stays deterministic at
    every [jobs] setting.  {!Minchan.stress} reuses it so a design's
    placement is identical across defect rates. *)

val run_tasks :
  ?seed:int ->
  ?jobs:int ->
  ?verify:Flow.verify ->
  ?policy:Vpga_resil.Policy.t ->
  ?traced:bool ->
  ?cache:Vpga_cache.Cache.t ->
  ?designs:(string * Vpga_netlist.Netlist.t) list ->
  scale ->
  task_report list
(** The fault-isolated sweep: every (design, arch) flow run becomes a
    {!task_report}, so one task exhausting its retry policy yields a
    per-task failure record while the remaining tasks complete.  Reports
    come back in task order (designs x [lut; granular]).  [designs]
    overrides the benchmark list (fault-injection tests sweep corrupted
    designs alongside healthy ones).  Never raises for a task failure.

    With [~traced:true] (default false) each task gets its own
    {!Vpga_obs.Trace.t} — created on the worker domain, thread id = task
    index — returned in [t_trace]; merge them with
    {!Vpga_obs.Export.chrome} for one timeline of the whole sweep.
    Tracing changes neither results nor the work done: a traced task
    runs exactly the computation of an untraced one, and every recorded
    quantity derives from the task's own deterministic run.

    [verify] is forwarded to each {!Flow.run} (default {!Flow.Fast}).

    [cache] is forwarded to each {!Flow.run}: one
    {!Vpga_cache.Cache.t} shared by every task on every worker domain
    (the store is mutex-guarded), so stages repeated across tasks —
    or across whole sweeps — compute once.  Results are unchanged by
    construction: a hit replays the identical deterministic artifact. *)

val run_tasks_with_stats :
  ?seed:int ->
  ?jobs:int ->
  ?verify:Flow.verify ->
  ?policy:Vpga_resil.Policy.t ->
  ?traced:bool ->
  ?cache:Vpga_cache.Cache.t ->
  ?designs:(string * Vpga_netlist.Netlist.t) list ->
  scale ->
  task_report list * Vpga_par.Pool.stats
(** {!run_tasks}, also returning the worker pool's accounting
    ({!Vpga_par.Pool.type-stats}: tasks run, total queue wait, per-worker
    busy time) for the sweep. *)

val recovery : task_report list -> Vpga_resil.Log.summary
(** Aggregate recovery counters across a sweep's reports. *)

val rows : task_report list -> row list
(** Pair each design's two architecture reports into a table row.
    @raise Vpga_resil.Fail.Stage_failure the first per-task failure, in
    task order — for callers that cannot render a partial sweep. *)

val run_all :
  ?seed:int ->
  ?jobs:int ->
  ?verify:Flow.verify ->
  ?policy:Vpga_resil.Policy.t ->
  ?cache:Vpga_cache.Cache.t ->
  scale ->
  row list
(** [rows (run_tasks ...)]: both architectures through both flows on
    every design (Table 1 and Table 2 in one pass).  The eight
    (design, arch) flow runs execute on a pool of [jobs] worker domains
    ([Vpga_par.Pool]; default [Domain.recommended_domain_count () - 1],
    floor 1).  Results are independent of [jobs]: each run's RNG seed is
    derived from [(seed, design name, arch name)], so [~jobs:1] (fully
    sequential, no domain spawned) and [~jobs:n] return identical rows —
    including any policy-driven retries, whose knobs and reseeds are
    pure functions of the task seed and attempt index.  [verify] is
    passed to each {!Flow.run} (default {!Flow.Fast}). *)

(** Derived Section-3.2 claims, computed from the rows. *)
type headline = {
  datapath_area_reduction : float;
      (** mean flow-b die-area saving of granular vs LUT over the three
          datapath designs (paper: ~32 %) *)
  fpu_area_reduction : float;  (** paper: up to 40 % *)
  packing_overhead_reduction : float;
      (** mean reduction of the flow-a -> flow-b area overhead (paper:
          ~48 %) *)
  firewire_reversal : bool;
      (** granular flow-b die area exceeds LUT's on the flop-dominated
          design (paper: yes) *)
  slack_improvement : float;
      (** mean top-10 slack gain of granular over LUT, flow b (paper:
          ~18 %) *)
  degradation_reduction : float;
      (** mean reduction of flow-a -> flow-b slack degradation (paper:
          ~68 %; inverts on our substrate — see EXPERIMENTS.md) *)
  displacement_reduction : float;
      (** mean change of per-item legalization displacement (tile units),
          granular vs LUT.  Reported as data: on this substrate both
          architectures land near one tile of perturbation. *)
}

val headlines : row list -> headline

val s3_census : unit -> Vpga_logic.S3.census
(** E1/E2. *)

val full_adder_tiles : unit -> (string * int) list
(** E3: tiles needed per architecture. *)

val config_delays : unit -> (Config.t * float * float) list
(** E4: (configuration, delay at FO4-ish load, cell area). *)

val compaction_table : scale -> (string * string * float * float * float) list
(** E5: (design, arch, techmap area, compacted area, gain). *)

val config_distribution :
  row list -> (string * (Config.t * int) list) list
(** E9: per-design granular-PLB configuration histograms. *)

val firewire_remedy : ?seed:int -> scale -> (string * float * float) list
(** E10 (the paper's future-work claim, Section 3.2: the Firewire overhead
    "can be avoided by using a PLB with a greater ratio of Flip Flops to
    combinational logic elements"): flow-b die area and top-10 slack of the
    Firewire design on the LUT PLB, the granular PLB, and the 2-flop
    granular variant. *)

val ablation : ?seed:int -> scale -> (string * Flow.outcome) list
(** E11: flow-b outcomes for the granular ALU with the packing-refinement
    loop and the criticality weighting individually disabled (the design
    choices DESIGN.md calls out). *)

val via_table : ?seed:int -> scale -> (string * string * int) list
(** E13: programmed configuration-via sites per design and architecture —
    the VPGA's customization-cost unit ("the cost of higher granularity is
    significantly lower for the VPGA fabric", Section 1). *)

val routing_styles : ?seed:int -> scale -> (string * float * float) list
(** E14 (the paper's closing future-work item, Section 4: "exploring regular
    routing architectures for the VPGA fabric"): per design, the flow-b
    top-10 slack (ps) under ASIC-style custom routing vs switched regular
    routing, same topology (granular PLB). *)
