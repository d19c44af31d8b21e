(** Per-stage cache-key construction — the one place that decides which
    flow inputs reach which stage's digest.

    {!options} gathers every {!Flow.run} option that can affect a
    result.  Each builder destructures the {e full} record (no
    wildcard), so adding a field here refuses to compile until every
    stage has routed it into — or deliberately out of — its key; the
    same compile-breaking discipline covers {!Vpga_resil.Policy.t} and
    {!Vpga_resil.Defect.t}.

    Stage value types (one stage = one marshalled type, see
    {!Vpga_cache.Key}): netlists for [map]/[compact]/[buffer], [unit]
    for the verify gates, coordinate arrays for the placement stages,
    the activity array for [power:activities],
    [(Pathfinder.result, vias)] for the route stages, [Quadrisect.t]
    for the packing stages, [(tile_of_node, x, y)] for [pack:refine]
    and [(Pathfinder.result, Detail.t option)] for [minchan:probe].
    Every entry also carries the recovery-event suffix recorded during
    its compute, replayed on hit. *)

type options = {
  seed : int;
  period : float;
  anneal_iterations : int option;
  use_criticality : bool;
  verify : int;  (** 0 = Off, 1 = Fast, 2 = Formal *)
  policy : Vpga_resil.Policy.t;
  defect : Vpga_resil.Defect.t option;
      (** normalized: [None] for the empty map *)
}

val policy : Vpga_cache.Enc.t -> Vpga_resil.Policy.t -> unit
val defect : Vpga_cache.Enc.t -> Vpga_resil.Defect.t -> unit

val placement_hex : Vpga_place.Placement.t -> string
(** Digest of the die dims and coordinate arrays (not the graph: that is
    covered by the buffered netlist's digest). *)

val quad_hex : Vpga_pack.Quadrisect.t -> string
(** Digest of the array dims and tile assignment. *)

(** {2 Stage keys}

    String arguments are upstream artifact digests
    ({!Vpga_cache.Key.netlist_hex} / {!Vpga_cache.Key.arch_hex} /
    {!placement_hex} / {!quad_hex}), computed once by the caller. *)

val map : nl:string -> arch:string -> options -> Vpga_cache.Key.t
val compact : nl:string -> arch:string -> options -> Vpga_cache.Key.t
val buffer : compacted:string -> max_fanout:int -> options -> Vpga_cache.Key.t

val verify_gate :
  stage:string -> source:string -> candidate:string -> options ->
  Vpga_cache.Key.t
(** Keys a front-end equivalence gate ([verify:techmap] /
    [verify:compact] / [verify:buffer]) on both endpoints, the verify
    level and the policy's conflict budgets. *)

val place_global : buffered:string -> options -> Vpga_cache.Key.t
(** Deliberately defect-free: the healthy front-end is shared across
    defect maps (the stress sweep's compute-once invariant). *)

val place_anneal : buffered:string -> pl:string -> options -> Vpga_cache.Key.t
val activities : buffered:string -> options -> Vpga_cache.Key.t

val route :
  tag:string -> buffered:string -> pl:string -> options -> Vpga_cache.Key.t
(** [tag] is ["a"] or ["b"]; covers the whole escalation ladder
    including detailed routing and its verify gates. *)

val quadrisect :
  arch:string -> buffered:string -> pl:string -> options -> Vpga_cache.Key.t

val refine : buffered:string -> q:string -> options -> Vpga_cache.Key.t

val stress_pack :
  arch:string -> buffered:string -> pl:string -> options -> Vpga_cache.Key.t
(** {!Minchan}'s criticality-free legalization — its own stage name
    because its compute differs from [pack:quadrisect]. *)

val minchan_probe :
  plb:string -> w:int -> max_iterations:int -> options -> Vpga_cache.Key.t
