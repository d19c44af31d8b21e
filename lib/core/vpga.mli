(** Public facade of the VPGA granularity-exploration library.

    Re-exports the stable surface of every subsystem under one roof and
    provides the one-call entry points a downstream user needs:
    {!classify_functions} (the Section-2 Boolean analysis) and
    {!compare_architectures} (run a design through both PLBs and both
    flows).  One architecture is one {!Flow.run}.

    See DESIGN.md for the system inventory and EXPERIMENTS.md for the
    paper-reproduction results. *)

(** {1 Subsystems} *)

module Bfun = Vpga_logic.Bfun
module Gates = Vpga_logic.Gates
module S3 = Vpga_logic.S3
module Npn = Vpga_logic.Npn
module Kind = Vpga_netlist.Kind
module Netlist = Vpga_netlist.Netlist
module Levelize = Vpga_netlist.Levelize
module Simulate = Vpga_netlist.Simulate
module Equiv = Vpga_netlist.Equiv
module Stats = Vpga_netlist.Stats
module Cell = Vpga_cells.Cell
module Characterize = Vpga_cells.Characterize
module Library = Vpga_cells.Library
module Maxflow = Vpga_maxflow.Maxflow
module Aig = Vpga_aig.Aig
module Cut = Vpga_aig.Cut
module Flowmap = Vpga_mapper.Flowmap
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Packer = Vpga_plb.Packer
module Full_adder = Vpga_plb.Full_adder
module Placement = Vpga_place.Placement
module Global_place = Vpga_place.Global
module Anneal = Vpga_place.Anneal
module Buffering = Vpga_place.Buffering
module Quadrisect = Vpga_pack.Quadrisect
module Refine = Vpga_pack.Refine
module Grid = Vpga_route.Grid
module Router = Vpga_route.Router
module Pathfinder = Vpga_route.Pathfinder
module Detail = Vpga_route.Detail
module Sta = Vpga_timing.Sta
module Power = Vpga_timing.Power
module Wordgen = Vpga_designs.Wordgen
module Alu = Vpga_designs.Alu
module Fpu = Vpga_designs.Fpu
module Netswitch = Vpga_designs.Netswitch
module Firewire = Vpga_designs.Firewire
module Pool = Vpga_par.Pool

module Obs = Vpga_obs
(** Observability: monotonic spans, counter registry, Chrome-trace
    export ({!Vpga_obs.Trace}, {!Vpga_obs.Export}). *)

module Trace = Vpga_obs.Trace
module Flow = Vpga_flow.Flow
module Minchan = Vpga_flow.Minchan
module Experiments = Vpga_flow.Experiments
module Report = Vpga_flow.Report
module Export = Vpga_flow.Export
module Diag = Vpga_verify.Diag
module Lint = Vpga_verify.Lint

module Dataflow = Vpga_dataflow.Dataflow
(** Generic forward/backward fixed-point dataflow engine plus the shared
    graph traversals (Tarjan SCCs, cone reachability). *)

module Analysis = Vpga_analysis.Analysis
(** Static-analysis pass manager: constant propagation, X-propagation,
    structural redundancy, fanout/depth shape, CEC-gated simplification. *)

module Ternary = Vpga_analysis.Ternary
module Constprop = Vpga_analysis.Constprop
module Xprop = Vpga_analysis.Xprop
module Redund = Vpga_analysis.Redund
module Fanout_analysis = Vpga_analysis.Fanout
module Simplify = Vpga_analysis.Simplify

module Ownership = Vpga_analysis.Ownership
(** Static region-ownership sanitizer for region-parallel refinement. *)

module Sat = Vpga_verify.Sat
module Cnf = Vpga_verify.Cnf
module Sweep = Vpga_verify.Sweep
module Cec = Vpga_verify.Cec
module Phys = Vpga_verify.Phys
module Fail = Vpga_resil.Fail
module Policy = Vpga_resil.Policy
module Recovery = Vpga_resil.Log
module Retry = Vpga_resil.Retry
module Inject = Vpga_resil.Inject
module Defect = Vpga_resil.Defect

module Cache = Vpga_cache.Cache
(** Content-addressed stage cache: memoizes flow stage boundaries on
    canonical input digests ({!Stagekey}); share one across sweeps to
    skip repeated work with byte-identical outcomes. *)

module Cachekey = Vpga_cache.Key
module Cacheenc = Vpga_cache.Enc
module Stagekey = Vpga_flow.Stagekey

(** {1 One-call entry points} *)

val classify_functions : unit -> S3.census
(** Exhaustive Section-2.1 classification of the 256 3-input functions. *)

val compare_architectures :
  ?seed:int -> ?period:float -> ?verify:Flow.verify -> Netlist.t ->
  Flow.pair * Flow.pair
(** [(lut, granular)] flow pairs for a design. *)
