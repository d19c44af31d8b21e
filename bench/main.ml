(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (at paper-comparable design sizes), then times the flow's
   kernels with Bechamel.  Writes BENCH_sweep.json (sweep wall-clock,
   worker count, per-kernel estimates) so successive revisions have a
   machine-readable perf trajectory.

     dune exec bench/main.exe -- [-jobs N] [-json FILE]

   The experiment tables correspond to DESIGN.md's per-experiment index:
   E1/E2 (S3 classification, Figure 2), E3 (full adder), E4 (configuration
   delay/area), E5 (compaction ablation), E6 (Table 1), E7 (Table 2),
   E8 (headline claims), E9 (configuration distribution), E10 (flop-rich
   PLB variant), E11 (flow ablations), E12 (power), E13 (vias), E14 (routing
   styles), E15 (defect stress: minimum channel width vs defect rate). *)

open Vpga_core.Vpga

let jobs = ref (Vpga_par.Pool.default_jobs ())
let json_path = ref "BENCH_sweep.json"
let perfdiff = ref false
let tolerance = ref 0.25

let set_jobs n =
  if n < 1 then
    raise (Arg.Bad (Printf.sprintf "-jobs expects a positive count, got %d" n));
  jobs := n

let set_tolerance f =
  if f <= 0.0 then
    raise (Arg.Bad (Printf.sprintf "-tolerance expects a positive fraction, got %g" f));
  tolerance := f

let () =
  Arg.parse
    [
      ("-jobs", Arg.Int set_jobs, "N  worker domains for the E6-E9 flow sweep");
      ("-json", Arg.Set_string json_path, "FILE  where to write the JSON record");
      ( "-perfdiff",
        Arg.Set perfdiff,
        "  skip the tables; re-run the kernels and diff against the \
         committed baseline, exiting nonzero on regression" );
      ( "-tolerance",
        Arg.Float set_tolerance,
        "FRAC  allowed fractional per-kernel slowdown for -perfdiff \
         (default 0.25)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe [-jobs N] [-json FILE] [-perfdiff [-tolerance FRAC]]"

let sweep_seconds = ref 0.0
let sweep_recovery = ref Recovery.zero
let sweep_stages : (string * float) list ref = ref []
let sweep_alloc : (string * (float * float * int)) list ref = ref []
let sweep_percentiles : (string * (int * float * float * float)) list ref =
  ref []
let robustness : Minchan.report option ref = ref None

(* E16, the stage cache: cold vs warm wall for the jobs=1 paper sweep
   (acceptance: warm well under half of cold), plus a load-generator run
   of mixed repeated/overlapping Test-scale requests with per-request
   latency percentiles split by cold (first occurrence) vs warm. *)
type cache_sweep = {
  cs_cold_s : float;
  cs_warm_s : float;
  cs_hits : int;
  cs_lookups : int;
  cs_identical : bool;
}

type cache_load = {
  cl_requests : int;
  cl_distinct : int;
  cl_hit_rate : float;
  cl_cold_ms : int * float * float * float;  (** count, p50, p90, p99 *)
  cl_warm_ms : int * float * float * float;
}

let cache_sweep : cache_sweep option ref = ref None
let cache_load : cache_load option ref = ref None

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let reproduce_tables () =
  section "E1/E2: S3 classification of 3-input functions (Figure 2)";
  Report.s3 Format.std_formatter ();
  section "E3: Full-adder packing (Section 2.2)";
  Report.full_adder Format.std_formatter ();
  section "E4: Logic-configuration delay and area (Section 2.3)";
  Report.config_delays Format.std_formatter ();
  section "E5: Regularity-driven compaction ablation (Section 3.1)";
  Report.compaction Format.std_formatter Experiments.Paper;
  section "E6-E9: Full evaluation (paper-scale designs, both PLBs, both flows)";
  let t0 = Unix.gettimeofday () in
  let reports, pstats =
    Experiments.run_tasks_with_stats ~seed:1 ~jobs:!jobs ~traced:true
      Experiments.Paper
  in
  sweep_seconds := Unix.gettimeofday () -. t0;
  sweep_recovery := Experiments.recovery reports;
  let traces = List.map (fun r -> r.Experiments.t_trace) reports in
  (* The pool's accounting becomes its own trace: stats gauges plus the
     per-task queue-wait histogram, so scheduling health lands in the
     percentile block below alongside the flow histograms. *)
  let pool_trace = Trace.create ~tid:(List.length reports) ~label:"pool" () in
  Pool.publish_stats pstats pool_trace;
  (* Per-stage wall time and GC allocation summed across the sweep's
     traces: where the sweep's seconds and words actually go, revision
     over revision. *)
  sweep_stages := Obs.Export.stage_totals traces;
  sweep_alloc := Obs.Export.stage_allocs traces;
  sweep_percentiles :=
    List.map
      (fun (name, h) ->
        ( name,
          ( Obs.Metrics.Histogram.count h,
            Obs.Metrics.Histogram.percentile h 50.0,
            Obs.Metrics.Histogram.percentile h 90.0,
            Obs.Metrics.Histogram.percentile h 99.0 ) ))
      (Obs.Export.merged_histograms (traces @ [ pool_trace ]));
  let rows = Experiments.rows reports in
  Format.printf
    "(flow sweep took %.1f s on %d worker domain%s; %d retried attempt(s), \
     %d escalation(s), %d degraded guarantee(s))@.@."
    !sweep_seconds !jobs
    (if !jobs = 1 then "" else "s")
    !sweep_recovery.Recovery.retries !sweep_recovery.Recovery.escalations
    !sweep_recovery.Recovery.degraded;
  Report.table1 Format.std_formatter rows;
  Format.printf "@.";
  Report.table2 Format.std_formatter rows;
  Format.printf "@.";
  Report.headlines Format.std_formatter (Experiments.headlines rows);
  Format.printf "@.";
  Report.config_distribution Format.std_formatter rows;
  section
    "E10: Domain-specific PLB exploration (flop-rich granular variant)";
  Report.firewire_remedy Format.std_formatter Experiments.Paper;
  section "E11: Flow ablations (refinement loop, criticality weighting)";
  Report.ablation Format.std_formatter Experiments.Paper;
  section "E12: Power comparison (flow b)";
  Report.power Format.std_formatter rows;
  section "E13: Configuration-via accounting";
  Report.vias Format.std_formatter Experiments.Paper;
  section "E14: Regular vs custom routing (future work)";
  Report.routing_styles Format.std_formatter Experiments.Paper;
  section "E15: Defect stress (minimum channel width vs defect rate)";
  (* Test-scale designs: each Pareto cell re-routes its packing O(log w)
     times per defect map, so paper-scale instances would dominate the
     whole bench; the trend (W_min and survival vs rate, per arch) is the
     tracked quantity, not absolute magnitudes. *)
  let rep =
    Minchan.stress ~seed:1 ~jobs:!jobs ~maps_per_rate:2 Experiments.Test
  in
  robustness := Some rep;
  Format.printf "%a@." Minchan.pp_report rep;
  section "E16: Content-addressed stage cache (cold vs warm, load generator)";
  (* Cold vs warm: the same jobs=1 paper sweep twice against one shared
     cache.  The warm run must replay every stage from the store with
     identical outcomes — the memoization contract, timed end to end. *)
  let cache = Cache.create () in
  let timed_sweep () =
    let t0 = Unix.gettimeofday () in
    let reports = Experiments.run_tasks ~seed:1 ~jobs:1 ~cache Experiments.Paper in
    (Unix.gettimeofday () -. t0, reports)
  in
  let cold_s, cold_reports = timed_sweep () in
  let warm_s, warm_reports = timed_sweep () in
  let cs = Cache.stats cache in
  let identical =
    List.for_all2
      (fun (a : Experiments.task_report) b ->
        compare a.Experiments.t_result b.Experiments.t_result = 0)
      cold_reports warm_reports
  in
  cache_sweep :=
    Some
      {
        cs_cold_s = cold_s;
        cs_warm_s = warm_s;
        cs_hits = cs.Cache.hits;
        cs_lookups = cs.Cache.hits + cs.Cache.misses;
        cs_identical = identical;
      };
  Format.printf
    "paper sweep (jobs=1): cold %.2f s, warm %.2f s (%.0f%% of cold); %d \
     hit(s) in %d lookup(s); outcomes %s@."
    cold_s warm_s
    (100.0 *. warm_s /. cold_s)
    cs.Cache.hits
    (cs.Cache.hits + cs.Cache.misses)
    (if identical then "identical" else "DIVERGED");
  (* Load generator: a deterministic pseudo-random stream of requests
     over a pool of (design, arch, seed) jobs, many repeated, all served
     by one shared cache — the memoized-service shape rather than the
     batch-sweep shape. *)
  let pool =
    List.concat_map
      (fun (_, nl) ->
        List.concat_map
          (fun arch -> List.map (fun seed -> (nl, arch, seed)) [ 1; 2; 3 ])
          [ Arch.lut_plb; Arch.granular_plb ])
      (Experiments.designs Experiments.Test)
  in
  let pool = Array.of_list pool in
  let n_requests = 240 in
  let rng = Random.State.make [| 0xC0FFEE; 16 |] in
  let cache = Cache.create () in
  let seen = Hashtbl.create 64 in
  let cold_h = Obs.Metrics.Histogram.create () in
  let warm_h = Obs.Metrics.Histogram.create () in
  for _ = 1 to n_requests do
    let i = Random.State.int rng (Array.length pool) in
    let nl, arch, seed = pool.(i) in
    let t0 = Unix.gettimeofday () in
    ignore (Flow.run ~seed ~cache arch nl);
    let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    let h = if Hashtbl.mem seen i then warm_h else cold_h in
    Hashtbl.replace seen i ();
    Obs.Metrics.Histogram.add h ms
  done;
  let cs = Cache.stats cache in
  let pctl h =
    Obs.Metrics.Histogram.
      (count h, percentile h 50.0, percentile h 90.0, percentile h 99.0)
  in
  cache_load :=
    Some
      {
        cl_requests = n_requests;
        cl_distinct = Hashtbl.length seen;
        cl_hit_rate = Cache.hit_rate cs;
        cl_cold_ms = pctl cold_h;
        cl_warm_ms = pctl warm_h;
      };
  let pp_pctl name (count, p50, p90, p99) =
    Format.printf "  %-14s %4d request(s)  p50 %7.2f ms  p90 %7.2f ms  p99 %7.2f ms@."
      name count p50 p90 p99
  in
  Format.printf
    "load generator: %d request(s) over %d distinct job(s), hit rate %.0f%%@."
    n_requests (Hashtbl.length seen)
    (100.0 *. Cache.hit_rate cs);
  pp_pctl "cold (first)" (pctl cold_h);
  pp_pctl "warm (repeat)" (pctl warm_h)

(* ---- Bechamel micro-benchmarks: one per experiment/table kernel ---- *)

open Bechamel
open Toolkit

let alu8 = lazy (Alu.build ~width:8 ())
let fixture_compacted =
  lazy (Compact.run Arch.granular_plb (Lazy.force alu8))
let fixture_placed =
  lazy
    (let nl = Buffering.insert ~max_fanout:8 (Lazy.force fixture_compacted) in
     let pl = Placement.create nl in
     Global_place.place ~seed:3 pl;
     pl)

(* A legalized, snapped packing for the refinement kernels (each kernel
   gets its own so refinement moves never disturb a shared fixture). *)
let make_packed () =
  let nl = Buffering.insert ~max_fanout:8 (Lazy.force fixture_compacted) in
  let pl = Placement.create nl in
  Global_place.place ~seed:3 pl;
  let q = Quadrisect.legalize Arch.granular_plb pl in
  let pl_b = Quadrisect.snap q pl in
  (q, pl_b)

let fixture_packed = lazy (make_packed ())
let fixture_packed_regions = lazy (make_packed ())

let bench_tests =
  [
    (* E1: the Section-2 classification *)
    Test.make ~name:"e1_s3_census" (Staged.stage (fun () -> ignore (S3.census ())));
    (* E3: full-adder packing decision *)
    Test.make ~name:"e3_full_adder_tiles"
      (Staged.stage (fun () ->
           ignore (Full_adder.tiles_needed Arch.granular_plb)));
    (* E5 kernel: technology map + compact a small ALU *)
    Test.make ~name:"e5_techmap_alu8"
      (Staged.stage (fun () ->
           ignore (Techmap.map Arch.granular_plb (Lazy.force alu8))));
    Test.make ~name:"e5_compact_alu8"
      (Staged.stage (fun () ->
           ignore (Compact.run Arch.granular_plb (Lazy.force alu8))));
    (* E6 kernels: the physical pipeline stages behind Table 1 *)
    Test.make ~name:"e6_global_place"
      (Staged.stage (fun () ->
           let pl = Placement.create (Lazy.force fixture_compacted) in
           Global_place.place ~seed:3 pl));
    Test.make ~name:"e6_anneal_20k_moves"
      (Staged.stage (fun () ->
           ignore
             (Anneal.refine ~iterations:20000 ~seed:5 (Lazy.force fixture_placed))));
    Test.make ~name:"e6_quadrisect_pack"
      (Staged.stage (fun () ->
           ignore (Quadrisect.legalize Arch.granular_plb (Lazy.force fixture_placed))));
    (* The packing <-> physical-synthesis refinement loop (mutates its own
       fixture in place, like the annealer kernel above). *)
    Test.make ~name:"e6_refine_pack"
      (Staged.stage (fun () ->
           let q, pl_b = Lazy.force fixture_packed in
           ignore (Refine.run ~iterations:20_000 ~seed:7 q pl_b)));
    (* The region-decomposed variant: 2x2 grid plus boundary pass, the
       flow's configuration on larger arrays. *)
    Test.make ~name:"e6_refine_regions"
      (Staged.stage (fun () ->
           let q, pl_b = Lazy.force fixture_packed_regions in
           ignore
             (Refine.run ~iterations:20_000 ~regions:2 ~seed:7 q pl_b)));
    (* E7 kernels: routing and timing behind Table 2 *)
    Test.make ~name:"e7_pathfinder_route"
      (Staged.stage (fun () ->
           ignore (Pathfinder.route_placement (Lazy.force fixture_placed))));
    Test.make ~name:"e7_sta"
      (Staged.stage (fun () ->
           ignore (Sta.run (Lazy.force fixture_compacted))));
    (* E7 detailed routing and the packing refinement loop *)
    Test.make ~name:"e7_detail_route"
      (Staged.stage (fun () ->
           let r = Pathfinder.route_placement (Lazy.force fixture_placed) in
           if r.Pathfinder.final_overflow = 0 then
             ignore (Detail.run r.Pathfinder.grid r.Pathfinder.routes)));
    (* E15 kernel: the whole minimum-channel-width search (front-end once
       plus the probe bisection) on the small ALU, defect-free *)
    Test.make ~name:"minchan_alu8"
      (Staged.stage (fun () ->
           ignore (Minchan.search ~w_max:32 Arch.granular_plb (Lazy.force alu8))));
    (* FlowMap (exact max-flow labeling) on the ALU AIG *)
    Test.make ~name:"flowmap_labels_alu8"
      (Staged.stage (fun () ->
           let b = Aig.of_netlist (Lazy.force alu8) in
           ignore (Flowmap.labels b.Aig.aig ~k:3)));
    (* E16 kernel: a fully warm flow — every stage a cache hit — so the
       hit path (key digesting, Marshal revival, event replay) sits under
       the same perfdiff gate as the compute kernels. *)
    Test.make ~name:"cache_warm_flow_alu8"
      (Staged.stage
         (let warmed =
            lazy
              (let c = Cache.create () in
               ignore (Flow.run ~seed:3 ~cache:c Arch.granular_plb (Lazy.force alu8));
               c)
          in
          fun () ->
            ignore
              (Flow.run ~seed:3 ~cache:(Lazy.force warmed) Arch.granular_plb
                 (Lazy.force alu8))));
  ]

let run_benchmarks () =
  section "Kernel micro-benchmarks (Bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols_results = Analyze.all ols instance results in
      Hashtbl.fold
        (fun name ols_result acc ->
          let short =
            match String.index_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Format.printf "  %-24s %12.0f ns/run@." short est;
              (short, est) :: acc
          | Some _ | None ->
              Format.printf "  %-24s (no estimate)@." short;
              acc)
        ols_results [])
    bench_tests

(* Machine-readable perf record: the sweep wall-clock and the per-kernel
   Bechamel estimates, one JSON object per revision to diff against. *)
let write_json kernels =
  let oc = open_out !json_path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"vpga-bench-sweep/5\",\n";
  out "  \"jobs\": %d,\n" !jobs;
  out "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"sweep_wall_s\": %.3f,\n" !sweep_seconds;
  out "  \"recovery\": { \"retries\": %d, \"escalations\": %d, \"degraded\": %d },\n"
    !sweep_recovery.Recovery.retries !sweep_recovery.Recovery.escalations
    !sweep_recovery.Recovery.degraded;
  (* CPU seconds per flow stage, summed over the sweep's (design x arch)
     tasks; name-sorted so revisions diff cleanly. *)
  out "  \"stages_s\": {\n";
  List.iteri
    (fun i (name, secs) ->
      out "    %S: %.3f%s\n" name secs
        (if i = List.length !sweep_stages - 1 then "" else ","))
    !sweep_stages;
  out "  },\n";
  (* GC allocation per flow stage over the same sweep: minor/major words
     and major collections, the memory half of the stage accounting. *)
  out "  \"stages_alloc\": {\n";
  List.iteri
    (fun i (name, (minor_w, major_w, colls)) ->
      out
        "    %S: { \"minor_words\": %.0f, \"major_words\": %.0f, \
         \"major_collections\": %d }%s\n"
        name minor_w major_w colls
        (if i = List.length !sweep_alloc - 1 then "" else ","))
    !sweep_alloc;
  out "  },\n";
  (* Distribution tails for the sweep's histograms (per-net wirelength,
     span durations, occupancy probe costs, pool queue waits): exact
     nearest-rank p50/p90/p99 over all retained samples. *)
  out "  \"percentiles\": {\n";
  List.iteri
    (fun i (name, (count, p50, p90, p99)) ->
      out
        "    %S: { \"count\": %d, \"p50\": %.3f, \"p90\": %.3f, \
         \"p99\": %.3f }%s\n"
        name count p50 p90 p99
        (if i = List.length !sweep_percentiles - 1 then "" else ","))
    !sweep_percentiles;
  out "  },\n";
  (match !robustness with
  | Some r -> out "  \"robustness\": %s,\n" (Minchan.json_report ~indent:"    " r)
  | None -> ());
  (* The stage cache's headline numbers: warm-over-cold wall ratio for
     the jobs=1 paper sweep (the memoization payoff, tracked revision
     over revision) and the load generator's latency split. *)
  (match (!cache_sweep, !cache_load) with
  | Some s, Some l ->
      out "  \"cache\": {\n";
      out "    \"sweep_cold_wall_s\": %.3f,\n" s.cs_cold_s;
      out "    \"sweep_warm_wall_s\": %.3f,\n" s.cs_warm_s;
      out "    \"warm_over_cold\": %.4f,\n" (s.cs_warm_s /. s.cs_cold_s);
      out "    \"sweep_hits\": %d,\n" s.cs_hits;
      out "    \"sweep_lookups\": %d,\n" s.cs_lookups;
      out "    \"sweep_outcomes_identical\": %b,\n" s.cs_identical;
      let pctl name (count, p50, p90, p99) last =
        out
          "      %S: { \"count\": %d, \"p50\": %.3f, \"p90\": %.3f, \
           \"p99\": %.3f }%s\n"
          name count p50 p90 p99
          (if last then "" else ",")
      in
      out "    \"load\": {\n";
      out "      \"requests\": %d,\n" l.cl_requests;
      out "      \"distinct_jobs\": %d,\n" l.cl_distinct;
      out "      \"hit_rate\": %.4f,\n" l.cl_hit_rate;
      pctl "cold_ms" l.cl_cold_ms false;
      pctl "warm_ms" l.cl_warm_ms true;
      out "    }\n";
      out "  },\n"
  | _ -> ());
  out "  \"kernels_ns_per_run\": {\n";
  List.iteri
    (fun i (name, ns) ->
      out "    %S: %.1f%s\n" name ns
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  out "  }\n}\n";
  close_out oc;
  Format.printf "@.wrote %s@." !json_path

(* Perf regression gate: re-run the kernels and compare against the
   committed baseline record, failing loudly past the tolerance.  Bechamel
   estimates on shared machines are noisy, so the tolerance is a fraction
   (default 0.25 = fail on >25 % slowdown); speedups and kernels without a
   baseline entry are reported but never fail. *)
let run_perfdiff () =
  let baseline =
    let ic = open_in !json_path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match Obs.Json.parse s with
    | Error msg ->
        Format.printf "perfdiff: cannot parse %s: %s@." !json_path msg;
        exit 2
    | Ok j -> (
        match Obs.Json.member "kernels_ns_per_run" j with
        | Some (Obs.Json.Obj fields) ->
            List.filter_map
              (fun (k, v) ->
                Option.map (fun f -> (k, f)) (Obs.Json.to_float v))
              fields
        | Some _ | None ->
            Format.printf "perfdiff: %s has no kernels_ns_per_run object@."
              !json_path;
            exit 2)
  in
  let kernels = run_benchmarks () in
  section
    (Printf.sprintf "Per-kernel delta vs %s (tolerance %.0f%%)" !json_path
       (100.0 *. !tolerance));
  let regressions = ref 0 in
  List.iter
    (fun (name, ns) ->
      match List.assoc_opt name baseline with
      | None -> Format.printf "  %-24s %12.0f ns/run  (no baseline)@." name ns
      | Some base ->
          let ratio = ns /. base in
          let flag =
            if ratio > 1.0 +. !tolerance then begin
              incr regressions;
              "  REGRESSION"
            end
            else ""
          in
          Format.printf "  %-24s %12.0f ns/run  %+7.1f%%%s@." name ns
            (100.0 *. (ratio -. 1.0))
            flag)
    (List.rev kernels);
  if !regressions > 0 then begin
    Format.printf "@.perfdiff: %d kernel(s) regressed beyond %.0f%%@."
      !regressions
      (100.0 *. !tolerance);
    exit 1
  end
  else Format.printf "@.perfdiff: all kernels within tolerance.@."

let () =
  Format.printf "VPGA granularity exploration: paper-reproduction benchmark@.";
  if !perfdiff then run_perfdiff ()
  else begin
    reproduce_tables ();
    let kernels = run_benchmarks () in
    write_json kernels;
    Format.printf "@.done.@."
  end
