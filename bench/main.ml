(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (at paper-comparable design sizes), then times the flow's
   kernels with Bechamel.  Writes BENCH_sweep.json (sweep wall-clock and
   recovery counts, the E15 robustness cells, per-kernel estimates) as a
   machine-readable history of each revision; nothing reads it back.
   With -kernels it runs only the kernels and prints their ns/run, which
   is what bench/ab.py compares against the parent commit built on the
   same host.  End-to-end and per-stage timing lives in perfbench/.

     dune exec bench/main.exe -- [-jobs N] [-json FILE] [-kernels]

   The experiment tables correspond to DESIGN.md's per-experiment index:
   E1/E2 (S3 classification, Figure 2), E3 (full adder), E4 (configuration
   delay/area), E5 (compaction ablation), E6 (Table 1), E7 (Table 2),
   E8 (headline claims), E9 (configuration distribution), E10 (flop-rich
   PLB variant), E11 (flow ablations), E12 (power), E13 (vias), E14 (routing
   styles), E15 (defect stress: minimum channel width vs defect rate). *)

open Vpga_core.Vpga
module Json = Obs.Json

let jobs = ref (Vpga_par.Pool.default_jobs ())
let json_path = ref "BENCH_sweep.json"
let kernels_only = ref false

let set_jobs n =
  if n < 1 then
    raise (Arg.Bad (Printf.sprintf "-jobs expects a positive count, got %d" n));
  jobs := n

let () =
  Arg.parse
    [
      ("-jobs", Arg.Int set_jobs, "N  worker domains for the E6-E9 flow sweep");
      ("-json", Arg.Set_string json_path, "FILE  where to write the JSON record");
      ( "-kernels",
        Arg.Set kernels_only,
        "  skip the tables and the JSON record; run only the kernels" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe [-jobs N] [-json FILE] [-kernels]"

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
  let reports = Experiments.run_tasks ~seed:1 ~jobs:!jobs Experiments.Paper in
  let sweep_seconds = Unix.gettimeofday () -. t0 in
  let recovery = Experiments.recovery reports in
  let rows = Experiments.rows reports in
  Format.printf
    "(flow sweep took %.1f s on %d worker domain%s; %d retried attempt(s), \
     %d escalation(s), %d degraded guarantee(s))@.@."
    sweep_seconds !jobs
    (if !jobs = 1 then "" else "s")
    recovery.Recovery.retries recovery.Recovery.escalations
    recovery.Recovery.degraded;
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
  Format.printf "%a@." Minchan.pp_report rep;
  (* The record fields this run contributes to BENCH_sweep.json. *)
  let int n = Json.Num (float_of_int n) in
  [
    ("sweep_wall_s", Json.Num sweep_seconds);
    ( "recovery",
      Json.Obj
        [
          ("retries", int recovery.Recovery.retries);
          ("escalations", int recovery.Recovery.escalations);
          ("degraded", int recovery.Recovery.degraded);
        ] );
    ("robustness", Minchan.report_json rep);
  ]

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

(* The Test-scale FPU and its granular compaction: the pair the Formal
   flow's compact gate proves equivalent. *)
let fpu_test = lazy (List.assoc "FPU" (Experiments.designs Experiments.Test))
let fixture_fpu_compacted =
  lazy (Compact.run Arch.granular_plb (Lazy.force fpu_test))

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
    (* The Formal gate's proof for one stage: SAT sweeping of the shared
       AIG, then the solve of the swept miter. *)
    Test.make ~name:"cec_compact_fpu"
      (Staged.stage (fun () ->
           ignore
             (Cec.check (Lazy.force fpu_test)
                (Lazy.force fixture_fpu_compacted))));
    (* E15 kernel: the whole minimum-channel-width search (front-end once
       plus the probe bisection) on the small ALU, defect-free *)
    Test.make ~name:"minchan_alu8"
      (Staged.stage (fun () ->
           ignore (Minchan.search ~w_max:32 Arch.granular_plb (Lazy.force alu8))));
    (* A fully warm flow — every stage a cache hit — so the hit path
       (key digesting, Marshal revival, event replay) sits under the same
       kernel gate as the compute kernels. *)
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

(* Machine-readable perf record: the sweep fields from [reproduce_tables]
   plus the per-kernel Bechamel estimates, one JSON object per revision.
   [recommended_domains] and [ocaml_version] say what produced it. *)
let write_json sweep kernels =
  let int n = Json.Num (float_of_int n) in
  let doc =
    Json.Obj
      ([
         ("schema", Json.Str "vpga-bench-sweep/6");
         ("jobs", int !jobs);
         ("recommended_domains", int (Domain.recommended_domain_count ()));
         ("ocaml_version", Json.Str Sys.ocaml_version);
       ]
      @ sweep
      @ [
          ( "kernels_ns_per_run",
            Json.Obj (List.map (fun (name, ns) -> (name, Json.Num ns)) kernels)
          );
        ])
  in
  Out_channel.with_open_bin !json_path (fun oc ->
      Json.to_channel oc doc;
      output_char oc '\n');
  Format.printf "@.wrote %s@." !json_path

let () =
  Format.printf "VPGA granularity exploration: paper-reproduction benchmark@.";
  if !kernels_only then ignore (run_benchmarks ())
  else begin
    let sweep = reproduce_tables () in
    let kernels = run_benchmarks () in
    write_json sweep kernels;
    Format.printf "@.done.@."
  end
