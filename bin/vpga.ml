(* Command-line driver: regenerate any of the paper's experiments.

     vpga s3                  Section-2.1 function classification (E1/E2)
     vpga fa                  full-adder packing (E3)
     vpga configs             configuration delay/area table (E4)
     vpga compaction [-p]     compaction ablation (E5)
     vpga tables [-p]         Tables 1 and 2 plus the headline claims (E6-E8)
     vpga flow -d NAME -a ARCH  one design through one architecture
     vpga sweep [-p] [-j N]   fault-isolated sweep with a recovery summary
     vpga stress [-p] [-j N]  minimum-channel-width search under defect maps
     vpga lint -d NAME [-a ARCH]  lint a design and its front-end stages
     vpga analyze -d NAME [-a ARCH]  dataflow analyses over the stages
     vpga report FILE         per-stage summary of a Chrome trace file
     vpga perf diff A B       compare two metrics snapshots, exit 1 past
                              tolerance
     vpga cache ...           stats/clear/gc/check of the stage cache *)

open Cmdliner
open Vpga_core.Vpga

let paper_flag =
  Arg.(
    value & flag
    & info [ "p"; "paper-scale" ]
        ~doc:"Use paper-comparable design sizes (slower).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed for the flow.")

(* [conv] restricted to the values [ok] accepts: anything else is a usage
   error (exit 124) reported while the command line is parsed, before any
   work starts. *)
let checked conv ~docv ~expect ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expect s))
    | Error _ as e -> e
  in
  Arg.conv ~docv (parse, Arg.conv_printer conv)

let positive_int =
  checked Arg.int ~docv:"JOBS" ~expect:"a positive count" (fun n -> n >= 1)

let jobs_arg =
  Arg.(
    value
    & opt positive_int (Vpga_par.Pool.default_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for the flow sweep (default: cores - 1, at least \
           1).  Results are identical for any value; 1 runs fully \
           sequentially.")

let scale_of p = if p then Experiments.Paper else Experiments.Test

let s3_cmd =
  let run () = Report.s3 Format.std_formatter () in
  Cmd.v (Cmd.info "s3" ~doc:"Classify all 256 3-input functions (E1/E2)")
    Term.(const run $ const ())

let fa_cmd =
  let run () = Report.full_adder Format.std_formatter () in
  Cmd.v (Cmd.info "fa" ~doc:"Full-adder tile packing (E3)")
    Term.(const run $ const ())

let configs_cmd =
  let run () = Report.config_delays Format.std_formatter () in
  Cmd.v (Cmd.info "configs" ~doc:"Configuration delay/area table (E4)")
    Term.(const run $ const ())

let compaction_cmd =
  let run paper = Report.compaction Format.std_formatter (scale_of paper) in
  Cmd.v (Cmd.info "compaction" ~doc:"Compaction ablation (E5)")
    Term.(const run $ paper_flag)

let tables_cmd =
  let run paper seed jobs =
    let rows =
      Experiments.rows (Experiments.run_tasks ~seed ~jobs (scale_of paper))
    in
    Report.table1 Format.std_formatter rows;
    Format.printf "@.";
    Report.table2 Format.std_formatter rows;
    Format.printf "@.";
    Report.headlines Format.std_formatter (Experiments.headlines rows);
    Format.printf "@.";
    Report.config_distribution Format.std_formatter rows
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce Tables 1 and 2 and the headline claims (E6-E9)")
    Term.(const run $ paper_flag $ seed_arg $ jobs_arg)

(* Design and architecture names are checked while the command line is
   parsed, so a typo is a usage error (exit 124) before any flow work
   starts.  Design names match case-insensitively and are the same at
   every scale. *)
let same_design a b = String.lowercase_ascii a = String.lowercase_ascii b

let design_of_name paper name =
  snd
    (List.find
       (fun (n, _) -> same_design n name)
       (Experiments.designs (scale_of paper)))

let design_conv =
  let parse s =
    if
      List.exists
        (fun (n, _) -> same_design n s)
        (Experiments.designs Experiments.Test)
    then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf
              "unknown design %S (alu, firewire, fpu, 'network switch')" s))
  in
  Arg.conv ~docv:"DESIGN" (parse, Format.pp_print_string)

let design_arg =
  Arg.(
    required
    & opt (some design_conv) None
    & info [ "d"; "design" ] ~doc:"Design: alu, firewire, fpu, network switch.")

let arch_arg =
  let arch =
    Arg.enum
      [
        ("granular", Arch.granular_plb);
        ("granular_plb", Arch.granular_plb);
        ("granular2ff", Arch.granular_2ff);
        ("granular_2ff", Arch.granular_2ff);
        ("lut", Arch.lut_plb);
        ("lut_plb", Arch.lut_plb);
      ]
  in
  Arg.(
    value & opt arch Arch.granular_plb
    & info [ "a"; "arch" ] ~doc:"PLB architecture: granular, lut, or granular2ff.")

let verify_arg =
  let level =
    Arg.enum [ ("off", Flow.Off); ("fast", Flow.Fast); ("formal", Flow.Formal) ]
  in
  Arg.(
    value & opt level Flow.Fast
    & info [ "verify" ]
        ~doc:
          "Verification level: off (no checks), fast (lint + randomized \
           equivalence + physical invariants), or formal (fast plus \
           SAT-proven equivalence of every front-end stage).")

let policy_arg =
  let policy =
    Arg.enum [ ("default", Policy.default); ("strict", Policy.strict) ]
  in
  Arg.(
    value & opt policy Policy.default
    & info [ "policy" ]
        ~doc:
          "Retry-with-escalation policy: default (up to 4 attempts per \
           stage with escalating channel capacity / anneal restarts), or \
           strict (one attempt, any stage failure is final). \
           Formal equivalence proofs are the same under both.")

let fail_on_warning_flag =
  Arg.(
    value & flag
    & info [ "fail-on-warning" ]
        ~doc:"Exit with status 2 when any warning-level diagnostic is found.")

(* Unified diagnostic exit codes, shared by lint and analyze: errors are
   always exit 1; warnings are exit 2 only under --fail-on-warning. *)
let diag_exit ~fail_on_warning ~errors ~warnings =
  if errors then exit 1;
  if fail_on_warning && warnings then exit 2

(* An output path: its directory must exist when the command line is
   parsed, so a typo is a usage error (exit 124) before any flow work. *)
let out_file =
  let parse s =
    let dir = Filename.dirname s in
    if Sys.file_exists dir && Sys.is_directory dir then Ok s
    else
      Error
        (`Msg (Printf.sprintf "cannot write %s: no directory %s" s dir))
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

(* A write that still fails (a directory in the way, no permission) is a
   diagnostic with exit 2, not an uncaught exception. *)
let write_or_exit file write =
  try write ()
  with Sys_error msg ->
    Format.eprintf "vpga: cannot write %s: %s@." file msg;
    exit 2

let trace_arg =
  Arg.(
    value
    & opt (some out_file) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a hierarchical span trace of the flow (stage timings, \
           inner-loop counters, recovery events) and write it to $(docv) as \
           Chrome trace-event JSON (open in Perfetto / chrome://tracing, or \
           summarize with $(b,vpga report)).")

let metrics_arg =
  Arg.(
    value
    & opt (some out_file) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a self-contained metrics snapshot of the run to $(docv): \
           counter totals, per-stage wall time and GC allocation, \
           histogram percentiles (p50/p90/p99) and convergence-series \
           summaries.  Compare two snapshots with $(b,vpga perf diff).")

(* --- the content-addressed stage cache ------------------------------- *)

let no_cache_flag =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the content-addressed stage cache, recomputing every \
           stage.  Results are identical either way (a hit replays the \
           same deterministic artifact); this is the escape hatch for \
           timing uncached runs or ruling the cache out while debugging.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist cache entries under $(docv) so later runs start warm \
           (entries are versioned by schema tag, so stale formats never \
           match).  Without it the cache lives in memory for the \
           duration of the run.  Inspect and bound the store with \
           $(b,vpga cache).")

let cache_term =
  let mk no dir = if no then Cache.none else Cache.create ?dir () in
  Term.(const mk $ no_cache_flag $ cache_dir_arg)

let print_cache_stats cache =
  let cs = Cache.stats cache in
  let lookups = cs.Cache.hits + cs.Cache.misses in
  if Cache.enabled cache && lookups > 0 && cs.Cache.hits > 0 then
    Format.printf "cache: %d hit(s) in %d lookup(s) (%.0f%% hit rate)@."
      cs.Cache.hits lookups
      (100.0 *. Cache.hit_rate cs)

let flow_cmd =
  let run paper seed design arch verify policy trace_file metrics_file jobs
      cache =
    let nl = design_of_name paper design in
    let label = design ^ "/" ^ arch.Arch.name in
    let trace =
      match (trace_file, metrics_file) with
      | None, None -> Trace.null
      | _ -> Trace.create ~label ()
    in
    let pair = Flow.run ~seed ~verify ~policy ~trace ~jobs ~cache arch nl in
    let show (o : Flow.outcome) =
      Format.printf
        "flow %s: die %.0f um^2, cells %.0f um^2, wire %.0f um, top-10 slack %.1f ps, wns %.1f ps%s@."
        (match o.Flow.kind with Flow.Flow_a -> "a" | Flow.Flow_b -> "b")
        o.Flow.die_area o.Flow.cell_area o.Flow.wirelength
        o.Flow.avg_top10_slack o.Flow.wns
        (match o.Flow.array_dims with
        | Some (c, r) -> Printf.sprintf " [array %dx%d]" c r
        | None -> "")
    in
    Format.printf "%s on %s (compaction saved %.1f%%)@."
      (Netlist.design_name nl) arch.Arch.name
      (100.0 *. pair.Flow.a.Flow.compaction_gain);
    show pair.Flow.a;
    show pair.Flow.b;
    print_cache_stats cache;
    (match trace_file with
    | None -> ()
    | Some file ->
        write_or_exit file (fun () ->
            Obs.Export.write_chrome ~process_name:"vpga flow" file [ trace ]);
        Format.printf "wrote %s@." file);
    match metrics_file with
    | None -> ()
    | Some file ->
        write_or_exit file (fun () ->
            Obs.Export.write_snapshot ~label file [ trace ]);
        Format.printf "wrote %s@." file
  in
  Cmd.v (Cmd.info "flow" ~doc:"Run one design through one architecture")
    Term.(
      const run $ paper_flag $ seed_arg $ design_arg $ arch_arg $ verify_arg
      $ policy_arg $ trace_arg $ metrics_arg $ jobs_arg $ cache_term)

let sweep_cmd =
  let verbose_flag =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:
            "Also print the worker pool's accounting: tasks run, total \
             queue wait, and per-worker busy time.")
  in
  let run paper seed jobs verify policy verbose trace_file cache =
    let traced = trace_file <> None in
    let reports, pstats =
      Experiments.run_tasks_with_stats ~seed ~jobs ~verify ~policy ~traced
        ~cache (scale_of paper)
    in
    let failed =
      List.length (List.filter (fun r -> Result.is_error r.Experiments.t_result) reports)
    in
    List.iter
      (fun r ->
        let s = r.Experiments.t_recovery in
        match r.Experiments.t_result with
        | Ok pair ->
            Format.printf
              "%-16s %-14s ok      die %.0f/%.0f um^2  (retries %d, \
               escalations %d, degraded %d)@."
              r.Experiments.t_design r.Experiments.t_arch.Arch.name
              pair.Flow.a.Flow.die_area pair.Flow.b.Flow.die_area
              s.Recovery.retries s.Recovery.escalations s.Recovery.degraded
        | Error f ->
            Format.printf "%-16s %-14s FAILED  %s@." r.Experiments.t_design
              r.Experiments.t_arch.Arch.name (Fail.to_string f);
            List.iter (fun e -> Format.printf "    %s@." e) f.Fail.events)
      reports;
    let tot = Experiments.recovery reports in
    Format.printf
      "@.recovery: %d retried attempt(s), %d escalation(s), %d degraded \
       guarantee(s)@."
      tot.Recovery.retries tot.Recovery.escalations tot.Recovery.degraded;
    Format.printf "%d/%d task(s) completed@."
      (List.length reports - failed)
      (List.length reports);
    print_cache_stats cache;
    if verbose then begin
      let ms ns = Int64.to_float ns /. 1e6 in
      Format.printf "@.pool: %d task(s), total queue wait %.1f ms@."
        pstats.Pool.tasks
        (ms pstats.Pool.queue_wait_ns);
      Array.iteri
        (fun i busy -> Format.printf "  worker %d: busy %.1f ms@." i (ms busy))
        pstats.Pool.busy_ns
    end;
    (match trace_file with
    | None -> ()
    | Some file ->
        (* The pool's accounting rides along as its own thread: stats
           gauges plus the queue-wait histogram. *)
        let pool_trace =
          Trace.create ~tid:(List.length reports) ~label:"pool" ()
        in
        Pool.publish_stats pstats pool_trace;
        write_or_exit file (fun () ->
            Obs.Export.write_chrome ~process_name:"vpga sweep" file
              (List.map (fun r -> r.Experiments.t_trace) reports
              @ [ pool_trace ]));
        Format.printf "wrote %s@." file);
    if failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the full (design x architecture) sweep with per-task fault \
          isolation: one task exhausting its retry policy is reported as a \
          failure record while the rest complete.  Exits nonzero only if a \
          task failed.")
    Term.(
      const run $ paper_flag $ seed_arg $ jobs_arg $ verify_arg $ policy_arg
      $ verbose_flag $ trace_arg $ cache_term)

let stress_cmd =
  let rate =
    checked Arg.float ~docv:"R" ~expect:"a rate in [0, 1]" (fun r ->
        r >= 0.0 && r <= 1.0)
  in
  let rates_arg =
    Arg.(
      value
      & opt (list rate) [ 0.0; 0.02; 0.05; 0.10 ]
      & info [ "rates" ] ~docv:"R,..."
          ~doc:"Defect rates to sweep (comma-separated fractions).")
  in
  let maps_arg =
    Arg.(
      value & opt positive_int 3
      & info [ "maps" ] ~docv:"N"
          ~doc:"Seeded defect maps per nonzero rate (the defect-free point \
                always runs one).")
  in
  let wmax_arg =
    Arg.(
      value & opt positive_int 64
      & info [ "w-max" ] ~docv:"W"
          ~doc:"Channel-capacity search ceiling; a map needing more is \
                counted as a casualty.")
  in
  let dist_arg =
    let dist =
      Arg.enum [ ("uniform", Defect.Uniform); ("clustered", Defect.Clustered) ]
    in
    Arg.(
      value & opt dist Defect.Uniform
      & info [ "dist" ]
          ~doc:"Defect distribution: uniform (independent sites) or \
                clustered (wafer-style blobs).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the robustness block (BENCH_sweep.json schema) instead \
                of the table.")
  in
  let design_filter =
    Arg.(
      value
      & opt (some design_conv) None
      & info [ "d"; "design" ]
          ~doc:"Restrict the sweep to one design (default: all four).")
  in
  let run paper seed jobs rates maps w_max dist json design trace_file cache =
    let scale = scale_of paper in
    let designs =
      match design with
      | None -> None
      | Some name ->
          Some
            (List.filter
               (fun (n, _) -> same_design n name)
               (Experiments.designs scale))
    in
    let traced = trace_file <> None in
    let report =
      Minchan.stress ~seed ~jobs ~dist ~rates ~maps_per_rate:maps ~w_max
        ~traced ~cache ?designs scale
    in
    if json then
      print_endline (Obs.Json.to_string (Minchan.report_json report))
    else begin
      Format.printf "%a@." Minchan.pp_report report;
      print_cache_stats cache
    end;
    match trace_file with
    | None -> ()
    | Some file ->
        write_or_exit file (fun () ->
            Obs.Export.write_chrome ~process_name:"vpga stress" file
              (List.map (fun p -> p.Minchan.p_trace) report.Minchan.r_points));
        Format.printf "wrote %s@." file
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Congestion-stress Pareto exploration: per (design x architecture \
          x defect rate), binary-search the minimum routable channel width \
          over seeded defect maps and report survival rate, W_min, \
          wirelength, vias, worst slack and array area.  Deterministic at \
          every $(b,--jobs) setting.")
    Term.(
      const run $ paper_flag $ seed_arg $ jobs_arg $ rates_arg $ maps_arg
      $ wmax_arg $ dist_arg $ json_flag $ design_filter $ trace_arg
      $ cache_term)

(* The source netlist and its front-end stages, titled, as lint and analyze
   report them; the netlist is compacted once and buffered from that. *)
let front_end_stages arch nl =
  let compacted = Compact.run arch nl in
  [
    ("source", nl);
    ("techmap " ^ arch.Arch.name, Techmap.map arch nl);
    ("compact " ^ arch.Arch.name, compacted);
    ("buffered " ^ arch.Arch.name, Buffering.insert ~max_fanout:8 compacted);
  ]

let lint_cmd =
  let formal_flag =
    Arg.(
      value & flag
      & info [ "formal" ]
          ~doc:
            "Also prove each front-end stage equivalent to the source \
             netlist with the SAT-based checker.")
  in
  let run paper design arch formal fail_on_warning =
    let nl = design_of_name paper design in
    let report title nl' =
      let ds = Lint.run nl' in
      Format.printf "== %s ==@." title;
      if ds = [] then Format.printf "clean@."
      else Diag.pp_report Format.std_formatter ds;
      ds
    in
    let prove (title, d) =
      if d == nl then []
      else
        match Cec.prove nl d with
        | [] ->
            Format.printf "cec %s: proven equivalent@." title;
            []
        | ds ->
            List.iter (Format.printf "cec %s: %a@." title Diag.pp) ds;
            ds
    in
    let stages = front_end_stages arch nl in
    let all = List.concat_map (fun (t, d) -> report t d) stages in
    let all =
      if formal then all @ List.concat_map prove stages else all
    in
    diag_exit ~fail_on_warning ~errors:(Diag.has_errors all)
      ~warnings:(List.exists (fun d -> d.Diag.severity = Diag.Warning) all)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Lint a design and its front-end stages (combinational loops, \
          undriven pins, dead logic, duplicate names); exits 1 on errors, \
          2 on warnings under $(b,--fail-on-warning)")
    Term.(
      const run $ paper_flag $ design_arg $ arch_arg $ formal_flag
      $ fail_on_warning_flag)

let analyze_cmd =
  let simplify_flag =
    Arg.(
      value & flag
      & info [ "simplify" ]
          ~doc:
            "Also run the implied-constant / redundancy simplifier on each \
             stage; every rewritten netlist is proven equivalent to its \
             source by the SAT-based CEC before being reported.")
  in
  let run paper design arch simplify fail_on_warning =
    let nl = design_of_name paper design in
    let stages = front_end_stages arch nl in
    let all =
      List.concat_map
        (fun (title, nl') ->
          let a = Analysis.run ~simplify nl' in
          Format.printf "== %s ==@." title;
          Format.printf "@[<v>%a@]@." Analysis.pp a;
          Analysis.diags a)
        stages
    in
    diag_exit ~fail_on_warning ~errors:(Diag.has_errors all)
      ~warnings:(List.exists (fun d -> d.Diag.severity = Diag.Warning) all)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the dataflow analyses (constant propagation, X-propagation, \
          structural redundancy, fanout/depth shape) over a design and its \
          front-end stages; exits 1 on errors, 2 on warnings under \
          $(b,--fail-on-warning)")
    Term.(
      const run $ paper_flag $ design_arg $ arch_arg $ simplify_flag
      $ fail_on_warning_flag)

let export_cmd =
  let prefix =
    Arg.(value & opt out_file "out" & info [ "o" ] ~doc:"Output file prefix.")
  in
  let run paper seed design prefix =
    let nl = design_of_name paper design in
    let arch = Arch.granular_plb in
    let compacted = Compact.run arch nl in
    let buffered = Buffering.insert ~max_fanout:8 compacted in
    let pl = Placement.create buffered in
    Global_place.place ~seed pl;
    let q = Quadrisect.legalize arch pl in
    let pl = Quadrisect.snap q pl in
    let write ext contents =
      let file = prefix ^ ext in
      write_or_exit file (fun () -> Export.write_file file contents)
    in
    write ".v" (Export.verilog buffered);
    write ".def" (Export.def_ ~packing:q pl);
    write ".svg" (Export.svg q pl);
    Format.printf "wrote %s.v, %s.def, %s.svg@." prefix prefix prefix
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Pack a design and write Verilog/DEF/SVG artifacts")
    Term.(const run $ paper_flag $ seed_arg $ design_arg $ prefix)

let report_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Chrome trace-event JSON written by $(b,vpga flow --trace).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as JSON (schema vpga-report/1) instead of \
                the text tables.")
  in
  let run file json =
    match Obs.Export.load file with
    | Ok doc ->
        if json then
          print_endline (Obs.Json.to_string (Obs.Export.report_json doc))
        else Obs.Export.report Format.std_formatter doc
    | Error msg ->
        Format.eprintf "%s: %s@." file msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Summarize a recorded flow trace: per-stage wall time, allocation \
          and share, inner-loop counters, convergence series, and recovery \
          instants.  Exits 2 when the file cannot be read, is not a \
          Chrome trace-event document, or holds an event the report would \
          misread (the message names its index and key).")
    Term.(const run $ file $ json_flag)

let perf_cmd =
  let snapshot_file idx name =
    Arg.(
      required
      & pos idx (some file) None
      & info [] ~docv:name
          ~doc:
            (Printf.sprintf
               "The %s metrics snapshot (written by $(b,vpga flow \
                --metrics))."
               (String.lowercase_ascii name)))
  in
  (* NaN would compare false everywhere and pass any growth; a negative
     tolerance would flag identical snapshots. *)
  let tolerance =
    checked Arg.float ~docv:"FRAC" ~expect:"a finite fraction >= 0" (fun t ->
        Float.is_finite t && t >= 0.0)
  in
  let tolerance_arg =
    Arg.(
      value & opt tolerance 0.25
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:
            "Allowed fractional growth per metric before it counts as a \
             regression (time-valued metrics also get an absolute noise \
             floor).")
  in
  let diff_cmd =
    let run base_file cur_file tolerance =
      let fail msg =
        prerr_endline msg;
        exit 2
      in
      let load file =
        match In_channel.with_open_bin file In_channel.input_all with
        | exception Sys_error msg -> fail msg
        | src -> (
            match Obs.Json.parse src with
            | Ok doc -> doc
            | Error msg -> fail (file ^ ": " ^ msg))
      in
      let base = load base_file and current = load cur_file in
      match Obs.Metrics.diff ~tolerance ~base ~current () with
      | Error msg -> fail (Printf.sprintf "%s vs %s: %s" base_file cur_file msg)
      | Ok deltas ->
          Format.printf "%a@." Obs.Metrics.pp_diff deltas;
          if Obs.Metrics.regressions deltas <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two metrics snapshots (counters, per-stage wall/alloc, \
            histogram percentiles, convergence iteration counts); exits 1 \
            when any metric grew past $(b,--tolerance), 2 when a snapshot \
            cannot be read or is not a vpga-metrics/1 snapshot.")
      Term.(
        const run $ snapshot_file 0 "BASE" $ snapshot_file 1 "CURRENT"
        $ tolerance_arg)
  in
  Cmd.group
    (Cmd.info "perf"
       ~doc:"Performance-trajectory tools over metrics snapshots")
    [ diff_cmd ]

let cache_cmd =
  let dir_arg =
    Arg.(
      value
      & opt string (Cache.default_dir ())
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Cache directory to operate on (default: \
             \\$XDG_CACHE_HOME/vpga, else ~/.cache/vpga).")
  in
  let stats_cmd =
    let run dir =
      match Cache.disk_stats ~dir with
      | [] -> Format.printf "%s: no cache entries@." dir
      | stages ->
          Format.printf "%-14s %-16s %8s %12s@." "schema" "stage" "entries"
            "bytes";
          let entries = ref 0 and bytes = ref 0 in
          List.iter
            (fun s ->
              entries := !entries + s.Cache.d_entries;
              bytes := !bytes + s.Cache.d_bytes;
              Format.printf "%-14s %-16s %8d %12d@." s.Cache.d_schema
                s.Cache.d_stage s.Cache.d_entries s.Cache.d_bytes)
            stages;
          Format.printf "total: %d entries, %d bytes in %s@." !entries !bytes
            dir
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Per-schema, per-stage entry counts and sizes of an on-disk cache \
            (all schema generations, including stale ones).")
      Term.(const run $ dir_arg)
  in
  let clear_cmd =
    let run dir =
      let n = Cache.disk_clear ~dir in
      Format.printf "removed %d entr%s from %s@." n
        (if n = 1 then "y" else "ies")
        dir
    in
    Cmd.v
      (Cmd.info "clear"
         ~doc:"Remove every on-disk cache entry, of every schema generation.")
      Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let max_bytes_arg =
      Arg.(
        required
        & opt
            (some
               (checked Arg.int ~docv:"N" ~expect:"a byte count >= 0" (fun n ->
                    n >= 0)))
            None
        & info [ "max-bytes" ] ~docv:"N"
            ~doc:"Target store size in bytes.")
    in
    let run dir max_bytes =
      let r = Cache.disk_gc ~dir ~max_bytes in
      Format.printf
        "kept %d entries (%d bytes), evicted %d entries (%d bytes)@."
        r.Cache.gc_kept r.Cache.gc_kept_bytes r.Cache.gc_removed
        r.Cache.gc_removed_bytes
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Evict least-recently-used entries (every hit refreshes its \
            entry) until the store fits in $(b,--max-bytes).")
      Term.(const run $ dir_arg $ max_bytes_arg)
  in
  let check_cmd =
    let run paper seed =
      let nl = design_of_name paper "alu" in
      (* A private throwaway store: never touches the user's cache dir. *)
      let dir =
        let f = Filename.temp_file "vpga-cachecheck" "" in
        Sys.remove f;
        f
      in
      let archs = [ Arch.lut_plb; Arch.granular_plb ] in
      let flow cache arch = Flow.run ~seed ~cache arch nl in
      let cold_cache = Cache.create ~dir () in
      let cold = List.map (flow cold_cache) archs in
      (* Fresh in-memory table: every warm hit must come from disk. *)
      let warm_cache = Cache.create ~dir () in
      let warm = List.map (flow warm_cache) archs in
      let ws = Cache.stats warm_cache in
      let identical = List.for_all2 (fun a b -> compare a b = 0) cold warm in
      let entries = Cache.disk_clear ~dir in
      let rec rm_tree d =
        if Sys.file_exists d && Sys.is_directory d then begin
          Array.iter (fun f -> rm_tree (Filename.concat d f)) (Sys.readdir d);
          try Sys.rmdir d with Sys_error _ -> ()
        end
      in
      rm_tree dir;
      Format.printf
        "cold run stored %d entr%s; warm run: %d hit(s) in %d lookup(s) \
         (%.0f%% hit rate)@."
        entries
        (if entries = 1 then "y" else "ies")
        ws.Cache.hits
        (ws.Cache.hits + ws.Cache.misses)
        (100.0 *. Cache.hit_rate ws);
      if not identical then begin
        Format.printf "cache check FAILED: warm outcomes differ from cold@.";
        exit 1
      end;
      if ws.Cache.hits = 0 then begin
        Format.printf "cache check FAILED: warm run hit nothing@.";
        exit 1
      end;
      Format.printf "cache check ok: warm outcomes identical to cold@."
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Self-test the cache end to end: run a flow cold against a \
            throwaway disk store, rerun it warm from a fresh process-level \
            table, and verify the warm outcomes are identical with a \
            nonzero hit rate.  Exits 1 on any divergence.")
      Term.(const run $ paper_flag $ seed_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect, bound and validate the content-addressed stage cache \
          (see $(b,--cache-dir) on flow/sweep/stress).")
    [ stats_cmd; clear_cmd; gc_cmd; check_cmd ]

let () =
  let doc = "VPGA logic-block granularity exploration (DATE 2004 reproduction)" in
  let info = Cmd.info "vpga" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            s3_cmd;
            fa_cmd;
            configs_cmd;
            compaction_cmd;
            tables_cmd;
            flow_cmd;
            sweep_cmd;
            stress_cmd;
            lint_cmd;
            analyze_cmd;
            export_cmd;
            report_cmd;
            perf_cmd;
            cache_cmd;
          ]))
