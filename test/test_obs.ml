(* The observability layer (Vpga_obs): span balance and nesting, the
   counter/gauge registry, the ambient-trace mechanism, Chrome trace-event
   export and readback, the per-stage report, and the contracts the flow
   depends on — tracing changes no result, counters are jobs-independent,
   stage spans cover (almost) all of the flow's wall time, and recovery
   events land on the trace timeline. *)

open Vpga_flow
(* after the open: Vpga_flow also has an Export module (artifacts), so
   the observability aliases must shadow it, not the other way round *)
module Clock = Vpga_obs.Clock
module Span = Vpga_obs.Span
module Trace = Vpga_obs.Trace
module Json = Vpga_obs.Json
module Export = Vpga_obs.Export
module Metrics = Vpga_obs.Metrics
module Pool = Vpga_par.Pool
module Log = Vpga_resil.Log
module Arch = Vpga_plb.Arch

let alu4 = lazy (Vpga_designs.Alu.build ~width:4 ())

(* --- Clock ------------------------------------------------------------ *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare b a >= 0);
  Alcotest.(check (float 1e-9)) "ns_to_s" 1.5 (Clock.ns_to_s 1_500_000_000L)

(* --- Spans ------------------------------------------------------------ *)

let test_span_nesting () =
  let t = Trace.create ~label:"spans" () in
  let r =
    Trace.with_span t "outer" (fun () ->
        Trace.with_span t "inner1" (fun () -> ());
        Trace.with_span t "inner2" (fun () ->
            Trace.with_span t "leaf" (fun () -> ()));
        42)
  in
  Alcotest.(check int) "result through spans" 42 r;
  Alcotest.(check int) "balanced" 0 (Trace.open_spans t);
  (* A span records when it closes: children precede their parents. *)
  let names =
    List.filter_map
      (function Span.Complete { name; depth; _ } -> Some (name, depth) | _ -> None)
      (Trace.events t)
  in
  Alcotest.(check (list (pair string int)))
    "close order and depth"
    [ ("inner1", 1); ("leaf", 2); ("inner2", 1); ("outer", 0) ]
    names;
  (* Children fit inside their parent's interval. *)
  let find n =
    List.find_map
      (function
        | Span.Complete { name; ts_ns; dur_ns; _ } when name = n ->
            Some (ts_ns, Int64.add ts_ns dur_ns)
        | _ -> None)
      (Trace.events t)
    |> Option.get
  in
  let os, oe = find "outer" and is_, ie = find "inner2" in
  Alcotest.(check bool) "child starts after parent" true (is_ >= os);
  Alcotest.(check bool) "child ends before parent" true (ie <= oe)

let test_span_balance_on_exception () =
  let t = Trace.create () in
  (try
     Trace.with_span t "outer" (fun () ->
         Trace.with_span t "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "balanced after raise" 0 (Trace.open_spans t);
  Alcotest.(check int) "both spans recorded" 2 (List.length (Trace.events t))

let test_span_manual_and_double_close () =
  let t = Trace.create () in
  let s = Trace.begin_span t "manual" in
  Alcotest.(check int) "open" 1 (Trace.open_spans t);
  Trace.end_span s;
  Trace.end_span s;
  Alcotest.(check int) "closed once" 1 (List.length (Trace.events t));
  Alcotest.(check int) "no longer open" 0 (Trace.open_spans t)

let test_null_trace_no_ops () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Trace.with_span t "s" (fun () -> ());
  Trace.add t "c" 1.0;
  Trace.set t "g" 2.0;
  Trace.instant t "i";
  let c = Trace.Counter.make t "c" in
  Trace.Counter.incr c;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events t));
  Alcotest.(check int) "no counters" 0 (List.length (Trace.counters t))

(* --- Counters / gauges ------------------------------------------------ *)

let test_counter_registry () =
  let t = Trace.create () in
  Trace.add t "b" 1.0;
  Trace.add t "a" 2.0;
  Trace.add t "b" 3.0;
  Trace.set t "g" 7.0;
  Trace.set t "g" 9.0;
  Alcotest.(check (list (pair string (float 0.0))))
    "counters accumulate, name-sorted"
    [ ("a", 2.0); ("b", 4.0) ]
    (Trace.counters t);
  Alcotest.(check (list (pair string (float 0.0))))
    "gauge keeps latest" [ ("g", 9.0) ] (Trace.gauges t);
  let h = Trace.Counter.make t "a" in
  Trace.Counter.incr h;
  Trace.Counter.add h 10.0;
  Alcotest.(check (float 0.0)) "handle shares the slot" 13.0 (Trace.Counter.value h);
  let g = Trace.Gauge.make t "g" in
  Trace.Gauge.set g 1.0;
  Alcotest.(check (list (pair string (float 0.0))))
    "gauge handle" [ ("g", 1.0) ] (Trace.gauges t)

let test_ambient_scoping () =
  let t = Trace.create () in
  Trace.emit "outside" 1.0;
  Trace.with_ambient t (fun () -> Trace.emit "inside" 2.0);
  Trace.emit "outside" 1.0;
  Alcotest.(check (list (pair string (float 0.0))))
    "only in-scope emissions land" [ ("inside", 2.0) ]
    (Trace.counters t);
  (* with_span installs the ambient trace too. *)
  let t2 = Trace.create () in
  Trace.with_span t2 "s" (fun () -> Trace.emit "k" 5.0);
  Alcotest.(check (list (pair string (float 0.0))))
    "with_span installs ambient" [ ("k", 5.0) ]
    (Trace.counters t2)

(* --- JSON ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Arr [ Json.Num 1.0; Json.Num 2.5; Json.Null ]);
        ("s", Json.Str "q\"uo\\te\n");
        ("b", Json.Bool true);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')

let test_json_escapes_and_errors () =
  (match Json.parse {|"Aé"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape parse");
  (match Json.parse "{\"a\": 1} garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated array accepted");
  (match Json.parse {|"\uzz12"|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-hex \\u escape accepted");
  (* JSON has no NaN: the printer writes non-finite numbers as null, so
     everything it prints parses back. *)
  Alcotest.(check string) "non-finite prints as null" "[null,null,null]"
    (Json.to_string
       (Json.Arr [ Json.Num Float.nan; Json.Num infinity; Json.Num neg_infinity ]))

(* Finite JSON values of bounded depth: integral and fractional numbers
   (the printer has a separate path for each), arbitrary byte strings
   (control characters, quotes, non-ASCII) as values and keys. *)
let json_gen =
  let open QCheck.Gen in
  let num =
    oneof
      [
        map float_of_int int;
        map float_of_int small_signed_int;
        map (fun f -> if Float.is_finite f then f else 0.5) float;
      ]
  in
  let str = string_size ~gen:char (0 -- 8) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) num;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 4)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* Random input over JSON's own alphabet (so the parser gets past the
   first byte) returns a result and never raises. *)
let prop_json_parse_total =
  let alphabet = {|{}[]:,"\u0123456789abcdefnulltrue-+.eE |} in
  QCheck.Test.make ~name:"parse never raises on random input" ~count:2000
    QCheck.(
      string_gen_of_size Gen.(0 -- 40)
        Gen.(map (String.get alphabet) (0 -- (String.length alphabet - 1))))
    (fun src ->
      match Json.parse src with Ok _ | Error _ -> true)

(* --- Chrome export ---------------------------------------------------- *)

let traced_flow ?log ?(seed = 11) () =
  let t = Trace.create ~tid:3 ~label:"alu/granular" () in
  let pair =
    Flow.run ~seed ?log ~trace:t Arch.granular_plb (Lazy.force alu4)
  in
  (t, pair)

let test_chrome_export_valid () =
  let t, _ = traced_flow () in
  let doc = Export.chrome ~process_name:"test" [ t ] in
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "chrome doc is not valid JSON: %s" e
  | Ok doc' -> (
      match Json.member "traceEvents" doc' with
      | Some (Json.Arr events) ->
          Alcotest.(check bool) "has events" true (List.length events > 10);
          List.iter
            (fun ev ->
              let has k = Json.member k ev <> None in
              Alcotest.(check bool) "event has name" true (has "name");
              Alcotest.(check bool) "event has ph" true (has "ph");
              Alcotest.(check bool) "event has pid" true (has "pid"))
            events;
          (* Every complete event's ts is relative to the earliest one. *)
          let ts_of ev = Option.bind (Json.member "ts" ev) Json.to_float in
          let tss = List.filter_map ts_of events in
          Alcotest.(check bool)
            "timestamps rebased to zero" true
            (List.for_all (fun ts -> ts >= 0.0) tss
            && List.exists (fun ts -> ts = 0.0) tss)
      | _ -> Alcotest.fail "no traceEvents array")

let test_flow_span_coverage () =
  let t, _ = traced_flow () in
  let root_dur = ref 0.0 and stage_dur = ref 0.0 in
  List.iter
    (function
      | Span.Complete { name; dur_ns; depth; _ } ->
          let d = Clock.ns_to_s dur_ns in
          if depth = 0 then begin
            Alcotest.(check string) "single root is the flow span" "flow" name;
            root_dur := !root_dur +. d
          end
          else if depth = 1 then stage_dur := !stage_dur +. d
      | Span.Instant _ -> ())
    (Trace.events t);
  Alcotest.(check bool) "root span present" true (!root_dur > 0.0);
  let coverage = !stage_dur /. !root_dur in
  if coverage < 0.95 then
    Alcotest.failf "stage spans cover %.1f%% of the flow (< 95%%)"
      (100.0 *. coverage);
  (* The taxonomy's tentpole stages all appear. *)
  let names =
    List.filter_map
      (function
        | Span.Complete { name; depth = 1; _ } -> Some name | _ -> None)
      (Trace.events t)
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " span present") true
        (List.mem stage names))
    [
      "map"; "pack:quadrisect"; "place:anneal"; "route:a"; "route:b";
      "sta:a"; "sta:b"; "verify:packing"; "verify:regions";
    ]

let test_flow_counters_populated () =
  let t, _ = traced_flow () in
  let c = Trace.counters t in
  let has n = List.mem_assoc n c in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " counted") true (has n))
    [
      "anneal.walks"; "anneal.moves"; "anneal.accepted";
      "route.ripup_iterations"; "route.nets"; "cuts.nodes";
      "cuts.enumerated";
    ];
  Alcotest.(check bool) "moves > 0" true (List.assoc "anneal.moves" c > 0.0)

let test_resil_events_on_timeline () =
  (* Events recorded into the caller's log land on the trace timeline as
     instants, tagged with their stage. *)
  let log = Log.create () in
  Log.record log (Log.Degraded { stage = "verify:cec"; what = "budget" });
  Log.record log
    (Log.Retry { stage = "route"; attempt = 1; reason = "overflow" });
  let t, _ = traced_flow ~log () in
  let instants =
    List.filter_map
      (function Span.Instant { name; _ } -> Some name | _ -> None)
      (Trace.events t)
  in
  Alcotest.(check bool) "degrade instant" true
    (List.mem "resil:degrade" instants);
  Alcotest.(check bool) "retry instant" true (List.mem "resil:retry" instants)

(* Observing is free: a traced flow returns the identical pair and does
   the work of an untraced one, so nothing observation-only (such as
   FlowMap labeling beside the compaction) shows up in its counters. *)
let test_trace_off_same_result () =
  List.iter
    (fun (name, nl) ->
      List.iter
        (fun arch ->
          let label = name ^ "/" ^ arch.Arch.name in
          let run trace = Flow.run ~seed:7 ~trace arch nl in
          let t = Trace.create () in
          let plain = run Trace.null and traced = run t in
          Alcotest.(check bool) (label ^ ": same pair") true
            (compare plain traced = 0);
          List.iter
            (fun (k, _) ->
              if String.starts_with ~prefix:"flowmap." k then
                Alcotest.failf "%s: traced run counted %s" label k)
            (Trace.counters t))
        [ Arch.lut_plb; Arch.granular_plb ])
    (Experiments.designs Experiments.Test)

let test_report_rendering () =
  let t, _ = traced_flow () in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Export.report fmt (Export.chrome [ t ]);
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length out && (String.sub out i n = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("report mentions " ^ s) true (contains s))
    [ "flow"; "place:anneal"; "anneal.moves" ]

(* The snapshot's [stages] block is the depth-1 rows of the same fold
   the report prints: no [flow] root, null traces skipped, and calls and
   allocation words identical to [report --json]'s depth-1 span rows. *)
let test_stage_totals () =
  let t, _ = traced_flow () in
  let stages doc =
    match Json.member "stages" doc with
    | Some (Json.Obj fields) -> fields
    | _ -> Alcotest.fail "no stages object"
  in
  let snap = Export.snapshot [ t; Trace.null ] in
  let block = stages snap in
  Alcotest.(check bool) "nonempty" true (block <> []);
  let names = List.map fst block in
  Alcotest.(check (list string)) "name-sorted" (List.sort compare names) names;
  Alcotest.(check bool) "no root in stage totals" true
    (not (List.mem "flow" names));
  Alcotest.(check bool) "null trace skipped" true
    (block = stages (Export.snapshot [ t ]));
  let num k obj =
    match Option.bind (Json.member k obj) Json.to_float with
    | Some f -> f
    | None -> Alcotest.failf "missing %s" k
  in
  let rows =
    match Json.member "spans" (Export.report_json (Export.chrome [ t ])) with
    | Some (Json.Arr rows) ->
        List.filter_map
          (fun r ->
            if num "depth" r <> 1.0 then None
            else
              Option.map
                (fun n -> (n, r))
                (Option.bind (Json.member "name" r) Json.to_str))
          rows
    | _ -> Alcotest.fail "no spans array"
  in
  Alcotest.(check (list string)) "stages = depth-1 report rows"
    (List.sort compare (List.map fst rows)) names;
  List.iter
    (fun (name, obj) ->
      let row = List.assoc name rows in
      List.iter
        (fun k ->
          Alcotest.(check (float 0.0)) (name ^ " " ^ k) (num k row) (num k obj))
        [ "calls"; "minor_words"; "major_words" ];
      Alcotest.(check bool) (name ^ " wall_s >= 0") true (num "wall_s" obj >= 0.0))
    block

(* --- Sweep integration ------------------------------------------------ *)

let test_sweep_counters_jobs_independent () =
  let designs = [ ("ALU", Lazy.force alu4) ] in
  let sweep jobs =
    Experiments.run_tasks ~seed:1 ~jobs ~traced:true ~designs Experiments.Test
  in
  let c1 = List.map (fun r -> Trace.counters r.Experiments.t_trace) (sweep 1) in
  let c4 = List.map (fun r -> Trace.counters r.Experiments.t_trace) (sweep 4) in
  Alcotest.(check (list (list (pair string (float 0.0)))))
    "counters jobs=1 == jobs=4" c1 c4;
  Alcotest.(check bool) "counters nonempty" true
    (List.for_all (fun c -> c <> []) c1)

let test_pool_run_stats () =
  let tasks = List.init 8 (fun i -> fun () -> Unix.sleepf 0.002; i) in
  let results, st = Pool.run_stats ~jobs:4 tasks in
  Alcotest.(check (list int)) "results" (List.init 8 Fun.id) results;
  Alcotest.(check int) "tasks counted" 8 st.Pool.tasks;
  Alcotest.(check int) "one busy slot per worker" 4
    (Array.length st.Pool.busy_ns);
  let total_busy = Array.fold_left Int64.add 0L st.Pool.busy_ns in
  Alcotest.(check bool) "workers were busy" true (total_busy > 0L);
  Alcotest.(check bool) "queue wait non-negative" true
    (st.Pool.queue_wait_ns >= 0L);
  (* Inline execution: one busy slot, zero queue wait. *)
  let _, st1 = Pool.run_stats ~jobs:1 [ (fun () -> ()); (fun () -> ()) ] in
  Alcotest.(check int) "inline tasks" 2 st1.Pool.tasks;
  Alcotest.(check int) "inline busy slots" 1 (Array.length st1.Pool.busy_ns);
  Alcotest.(check bool) "inline no queue wait" true
    (st1.Pool.queue_wait_ns = 0L)

(* --- Histograms ------------------------------------------------------- *)

let test_histogram_empty_and_single () =
  let h = Metrics.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Metrics.Histogram.count h);
  Alcotest.(check (float 0.0)) "empty p50" 0.0
    (Metrics.Histogram.percentile h 50.0);
  Alcotest.(check bool) "empty bins" true (Metrics.Histogram.bins h = []);
  Metrics.Histogram.add h 42.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single sample p%g" p)
        42.0
        (Metrics.Histogram.percentile h p))
    [ 50.0; 90.0; 99.0 ];
  Alcotest.(check (float 0.0)) "single min" 42.0
    (Metrics.Histogram.min_value h);
  Alcotest.(check (float 0.0)) "single max" 42.0
    (Metrics.Histogram.max_value h)

let test_histogram_rejects_non_finite () =
  let h = Metrics.Histogram.create () in
  Metrics.Histogram.add h 1.0;
  Metrics.Histogram.add h Float.nan;
  Metrics.Histogram.add h Float.infinity;
  Metrics.Histogram.add h Float.neg_infinity;
  Metrics.Histogram.add h 2.0;
  Alcotest.(check int) "finite samples kept" 2 (Metrics.Histogram.count h);
  Alcotest.(check int) "non-finite rejected" 3 (Metrics.Histogram.rejected h);
  Alcotest.(check (float 0.0)) "mean unpolluted" 1.5 (Metrics.Histogram.mean h)

let test_histogram_percentiles_exact () =
  (* 1..100: nearest-rank pK is exactly K. *)
  let h = Metrics.Histogram.create () in
  for i = 100 downto 1 do
    Metrics.Histogram.add h (float_of_int i)
  done;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%g" p) p
        (Metrics.Histogram.percentile h p))
    [ 1.0; 50.0; 90.0; 99.0; 100.0 ]

let test_histogram_bins_monotone () =
  let h = Metrics.Histogram.create () in
  (* Samples across several decades, plus a non-positive one for the
     underflow bin. *)
  List.iter (Metrics.Histogram.add h)
    [ 0.0; 0.003; 0.4; 1.0; 7.0; 7.1; 250.0; 9_000.0; 9_001.0; 1e6 ];
  let bins = Metrics.Histogram.bins h in
  Alcotest.(check bool) "has underflow bin" true
    (match bins with (0.0, 0.0, 1) :: _ -> true | _ -> false);
  let total = List.fold_left (fun a (_, _, n) -> a + n) 0 bins in
  Alcotest.(check int) "bin counts partition the samples"
    (Metrics.Histogram.count h) total;
  let rec monotone = function
    | (lo1, hi1, _) :: ((lo2, hi2, _) :: _ as rest) ->
        lo1 < hi1 && lo1 < lo2 && hi1 <= lo2 && lo2 < hi2 && monotone rest
    | [ (lo, hi, _) ] -> lo < hi || (lo = 0.0 && hi = 0.0)
    | [] -> true
  in
  (* Skip the underflow sentinel when checking edge monotonicity. *)
  let regular = List.filter (fun (_, hi, _) -> hi > 0.0) bins in
  Alcotest.(check bool) "edges strictly increasing" true (monotone regular);
  (* Every positive sample falls inside its bin's [lo, hi). *)
  List.iter
    (fun (lo, hi, _) ->
      Alcotest.(check bool) "bin nonempty by construction" true (lo < hi))
    regular

let test_histogram_merge () =
  let a = Metrics.Histogram.create () and b = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.add a) [ 1.0; 2.0 ];
  List.iter (Metrics.Histogram.add b) [ 3.0; Float.nan ];
  Metrics.Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 3 (Metrics.Histogram.count a);
  Alcotest.(check int) "merged rejects" 1 (Metrics.Histogram.rejected a);
  Alcotest.(check (float 0.0)) "merged p99" 3.0
    (Metrics.Histogram.percentile a 99.0)

(* --- Series ----------------------------------------------------------- *)

let test_series_ordering_and_decimation () =
  let t = Trace.create () in
  let n = 10_000 in
  for i = 1 to n do
    Trace.sample t "probe" (float_of_int i)
  done;
  (match Trace.series t with
  | [ ("probe", samples, offered) ] ->
      Alcotest.(check int) "every offer counted" n offered;
      Alcotest.(check bool) "decimated below the cap" true
        (Array.length samples <= 4096);
      Alcotest.(check bool) "kept a substantial fraction" true
        (Array.length samples >= 1024);
      (* Chronological: timestamps and (here) values non-decreasing. *)
      for i = 1 to Array.length samples - 1 do
        let t0, v0 = samples.(i - 1) and t1, v1 = samples.(i) in
        if Int64.compare t0 t1 > 0 then Alcotest.fail "timestamps regressed";
        if v0 >= v1 then Alcotest.fail "sample order lost"
      done;
      (* Decimation keeps whole-run coverage, not just a prefix. *)
      let _, last = samples.(Array.length samples - 1) in
      Alcotest.(check bool) "tail survives decimation" true
        (last >= float_of_int n *. 0.9)
  | other ->
      Alcotest.failf "expected one series, got %d" (List.length other));
  (* Ambient emission lands on the installed trace; no-op outside. *)
  Trace.emit_sample "ambient" 1.0;
  let t2 = Trace.create () in
  Trace.with_ambient t2 (fun () -> Trace.emit_sample "ambient" 2.0);
  match Trace.series t2 with
  | [ ("ambient", samples, 1) ] ->
      Alcotest.(check int) "one ambient sample" 1 (Array.length samples)
  | _ -> Alcotest.fail "ambient sample did not land"

let test_observe_feeds_histograms () =
  let t = Trace.create () in
  Trace.observe t "net_wl" 10.0;
  Trace.observe t "net_wl" 20.0;
  Trace.with_ambient t (fun () -> Trace.emit_observe "net_wl" 30.0);
  match Trace.histograms t with
  | [ ("net_wl", h) ] ->
      Alcotest.(check int) "three observations" 3 (Metrics.Histogram.count h);
      Alcotest.(check (float 0.0)) "p99 is max" 30.0
        (Metrics.Histogram.percentile h 99.0)
  | other -> Alcotest.failf "expected one histogram, got %d" (List.length other)

(* --- GC accounting ---------------------------------------------------- *)

let test_span_gc_deltas_non_negative () =
  let t = Trace.create () in
  let sink = Sys.opaque_identity (ref []) in
  (* A minor collection inside each span promotes its allocation; the
     deltas must stay non-negative with promotion excluded. *)
  let churn () =
    sink := List.init 10_000 (fun i -> string_of_int i) :: !sink;
    Gc.minor ()
  in
  Trace.with_span t "outer" (fun () ->
      churn ();
      Trace.with_span t "inner" (fun () -> churn ()));
  let checked = ref 0 in
  List.iter
    (function
      | Span.Complete { name; attrs; _ } ->
          let fattr k =
            match List.assoc_opt k attrs with
            | Some (Span.Float f) -> f
            | _ -> Alcotest.failf "%s: missing %s" name k
          in
          let iattr k =
            match List.assoc_opt k attrs with
            | Some (Span.Int i) -> i
            | _ -> Alcotest.failf "%s: missing %s" name k
          in
          incr checked;
          Alcotest.(check bool) (name ^ " minor_words >= 0") true
            (fattr "gc.minor_words" >= 0.0);
          Alcotest.(check bool) (name ^ " major_words >= 0") true
            (fattr "gc.major_words" >= 0.0);
          Alcotest.(check bool) (name ^ " collections >= 0") true
            (iattr "gc.major_collections" >= 0);
          (* Both spans allocated ~10k list cells: the minor delta cannot
             be zero. *)
          Alcotest.(check bool) (name ^ " saw the allocation") true
            (fattr "gc.minor_words" > 0.0)
      | Span.Instant _ -> ())
    (Trace.events t);
  Alcotest.(check int) "both spans carried GC attrs" 2 !checked

(* A span's allocation words are exact, with no collection forced: 100k
   int list cells are 300k minor words (plus the span's own bookkeeping),
   and a 1000-element array is one 1001-word block allocated directly in
   the major heap.  Any promotion a minor collection does inside the span
   is not charged to it. *)
let test_span_gc_deltas_exact () =
  let t = Trace.create () in
  let rec cells acc n = if n = 0 then acc else cells (n :: acc) (n - 1) in
  let keep = ref [] and big = ref [||] in
  for _ = 1 to 3 do
    Trace.with_span t "alloc" (fun () ->
        keep := Sys.opaque_identity (cells [] 100_000);
        big := Sys.opaque_identity (Array.make 1000 0))
  done;
  let spans =
    List.filter_map
      (function
        | Span.Complete { attrs; _ } ->
            let f k =
              match List.assoc_opt k attrs with
              | Some (Span.Float v) -> v
              | _ -> Alcotest.failf "missing %s" k
            in
            Some (f "gc.minor_words", f "gc.major_words")
        | Span.Instant _ -> None)
      (Trace.events t)
  in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  List.iter
    (fun (minor, major) ->
      Alcotest.(check bool)
        (Printf.sprintf "minor words %.0f = 300000 + bookkeeping" minor)
        true
        (minor >= 300_000.0 && minor < 300_256.0);
      Alcotest.(check (float 0.0)) "major words = the array" 1001.0 major)
    spans;
  Alcotest.(check bool) "identical deltas" true
    (List.for_all (( = ) (List.hd spans)) spans)

(* --- Metrics snapshot and diff ---------------------------------------- *)

let diff ?tolerance ~base ~current () =
  match Metrics.diff ?tolerance ~base ~current () with
  | Ok deltas -> deltas
  | Error e -> Alcotest.failf "diff refused: %s" e

let test_snapshot_valid_and_diff_clean () =
  let t, _ = traced_flow () in
  let doc = Export.snapshot ~label:"test" [ t ] in
  (match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "snapshot is not valid JSON: %s" e
  | Ok doc' ->
      Alcotest.(check bool) "schema tagged" true
        (Json.member "schema" doc' = Some (Json.Str "vpga-metrics/1"));
      (match Json.member "counters" doc' with
      | Some (Json.Obj fields) ->
          Alcotest.(check bool) "counters populated" true (fields <> [])
      | _ -> Alcotest.fail "no counters object");
      match Json.member "histograms" doc' with
      | Some (Json.Obj fields) ->
          Alcotest.(check bool) "span histograms present" true
            (List.exists (fun (k, _) -> k = "span:flow") fields)
      | _ -> Alcotest.fail "no histograms object");
  (* A snapshot diffed against itself never regresses. *)
  let deltas = diff ~base:doc ~current:doc () in
  Alcotest.(check bool) "self-diff compares something" true (deltas <> []);
  Alcotest.(check int) "self-diff is clean" 0
    (List.length (Metrics.regressions deltas))

(* Every proper prefix of a real snapshot is an [Error], never an
   exception. *)
let test_truncated_snapshot_prefixes () =
  let t, _ = traced_flow () in
  let src = Json.to_string (Export.snapshot [ t ]) in
  for len = 0 to String.length src - 1 do
    match Json.parse (String.sub src 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of length %d parsed" len
    | exception e ->
        Alcotest.failf "prefix of length %d raised %s" len
          (Printexc.to_string e)
  done

(* The wrong document is refused, not summarized as empty: [perf diff]
   on anything but two metrics snapshots, [report] on a file without a
   [traceEvents] array. *)
let test_wrong_documents_refused () =
  let t, _ = traced_flow () in
  let snap = Export.snapshot [ t ] and trace = Export.chrome [ t ] in
  let refused what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  refused "trace as current" (Metrics.diff ~base:snap ~current:trace ());
  refused "trace as base" (Metrics.diff ~base:trace ~current:snap ());
  refused "other schema"
    (Metrics.diff ~base:snap
       ~current:(Json.Obj [ ("schema", Json.Str "vpga-report/1") ])
       ());
  let file = Filename.temp_file "vpga_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Export.write_snapshot file [ t ];
      refused "snapshot as a trace" (Export.load file);
      Export.write_chrome file [ t ];
      match Export.load file with
      | Ok doc -> Alcotest.(check bool) "trace loads" true (doc = trace)
      | Error e -> Alcotest.failf "trace refused: %s" e)

let counters_snap kvs =
  Json.Obj
    [
      ("schema", Json.Str "vpga-metrics/1");
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs));
    ]

let test_diff_flags_seeded_regression () =
  let base = counters_snap [ ("route.ripups", 100.0) ] in
  let bad = counters_snap [ ("route.ripups", 1000.0) ] in
  let deltas = diff ~tolerance:0.25 ~base ~current:bad () in
  (match Metrics.regressions deltas with
  | [ d ] ->
      Alcotest.(check string) "key" "counter route.ripups" d.Metrics.d_key;
      Alcotest.(check bool) "flagged" true d.Metrics.d_regressed
  | other -> Alcotest.failf "expected 1 regression, got %d" (List.length other));
  (* A generous tolerance absorbs the same change... *)
  Alcotest.(check int) "tolerance respected" 0
    (List.length
       (Metrics.regressions (diff ~tolerance:20.0 ~base ~current:bad ())));
  (* ...improvements never flag... *)
  Alcotest.(check int) "improvement is not a regression" 0
    (List.length
       (Metrics.regressions (diff ~base:bad ~current:base ())));
  (* ...and a counter appearing from a zero baseline does. *)
  let appeared = counters_snap [ ("route.ripups", 100.0); ("new", 1.0) ] in
  Alcotest.(check int) "new-from-zero flags" 1
    (List.length
       (Metrics.regressions (diff ~base ~current:appeared ())))

let test_diff_time_noise_floor () =
  (* Sub-floor timings are measurement noise: a huge relative change on a
     microscopic baseline must not flag; the same ratio above the floor
     must. *)
  let hist_snap p50 =
    Json.Obj
      [
        ("schema", Json.Str "vpga-metrics/1");
        ( "histograms",
          Json.Obj
            [
              ( "span:blink_us",
                Json.Obj [ ("count", Json.Num 1.0); ("p50", Json.Num p50) ] );
            ] );
      ]
  in
  Alcotest.(check int) "sub-floor jitter ignored" 0
    (List.length
       (Metrics.regressions
          (diff ~base:(hist_snap 5.0) ~current:(hist_snap 500.0) ())));
  Alcotest.(check int) "sub-floor span duration ignored" 0
    (List.length
       (Metrics.regressions
          (diff ~base:(hist_snap 5000.0) ~current:(hist_snap 9000.0) ())));
  Alcotest.(check int) "above the floor it flags" 1
    (List.length
       (Metrics.regressions
          (diff ~base:(hist_snap 50_000.0)
             ~current:(hist_snap 500_000.0) ())))

let test_report_json_shape () =
  let t, _ = traced_flow () in
  let rep = Export.report_json (Export.chrome [ t ]) in
  match Json.parse (Json.to_string rep) with
  | Error e -> Alcotest.failf "report JSON invalid: %s" e
  | Ok rep' ->
      Alcotest.(check bool) "schema tagged" true
        (Json.member "schema" rep' = Some (Json.Str "vpga-report/1"));
      (match Json.member "spans" rep' with
      | Some (Json.Arr rows) ->
          Alcotest.(check bool) "span rows" true (List.length rows > 3);
          List.iter
            (fun row ->
              List.iter
                (fun k ->
                  Alcotest.(check bool) ("span row has " ^ k) true
                    (Json.member k row <> None))
                [ "name"; "depth"; "calls"; "total_ms"; "minor_words" ])
            rows
      | _ -> Alcotest.fail "no spans array");
      match Json.member "counters" rep' with
      | Some (Json.Obj fields) ->
          Alcotest.(check bool) "counters present" true (fields <> [])
      | _ -> Alcotest.fail "no counters object"

(* --- Pool wait samples ------------------------------------------------ *)

let test_pool_wait_samples_and_publish () =
  let tasks = List.init 8 (fun i -> fun () -> Unix.sleepf 0.002; i) in
  let _, st = Pool.run_stats ~jobs:2 tasks in
  Alcotest.(check int) "one wait sample per task" 8
    (Array.length st.Pool.wait_samples_ns);
  Array.iter
    (fun w ->
      Alcotest.(check bool) "waits non-negative" true (Int64.compare w 0L >= 0))
    st.Pool.wait_samples_ns;
  let total = Array.fold_left Int64.add 0L st.Pool.wait_samples_ns in
  Alcotest.(check bool) "samples sum to the aggregate" true
    (total = st.Pool.queue_wait_ns);
  let t = Trace.create () in
  Pool.publish_stats st t;
  Alcotest.(check bool) "tasks gauge" true
    (List.assoc_opt "pool.tasks" (Trace.gauges t) = Some 8.0);
  (match List.assoc_opt "pool.queue_wait_us" (Trace.histograms t) with
  | Some h -> Alcotest.(check int) "wait histogram fed" 8
      (Metrics.Histogram.count h)
  | None -> Alcotest.fail "no queue-wait histogram");
  (* Inline execution: defined, all-zero waits. *)
  let _, st1 = Pool.run_stats ~jobs:1 [ (fun () -> ()); (fun () -> ()) ] in
  Alcotest.(check int) "inline wait samples" 2
    (Array.length st1.Pool.wait_samples_ns);
  Array.iter
    (fun w -> Alcotest.(check bool) "inline waits zero" true (w = 0L))
    st1.Pool.wait_samples_ns

(* --- Resil log timestamps --------------------------------------------- *)

let test_log_timestamps () =
  let log = Log.create () in
  Log.record log (Log.Retry { stage = "s"; attempt = 1; reason = "r" });
  Log.record log (Log.Escalation { stage = "s"; what = "w" });
  Log.record log (Log.Degraded { stage = "s"; what = "w" });
  let timed = Log.timed log in
  Alcotest.(check int) "all recorded" 3 (List.length timed);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) ->
        Int64.compare a.Log.at_ns b.Log.at_ns <= 0 && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps non-decreasing" true (nondecreasing timed);
  (* The string rendering predates the timestamps and must not change:
     failure records and tests key on it. *)
  Alcotest.(check (list string))
    "event_to_string stable"
    [
      "retry s (attempt 1): r"; "escalate s: w"; "degrade s: w";
    ]
    (Log.strings log)

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and close order" `Quick test_span_nesting;
          Alcotest.test_case "balance on exception" `Quick
            test_span_balance_on_exception;
          Alcotest.test_case "manual and double close" `Quick
            test_span_manual_and_double_close;
          Alcotest.test_case "null trace no-ops" `Quick test_null_trace_no_ops;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters and gauges" `Quick test_counter_registry;
          Alcotest.test_case "ambient scoping" `Quick test_ambient_scoping;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes and errors" `Quick
            test_json_escapes_and_errors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_parse_total;
          Alcotest.test_case "truncated snapshot prefixes" `Quick
            test_truncated_snapshot_prefixes;
        ] );
      ( "flow tracing",
        [
          Alcotest.test_case "chrome export is valid JSON" `Quick
            test_chrome_export_valid;
          Alcotest.test_case "stage spans cover the flow" `Quick
            test_flow_span_coverage;
          Alcotest.test_case "inner-loop counters populated" `Quick
            test_flow_counters_populated;
          Alcotest.test_case "resil events become instants" `Quick
            test_resil_events_on_timeline;
          Alcotest.test_case "tracing changes no result" `Quick
            test_trace_off_same_result;
          Alcotest.test_case "report renders stages" `Quick
            test_report_rendering;
          Alcotest.test_case "stage totals" `Quick test_stage_totals;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "empty and single sample" `Quick
            test_histogram_empty_and_single;
          Alcotest.test_case "non-finite rejection" `Quick
            test_histogram_rejects_non_finite;
          Alcotest.test_case "exact nearest-rank percentiles" `Quick
            test_histogram_percentiles_exact;
          Alcotest.test_case "log bins monotone and complete" `Quick
            test_histogram_bins_monotone;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "series",
        [
          Alcotest.test_case "ordering and decimation" `Quick
            test_series_ordering_and_decimation;
          Alcotest.test_case "observe feeds histograms" `Quick
            test_observe_feeds_histograms;
        ] );
      ( "gc accounting",
        [
          Alcotest.test_case "span deltas non-negative" `Quick
            test_span_gc_deltas_non_negative;
          Alcotest.test_case "span deltas exact" `Quick
            test_span_gc_deltas_exact;
        ] );
      ( "metrics diff",
        [
          Alcotest.test_case "snapshot valid, self-diff clean" `Quick
            test_snapshot_valid_and_diff_clean;
          Alcotest.test_case "seeded regression flags" `Quick
            test_diff_flags_seeded_regression;
          Alcotest.test_case "time noise floor" `Quick
            test_diff_time_noise_floor;
          Alcotest.test_case "report --json shape" `Quick
            test_report_json_shape;
          Alcotest.test_case "wrong documents refused" `Quick
            test_wrong_documents_refused;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "counters jobs=1 == jobs=4" `Slow
            test_sweep_counters_jobs_independent;
          Alcotest.test_case "pool run_stats" `Quick test_pool_run_stats;
          Alcotest.test_case "pool wait samples + publish" `Quick
            test_pool_wait_samples_and_publish;
        ] );
      ( "resil log",
        [ Alcotest.test_case "timestamps" `Quick test_log_timestamps ] );
    ]
