(* The repository benchmark: four workloads through the public flow API,
   timed end to end with tracing off, or broken down per layer by a
   separate traced pass.

     vpga_bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   Workloads (the reason for each, and which layer metric should move which
   end-to-end metric on which workload, are in perfbench/layers.json):

   - paper_sweep     the paper's Tables 1-2: 4 Paper-scale designs x
                     {lut_plb, granular_plb}, both flows, verify=Fast, a
                     fresh in-memory stage cache per sweep (every lookup
                     misses: the cache write path);
   - request_stream  one closed-loop client sending 240 Flow.run requests
                     over 24 Test-scale jobs (4 designs x 2 PLBs x flow
                     seeds 1..3), each job 10 times in a seeded order, all
                     sharing one cache (the cache read path);
   - minchan_stress  Minchan.stress at Test scale, defect rate 0.05, one
                     map per (design, PLB), w_max 64, stress seed 1, no
                     cache, called once per design; its inputs are fixed
                     (the router);
   - formal_verify   4 Test-scale designs x 2 PLBs at verify=Formal (the
                     SAT/CEC gates).

   The seed is the only input: it drives the flow seeds and the request
   order.  Everything runs on the calling domain (jobs=1).

   Set-up (building the designs, warming the architecture tables, drawing
   the request order) runs in five batches of 100 and reports
   the median batch mean.
   The workload then repeats until [--seconds] have passed, each repetition
   on a fresh cache.  With [--trace 1] every repetition is an untraced run
   followed by a traced one; the per-layer numbers come from the first
   traced run, aggregated over every span at every depth.

   The last line of standard output is one JSON object
     {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value": V, "unit": U}}}
   carrying the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1).  Earlier lines stamp provenance and list the metrics. *)

module E = Vpga_flow.Experiments
module Flow = Vpga_flow.Flow
module Minchan = Vpga_flow.Minchan
module Cache = Vpga_cache.Cache
module Trace = Vpga_obs.Trace
module Span = Vpga_obs.Span
module Clock = Vpga_obs.Clock
module Histogram = Vpga_obs.Metrics.Histogram
module Arch = Vpga_plb.Arch

(* Flow.run's and Minchan.search's default target period.  Slack is
   negative on every design, so the quality metric is the path delay
   [period - slack], which is positive and lower-is-better. *)
let period_ps = 500.0

let elapsed_s t0 = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0)

let timed f =
  let t0 = Clock.now_ns () in
  let v = f () in
  (v, elapsed_s t0)

(* Exact nearest-rank percentile, [p] in [0, 1]; 0 on no samples. *)
let percentile p xs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) xs;
  Histogram.percentile h (100.0 *. p)

let median xs = percentile 0.5 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

(* ---------- workloads ---------- *)

(* One operation of a workload: a request, or one public-API call. *)
type op = {
  ms : float;
  ok : bool;  (** completed, and (for a repeat) equal to the first result *)
  repeat : bool;  (** its job was computed earlier in this repetition *)
}

(* One computed answer: a flow-b outcome, or a W_min search's result at
   its W_min. *)
type answer = {
  area_um2 : float;
  delay_ps : float;
  wire_um : float;
  w_min : int option;  (** [None] for a flow outcome *)
}

type iteration = {
  ops : op list;
  checks : (string * bool) list;
  answers : answer list;
  traces : Trace.t list;  (** per-task traces; empty when untraced *)
  cache : Cache.stats;
}

type workload = {
  name : string;
  uses_cache : bool;
  cold_check : bool;
      (** the traced pass also runs once on [Cache.none], for
          [cache.cold_overhead_s] *)
  formal : bool;
  setup : seed:int -> Trace.t -> Trace.t -> cache:Cache.t -> iteration;
      (** [setup ~seed bt] generates the inputs (recording its spans on
          [bt]) and returns the repetition to time.  A repetition given an
          enabled trace runs traced and records the benchmark's own spans
          on it. *)
}

let build_designs bt scale =
  Trace.with_span bt "arches:prewarm" Vpga_plb.Config.prewarm;
  Trace.with_span bt "designs:build" (fun () -> E.designs scale)

let answer_of_outcome (o : Flow.outcome) =
  {
    area_um2 = o.die_area;
    delay_ps = period_ps -. o.avg_top10_slack;
    wire_um = o.wirelength;
    w_min = None;
  }

(* The sweep workloads call [run_tasks] once per design, so each design's
   two tasks form one timed operation. *)
let sweep ~scale ~verify ~headline_checks ~seed bt =
  let designs = build_designs bt scale in
  fun bt ~cache ->
    let traced = Trace.enabled bt in
    let per_design =
      List.map
        (fun d ->
          timed (fun () ->
              Trace.with_span bt "bench:run_tasks" (fun () ->
                  E.run_tasks ~seed ~jobs:1 ~verify ~traced ~cache
                    ~designs:[ d ] scale)))
        designs
    in
    let reports = List.concat_map fst per_design in
    let task_ok r = Result.is_ok r.E.t_result in
    let all_ok = List.for_all task_ok reports in
    let checks =
      if not headline_checks then []
      else
        let h =
          if all_ok then Some (E.headlines (E.rows reports)) else None
        in
        let claim name f =
          (name, match h with Some h -> f h | None -> false)
        in
        [
          claim "Firewire area reversal" (fun h -> h.E.firewire_reversal);
          claim "granular datapath area reduction > 0" (fun h ->
              h.E.datapath_area_reduction > 0.0);
          claim "granular top-10 slack improvement > 0" (fun h ->
              h.E.slack_improvement > 0.0);
        ]
    in
    {
      ops =
        List.map
          (fun (rs, s) ->
            { ms = 1000.0 *. s; ok = List.for_all task_ok rs; repeat = false })
          per_design;
      checks;
      answers =
        List.filter_map
          (fun r ->
            match r.E.t_result with
            | Ok p -> Some (answer_of_outcome p.Flow.b)
            | Error _ -> None)
          reports;
      traces = List.map (fun r -> r.E.t_trace) reports;
      cache = Cache.stats cache;
    }

(* Every field of both outcomes except the architecture record, encoded
   exactly (floats bit for bit, no sharing) so equal strings mean equal
   results. *)
let fingerprint (p : Flow.pair) =
  let proj (o : Flow.outcome) =
    ( (o.design, o.arch.Arch.name, o.kind, o.die_area, o.cell_area),
      (o.gate_count, o.avg_top10_slack, o.wns, o.wirelength, o.array_dims),
      (o.tiles_used, o.compaction_gain, o.config_histogram, o.displacement),
      (o.displacement_tiles, o.power_uw, o.routed_vias) )
  in
  Marshal.to_string (proj p.a, proj p.b) [ Marshal.No_sharing ]

let request_stream ~seed bt =
  let designs = build_designs bt E.Test in
  let jobs =
    Trace.with_span bt "requests:draw" (fun () ->
        Array.of_list
          (List.concat_map
             (fun (_, nl) ->
               List.concat_map
                 (fun arch -> List.map (fun s -> (nl, arch, s)) [ 1; 2; 3 ])
                 [ Arch.lut_plb; Arch.granular_plb ])
             designs))
  in
  let n = Array.length jobs in
  let stream = Array.init (10 * n) (fun i -> i mod n) in
  let rng = Random.State.make [| seed |] in
  for i = Array.length stream - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = stream.(i) in
    stream.(i) <- stream.(j);
    stream.(j) <- t
  done;
  (* One trace carries both the benchmark's request spans and the flow
     spans under them. *)
  fun trace ~cache ->
    let first = Array.make n None in
    let ops =
      Array.to_list
        (Array.map
           (fun j ->
             let nl, arch, s = jobs.(j) in
             let result, secs =
               timed (fun () ->
                   try
                     Some
                       (Trace.with_span trace "bench:request" (fun () ->
                            Flow.run ~seed:s ~jobs:1 ~verify:Flow.Fast ~cache
                              ~trace ~trace_labels:false arch nl))
                   with _ -> None)
             in
             let ms = 1000.0 *. secs in
             match (result, first.(j)) with
             | None, prev -> { ms; ok = false; repeat = Option.is_some prev }
             | Some p, None ->
                 first.(j) <- Some (fingerprint p, p);
                 { ms; ok = true; repeat = false }
             | Some p, Some (fp, _) ->
                 { ms; ok = String.equal (fingerprint p) fp; repeat = true })
           stream)
    in
    {
      ops;
      checks = [];
      answers =
        Array.to_list first
        |> List.filter_map (Option.map (fun (_, p) -> answer_of_outcome p.Flow.b));
      traces = [];
      cache = Cache.stats cache;
    }

(* [Minchan.stress] at one defect rate, one map per (design, PLB), called
   once per design.  The stress seed is fixed at 1, like the designs: it
   draws the defect maps and the search seeds, and every search on its
   maps finds a W_min.  Maps drawn from the benchmark seed made a run's
   figures depend mostly on the draw (W_min and wirelength moved by
   10-30% from seed to seed, and some maps cut a design off at any
   width).  The benchmark seed is not used: shuffling the design order
   with it moved the peak heap by one heap-growth step (~12%). *)
let minchan_stress ~seed:_ bt =
  let designs = build_designs bt E.Test in
  fun trace ~cache ->
    let traced = Trace.enabled trace in
    let calls =
      List.map
        (fun d ->
          timed (fun () ->
              try
                Some
                  (Trace.with_span trace "bench:stress" (fun () ->
                       Minchan.stress ~seed:1 ~jobs:1 ~rates:[ 0.05 ]
                         ~maps_per_rate:1 ~w_max:64 ~traced ~cache
                         ~designs:[ d ] E.Test))
              with _ -> None))
        designs
    in
    let points =
      List.concat_map
        (fun (r, _) -> match r with Some r -> r.Minchan.r_points | None -> [])
        calls
    in
    (* A search that finds no routable width up to [w_max], or raises, is
       a failed check. *)
    let survived (p : Minchan.point) =
      match p.p_result with
      | Ok { w_min = Some w; metrics = Some m; array_area; _ } ->
          Some
            {
              area_um2 = array_area;
              delay_ps = period_ps -. m.Minchan.wns;
              wire_um = m.Minchan.wirelength;
              w_min = Some w;
            }
      | Ok _ | Error _ -> None
    in
    {
      ops =
        List.map
          (fun (r, s) -> { ms = 1000.0 *. s; ok = Option.is_some r; repeat = false })
          calls;
      checks =
        List.map
          (fun (p : Minchan.point) ->
            ( Printf.sprintf "%s/%s finds a W_min" p.p_design p.p_arch.Arch.name,
              Option.is_some (survived p) ))
          points;
      answers = List.filter_map survived points;
      traces = List.map (fun (p : Minchan.point) -> p.p_trace) points;
      cache = Cache.stats cache;
    }

let workloads =
  [
    {
      name = "paper_sweep";
      uses_cache = true;
      cold_check = true;
      formal = false;
      setup =
        (fun ~seed bt ->
          sweep ~scale:E.Paper ~verify:Flow.Fast ~headline_checks:true ~seed bt);
    };
    {
      name = "request_stream";
      uses_cache = true;
      cold_check = false;
      formal = false;
      setup = request_stream;
    };
    {
      name = "minchan_stress";
      uses_cache = false;
      cold_check = false;
      formal = false;
      setup = minchan_stress;
    };
    {
      name = "formal_verify";
      uses_cache = true;
      cold_check = false;
      formal = true;
      setup =
        (fun ~seed bt ->
          sweep ~scale:E.Test ~verify:Flow.Formal ~headline_checks:false ~seed
            bt);
    };
  ]

(* ---------- span aggregation ---------- *)

type span_rec = { sname : string; ts : int64; dur : int64; depth : int; minor : float }

type stage = {
  mutable total_s : float;
  mutable self_s : float;
  mutable minor_words : float;
  mutable count : int;
}

(* Totals, self times (duration minus direct children) and minor words of
   every span name, over all traces and all depths. *)
let aggregate traces =
  let tbl = Hashtbl.create 64 in
  let stage name =
    match Hashtbl.find_opt tbl name with
    | Some s -> s
    | None ->
        let s = { total_s = 0.0; self_s = 0.0; minor_words = 0.0; count = 0 } in
        Hashtbl.replace tbl name s;
        s
  in
  List.iter
    (fun tr ->
      let spans =
        List.filter_map
          (function
            | Span.Complete { name; ts_ns; dur_ns; depth; attrs } ->
                let minor =
                  match List.assoc_opt "gc.minor_words" attrs with
                  | Some (Span.Float f) -> f
                  | _ -> 0.0
                in
                Some { sname = name; ts = ts_ns; dur = dur_ns; depth; minor }
            | Span.Instant _ -> None)
          (Trace.events tr)
      in
      (* Parents start no later than their children and sit one level
         shallower, so in (start, depth) order the open ancestors form a
         stack. *)
      let spans =
        List.stable_sort
          (fun a b ->
            match Int64.compare a.ts b.ts with
            | 0 -> Int.compare a.depth b.depth
            | c -> c)
          spans
      in
      let stack = ref [] in
      List.iter
        (fun sp ->
          let d = Clock.ns_to_s sp.dur in
          let st = stage sp.sname in
          st.total_s <- st.total_s +. d;
          st.self_s <- st.self_s +. d;
          st.minor_words <- st.minor_words +. sp.minor;
          st.count <- st.count + 1;
          let rec pop = function
            | p :: rest when p.depth >= sp.depth -> pop rest
            | l -> l
          in
          stack := pop !stack;
          (match !stack with
          | p :: _ when p.depth = sp.depth - 1 ->
              let ps = stage p.sname in
              ps.self_s <- ps.self_s -. d
          | _ -> ());
          stack := sp :: !stack)
        spans)
    traces;
  tbl

(* A percentile (p in [0, 1]) of a span's durations over [traces], in
   microseconds, from the [span:<name>] histograms the traces record. *)
let span_percentile traces name p =
  let h = Histogram.create () in
  List.iter
    (fun tr ->
      match List.assoc_opt ("span:" ^ name) (Trace.histograms tr) with
      | Some x -> Histogram.merge ~into:h x
      | None -> ())
    traces;
  Histogram.percentile h (100.0 *. p)

let counter traces name =
  sum
    (List.map
       (fun tr -> Option.value ~default:0.0 (List.assoc_opt name (Trace.counters tr)))
       traces)

(* Series record one sample per walk; their sum is the walk total. *)
let series_total traces name =
  sum
    (List.map
       (fun tr ->
         match List.find_opt (fun (n, _, _) -> n = name) (Trace.series tr) with
         | Some (_, samples, _) -> sum (Array.to_list (Array.map snd samples))
         | None -> 0.0)
       traces)

let instants ?stage_prefix traces name =
  List.fold_left
    (fun acc tr ->
      List.fold_left
        (fun acc ev ->
          match ev with
          | Span.Instant { name = n; attrs; _ } when n = name -> (
              match stage_prefix with
              | None -> acc + 1
              | Some pre -> (
                  match List.assoc_opt "stage" attrs with
                  | Some (Span.Str s) when String.starts_with ~prefix:pre s ->
                      acc + 1
                  | _ -> acc))
          | _ -> acc)
        acc (Trace.events tr))
    0 traces

(* ---------- metrics ---------- *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

let ops_of its = List.concat_map (fun (it, _) -> it.ops) its

(* A repetition's operations and checks, plus one check per later
   repetition that its answers equal the first repetition's. *)
let tally its =
  let first = match its with (it, _) :: _ -> it.answers | [] -> [] in
  let checks =
    List.concat_map (fun (it, _) -> List.map snd it.checks) its
    @ List.map (fun (it, _) -> it.answers = first) (List.tl its)
  in
  let outcomes = List.map (fun o -> o.ok) (ops_of its) @ checks in
  ( List.length outcomes,
    List.length (List.filter not outcomes) )

(* Latency percentiles are taken within each repetition, then the median
   over repetitions is reported.  Pooled over repetitions, the batch
   workloads' four designs form four clusters of samples and the
   nearest-rank median lands on the slowest sample of one cluster, so a
   single slow operation moved it by up to 70%. *)
let end_to_end ~setup_s its =
  let rep_percentile p =
    median
      (List.map (fun (it, _) -> percentile p (List.map (fun o -> o.ms) it.ops)) its)
  in
  let answers = match its with (it, _) :: _ -> it.answers | [] -> [] in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  [
    m "setup_s" "s" setup_s;
    m "wall_s" "s" (median (List.map snd its));
    m "request_p50_ms" "ms" (rep_percentile 0.50);
    m "request_p95_ms" "ms" (rep_percentile 0.95);
    m "peak_heap_mb" "MB" heap_mb;
    m "die_area_mm2" "mm2" (sum (List.map (fun a -> a.area_um2) answers) /. 1e6);
    m "path_delay_ps" "ps" (mean (List.map (fun a -> a.delay_ps) answers));
    m "wirelength_mm" "mm"
      (sum (List.map (fun a -> a.wire_um) answers) /. 1e3);
  ]

type traced_run = {
  it : iteration;
  bench_trace : Trace.t;
  wall_s : float;
  gc_minor : float;
  gc_major : int;
}

let per_layer w ~designs_build_s ~untraced ~traced ~traced_walls ~cold_walls =
  let t = traced in
  let traces = t.bench_trace :: t.it.traces in
  let agg = aggregate traces in
  let get f names =
    sum
      (List.map
         (fun n -> match Hashtbl.find_opt agg n with Some s -> f s | None -> 0.0)
         names)
  in
  let secs = get (fun s -> s.total_s) in
  let mwords names = get (fun s -> s.minor_words) names /. 1e6 in
  let c = counter traces in
  let verify_equiv = [ "verify:techmap"; "verify:compact"; "verify:buffer" ] in
  let verify_phys =
    Hashtbl.fold
      (fun n _ acc ->
        if String.starts_with ~prefix:"verify:" n && not (List.mem n verify_equiv)
        then n :: acc
        else acc)
      agg []
  in
  let map_st = [ "map"; "compact" ] in
  let place_st = [ "buffer"; "place:global"; "place:anneal" ] in
  let pack_st = [ "pack:quadrisect"; "pack:snap"; "pack:refine" ] in
  let route_st = [ "route:a"; "route:b"; "minchan:probe" ] in
  let sta_st = [ "sta:pre"; "sta:a"; "sta:b"; "minchan:sta" ] in
  let power_st = [ "power:activities"; "power:a"; "power:b" ] in
  let refine_moves = c "refine.region_moves" +. c "refine.boundary_moves" in
  let refine_accepted =
    series_total traces "refine.region_accepted"
    +. series_total traces "refine.boundary_accepted"
  in
  let cs = t.it.cache in
  let lookups = float_of_int (cs.Cache.hits + cs.Cache.misses) in
  let ops = ops_of untraced in
  let p50_where f =
    match List.filter f ops with
    | l when w.uses_cache && l <> [] -> median (List.map (fun o -> o.ms) l)
    | _ -> 0.0
  in
  let equiv_gates = get (fun s -> float_of_int s.count) verify_equiv in
  let proved_frac =
    if not w.formal then 0.0
    else
      ratio
        (equiv_gates
        -. float_of_int (instants ~stage_prefix:"verify:" traces "resil:degrade"))
        equiv_gates
  in
  let w_mins = List.filter_map (fun a -> a.w_min) t.it.answers in
  let untraced_wall = median (List.map snd untraced) in
  [
    m "designs.build_s" "s" designs_build_s;
    m "mapper.map_s" "s" (secs [ "map" ]);
    m "mapper.compact_s" "s" (secs [ "compact" ]);
    m "mapper.minor_mwords" "Mwords" (mwords map_st);
    m "cuts.enumerated" "count" (c "cuts.enumerated");
    m "place.buffer_s" "s" (secs [ "buffer" ]);
    m "place.global_s" "s" (secs [ "place:global" ]);
    m "place.anneal_s" "s" (secs [ "place:anneal" ]);
    m "place.minor_mwords" "Mwords" (mwords place_st);
    m "anneal.moves" "count" (c "anneal.moves");
    m "anneal.accept_ratio" "ratio" (ratio (c "anneal.accepted") (c "anneal.moves"));
    m "pack.quadrisect_s" "s" (secs [ "pack:quadrisect" ]);
    m "pack.refine_s" "s" (secs [ "pack:refine" ]);
    m "pack.minor_mwords" "Mwords" (mwords pack_st);
    m "pack.fits_calls" "count" (c "pack.fits_calls");
    m "pack.fits_hit_ratio" "ratio"
      (ratio (c "pack.fits_cache_hits") (c "pack.fits_calls"));
    m "refine.moves" "count" refine_moves;
    m "refine.accept_ratio" "ratio" (ratio refine_accepted refine_moves);
    m "route.a_s" "s" (secs [ "route:a" ]);
    m "route.b_s" "s" (secs [ "route:b" ]);
    m "route.probe_s" "s" (secs [ "minchan:probe" ]);
    m "route.probe_p50_ms" "ms"
      (span_percentile traces "minchan:probe" 0.5 /. 1000.0);
    m "route.ripup_iterations" "count" (c "route.ripup_iterations");
    m "route.minor_mwords" "Mwords" (mwords route_st);
    m "minchan.probes" "count" (c "minchan.probes");
    m "minchan.w_min_mean" "tracks" (mean (List.map float_of_int w_mins));
    m "minchan.survivors" "count" (float_of_int (List.length w_mins));
    m "timing.sta_s" "s" (secs sta_st);
    m "timing.power_s" "s" (secs power_st);
    m "timing.minor_mwords" "Mwords" (mwords (sta_st @ power_st));
    m "verify.equiv_gates_s" "s" (secs verify_equiv);
    m "verify.phys_s" "s" (get (fun s -> s.self_s) verify_phys);
    m "verify.minor_mwords" "Mwords" (mwords (verify_equiv @ verify_phys));
    m "verify.proved_frac" "ratio" proved_frac;
    m "sat.solves" "count" (c "sat.solves");
    m "sat.conflicts" "count" (c "sat.conflicts");
    m "sat.propagations" "count" (c "sat.propagations");
    m "cache.hits" "count" (float_of_int cs.Cache.hits);
    m "cache.misses" "count" (float_of_int cs.Cache.misses);
    m "cache.hit_ratio" "ratio" (ratio (float_of_int cs.Cache.hits) lookups);
    m "cache.bytes" "bytes" (float_of_int cs.Cache.store_bytes);
    m "cache.hit_p50_ms" "ms" (p50_where (fun o -> o.repeat));
    m "cache.miss_p50_ms" "ms" (p50_where (fun o -> not o.repeat));
    m "cache.cold_overhead_s" "s"
      (match cold_walls with
      | [] -> 0.0
      | l -> median traced_walls -. median l);
    m "flow.self_s" "s" (get (fun s -> s.self_s) [ "flow" ]);
    m "resil.retries" "count" (float_of_int (instants traces "resil:retry"));
    m "resil.escalations" "count" (float_of_int (instants traces "resil:escalate"));
    m "resil.degraded" "count" (float_of_int (instants traces "resil:degrade"));
    m "obs.trace_overhead_frac" "ratio"
      (ratio (median traced_walls -. untraced_wall) untraced_wall);
    m "gc.minor_mwords" "Mwords" (t.gc_minor /. 1e6);
    m "gc.major_collections" "count" (float_of_int t.gc_major);
    m "bench.traced_wall_s" "s" t.wall_s;
  ]

(* ---------- main ---------- *)

let fresh_cache w = if w.uses_cache then Cache.create () else Cache.none

let untraced_run w run =
  timed (fun () -> run Trace.null ~cache:(fresh_cache w))

let traced_run run ~cache =
  let bt = Trace.create ~label:"bench" () in
  let g0 = Gc.quick_stat () in
  let it, wall_s = timed (fun () -> run bt ~cache) in
  let g1 = Gc.quick_stat () in
  {
    it;
    bench_trace = bt;
    wall_s;
    gc_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Repeat [f] until [seconds] have passed, at least once. *)
let repeat_for seconds f =
  let t0 = Clock.now_ns () in
  let rec go acc =
    let acc = f () :: acc in
    if elapsed_s t0 >= seconds then List.rev acc else go acc
  in
  go []

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "%-26s %18.6f %s\n" x.mname x.value x.unit_)
    metrics;
  Printf.printf "error_rate %.6f (%d failed of %d attempted)\n"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname
              (json_number x.value) x.unit_)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rev = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) pass");
      ("--rev", Arg.Set_string rev, "REV source revision to stamp");
    ]
  in
  let usage = "vpga_bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Printf.printf
    "provenance: workload=%s seed=%d seconds=%d trace=%d cores=%d ocaml=%s \
     rev=%s\n%!"
    w.name !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !rev;
  let seconds = float_of_int !seconds in
  (* Set-up runs in five batches of 100; [setup_s] is the median of the
     batch means, so a sub-millisecond set-up is not read off single clock
     samples.  The count is fixed, not timed: a time-dependent number of
     set-ups made the traced pass's per-stage minor-word counts differ
     between two runs of the same code. *)
  let setup_trace = Trace.create ~label:"setup" () in
  let batch () =
    let t0 = Clock.now_ns () in
    let rec go n =
      let run = w.setup ~seed:!seed setup_trace in
      if n = 100 then (run, elapsed_s t0 /. 100.0) else go (n + 1)
    in
    let r = go 1 in
    (* Collect this batch's inputs before the next is built, so set-up
       garbage does not set the heap's high-water mark. *)
    Gc.full_major ();
    r
  in
  let batches = List.init 5 (fun _ -> batch ()) in
  let run = fst (List.hd (List.rev batches)) in
  let setup_s = median (List.map snd batches) in
  Gc.compact ();
  if !trace = 0 then begin
    let its = repeat_for seconds (fun () -> untraced_run w run) in
    let attempted, failed = tally its in
    print_result ~correct:(failed = 0) ~attempted ~failed (end_to_end ~setup_s its)
  end
  else begin
    (* Each repetition: untraced, traced, and (for [cold_check]) traced
       again without the cache, interleaved so drift hits all three. *)
    let reps =
      repeat_for seconds (fun () ->
          let u = untraced_run w run in
          let t = traced_run run ~cache:(fresh_cache w) in
          let c =
            if w.cold_check then Some (traced_run run ~cache:Cache.none)
            else None
          in
          (u, t, c))
    in
    let untraced = List.map (fun (u, _, _) -> u) reps in
    let traced = List.map (fun (_, t, _) -> t) reps in
    let cold = List.filter_map (fun (_, _, c) -> c) reps in
    let all_its =
      untraced @ List.map (fun t -> (t.it, t.wall_s)) (traced @ cold)
    in
    let attempted, failed = tally all_its in
    let designs_build_s =
      span_percentile [ setup_trace ] "designs:build" 0.5 /. 1e6
    in
    print_result ~correct:(failed = 0) ~attempted ~failed
      (per_layer w ~designs_build_s ~untraced ~traced:(List.hd traced)
         ~traced_walls:(List.map (fun t -> t.wall_s) traced)
         ~cold_walls:(List.map (fun t -> t.wall_s) cold))
  end
