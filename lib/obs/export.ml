let attr_json : Span.attr -> Json.t = function
  | Span.Str s -> Json.Str s
  | Span.Int i -> Json.Num (float_of_int i)
  | Span.Float f -> Json.Num f
  | Span.Bool b -> Json.Bool b

let args_json attrs = Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) attrs)

(* All events of all traces share one time base: the earliest event or
   series-sample timestamp (0 when there is nothing at all). *)
let time_base traces =
  List.fold_left
    (fun base t ->
      let base =
        List.fold_left
          (fun base e -> Int64.min base (Span.ts_ns e))
          base (Trace.events t)
      in
      List.fold_left
        (fun base (_, samples, _) ->
          if Array.length samples = 0 then base
          else Int64.min base (fst samples.(0)))
        base (Trace.series t))
    Int64.max_int traces
  |> fun b -> if b = Int64.max_int then 0L else b

let us_since base ns = Clock.ns_to_us (Int64.sub ns base)

let chrome ?(process_name = "vpga") traces =
  let traces = List.filter Trace.enabled traces in
  let base = time_base traces in
  let common tid name ph =
    [
      ("name", Json.Str name);
      ("ph", Json.Str ph);
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int tid));
    ]
  in
  let meta =
    Json.Obj
      (common 0 "process_name" "M" @ [ ("args", Json.Obj [ ("name", Json.Str process_name) ]) ])
    :: List.map
         (fun t ->
           Json.Obj
             (common (Trace.tid t) "thread_name" "M"
             @ [ ("args", Json.Obj [ ("name", Json.Str (Trace.label t)) ]) ]))
         traces
  in
  let of_event tid = function
    | Span.Complete { name; ts_ns; dur_ns; depth; attrs } ->
        Json.Obj
          (common tid name "X"
          @ [
              ("cat", Json.Str "flow");
              ("ts", Json.Num (us_since base ts_ns));
              ("dur", Json.Num (Clock.ns_to_us dur_ns));
              ("args", args_json (("depth", Span.Int depth) :: attrs));
            ])
    | Span.Instant { name; ts_ns; attrs } ->
        Json.Obj
          (common tid name "i"
          @ [
              ("cat", Json.Str "resil");
              ("s", Json.Str "t");
              ("ts", Json.Num (us_since base ts_ns));
              ("args", args_json attrs);
            ])
  in
  let trace_end t =
    List.fold_left
      (fun acc e -> Int64.max acc (Span.end_ns e))
      base (Trace.events t)
  in
  let counter_events t =
    let ts = Json.Num (us_since base (trace_end t)) in
    List.map
      (fun (name, v) ->
        Json.Obj
          (common (Trace.tid t) name "C"
          @ [ ("ts", ts); ("args", Json.Obj [ ("value", Json.Num v) ]) ]))
      (Trace.counters t @ Trace.gauges t)
  in
  (* Time series render as counter tracks at their real sample times —
     tagged [cat:"series"] so the report can tell them from the
     end-of-trace counter totals above. *)
  let series_events t =
    List.concat_map
      (fun (name, samples, _total) ->
        Array.to_list samples
        |> List.map (fun (ts_ns, v) ->
               Json.Obj
                 (common (Trace.tid t) name "C"
                 @ [
                     ("cat", Json.Str "series");
                     ("ts", Json.Num (us_since base ts_ns));
                     ("args", Json.Obj [ ("value", Json.Num v) ]);
                   ])))
      (Trace.series t)
  in
  let events =
    List.concat_map
      (fun t ->
        List.map (of_event (Trace.tid t)) (Trace.events t)
        @ counter_events t @ series_events t)
      traces
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (meta @ events));
    ]

let write_chrome ?process_name path traces =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (chrome ?process_name traces);
      output_char oc '\n')

(* What is wrong with a trace event's fields that [summarize] reads, if
   anything: [load] refuses such an event rather than reading a 0 or
   dropping the row.  [null] passes as a number: it is how
   {!Json.to_string} writes a non-finite one. *)
let malformed ev =
  let obj = function Json.Obj _ -> true | _ -> false in
  let str = function Json.Str _ -> true | _ -> false in
  let num = function Json.Num _ | Json.Null -> true | _ -> false in
  let need what ok key = function
    | None -> Some (key ^ " is missing")
    | Some v -> if ok v then None else Some (key ^ " is not " ^ what)
  in
  let may what ok key v = Option.bind v (fun v -> need what ok key (Some v)) in
  let field k = Json.member k ev in
  let arg k = Option.bind (field "args") (Json.member k) in
  let checks =
    match (ev, field "ph") with
    | Json.Obj _, Some (Json.Str (("X" | "C" | "i") as ph)) -> (
        need "a string" str "name" (field "name")
        :: may "an object" obj "args" (field "args")
        ::
        (match ph with
        | "X" ->
            need "a number" num "dur" (field "dur")
            :: List.map
                 (fun k -> may "a number" num ("args." ^ k) (arg k))
                 [
                   "depth"; "gc.minor_words"; "gc.major_words";
                   "gc.major_collections";
                 ]
        | "C" -> [ need "a number" num "args.value" (arg "value") ]
        | _ -> []))
    | Json.Obj _, ph -> [ need "a string" str "ph" ph ]
    | _ -> [ Some "event is not an object" ]
  in
  List.find_map Fun.id checks

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src -> (
      match Json.parse src with
      | Ok doc -> (
          match Json.member "traceEvents" doc with
          | Some (Json.Arr evs) ->
              let rec check i = function
                | [] -> Ok doc
                | ev :: rest -> (
                    match malformed ev with
                    | None -> check (i + 1) rest
                    | Some what ->
                        Error (Printf.sprintf "traceEvents[%d]: %s" i what))
              in
              check 0 evs
          | _ ->
              Error "not a Chrome trace-event document (no traceEvents array)")
      | Error _ as e -> e)

(* All histograms of the given traces merged by name, name-sorted. *)
let merged_histograms traces =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun t ->
      List.iter
        (fun (name, h) ->
          let into =
            match Hashtbl.find_opt tbl name with
            | Some m -> m
            | None ->
                let m = Metrics.Histogram.create () in
                Hashtbl.add tbl name m;
                m
          in
          Metrics.Histogram.merge ~into h)
        (Trace.histograms t))
    traces;
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- the one span fold: per-(depth, name) rows of a Chrome document;
   the report, its JSON form and the metrics snapshot all read it ---- *)

type row = {
  mutable calls : int;
  mutable total_us : float;
  mutable minor_w : float;
  mutable major_w : float;
  mutable major_colls : float;
}

type series_row = { mutable samples : int; mutable last : float }

type summary = {
  su_spans : ((int * string) * row) list; (* (depth, name), depth then time *)
  su_root_us : float;
  su_counters : (string * float) list; (* name-sorted totals *)
  su_instants : (string * int) list;
  su_series : (string * series_row) list;
}

let summarize doc =
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr evs) -> evs
    | _ -> []
  in
  let str k ev = Option.bind (Json.member k ev) Json.to_str in
  let num k ev = Option.bind (Json.member k ev) Json.to_float in
  let spans : (int * string, row) Hashtbl.t = Hashtbl.create 32 in
  let counters : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let series : (string, series_row) Hashtbl.t = Hashtbl.create 8 in
  let root_us = ref 0.0 in
  List.iter
    (fun ev ->
      match (str "ph" ev, str "name" ev) with
      | Some "X", Some name ->
          let dur = Option.value ~default:0.0 (num "dur" ev) in
          let args k =
            Option.value ~default:0.0
              (Option.bind (Json.member "args" ev) (num k))
          in
          let depth = int_of_float (args "depth") in
          if depth = 0 then root_us := !root_us +. dur;
          let key = (depth, name) in
          let row =
            match Hashtbl.find_opt spans key with
            | Some r -> r
            | None ->
                let r =
                  {
                    calls = 0;
                    total_us = 0.0;
                    minor_w = 0.0;
                    major_w = 0.0;
                    major_colls = 0.0;
                  }
                in
                Hashtbl.add spans key r;
                r
          in
          row.calls <- row.calls + 1;
          row.total_us <- row.total_us +. dur;
          row.minor_w <- row.minor_w +. args "gc.minor_words";
          row.major_w <- row.major_w +. args "gc.major_words";
          row.major_colls <- row.major_colls +. args "gc.major_collections"
      | Some "C", Some name ->
          let v =
            match Option.bind (Json.member "args" ev) (num "value") with
            | Some v -> v
            | None -> 0.0
          in
          if str "cat" ev = Some "series" then begin
            let r =
              match Hashtbl.find_opt series name with
              | Some r -> r
              | None ->
                  let r = { samples = 0; last = 0.0 } in
                  Hashtbl.add series name r;
                  r
            in
            r.samples <- r.samples + 1;
            r.last <- v
          end
          else
            Hashtbl.replace counters name
              (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))
      | Some "i", Some name ->
          Hashtbl.replace instants name
            (1 + Option.value ~default:0 (Hashtbl.find_opt instants name))
      | _ -> ())
    events;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    su_spans =
      Hashtbl.fold (fun k r acc -> (k, r) :: acc) spans []
      |> List.sort (fun ((d1, n1), r1) ((d2, n2), r2) ->
             if d1 <> d2 then Int.compare d1 d2
             else if r1.total_us <> r2.total_us then
               Float.compare r2.total_us r1.total_us
             else String.compare n1 n2);
    su_root_us = !root_us;
    su_counters = sorted counters;
    su_instants = sorted instants;
    su_series = sorted series;
  }

(* ---- metrics snapshot ---- *)

let histogram_json h =
  let open Metrics.Histogram in
  Json.Obj
    [
      ("count", Json.Num (float_of_int (count h)));
      ("rejected", Json.Num (float_of_int (rejected h)));
      ("min", Json.Num (min_value h));
      ("max", Json.Num (max_value h));
      ("mean", Json.Num (mean h));
      ("p50", Json.Num (percentile h 50.0));
      ("p90", Json.Num (percentile h 90.0));
      ("p99", Json.Num (percentile h 99.0));
      ( "bins",
        Json.Arr
          (List.map
             (fun (lo, hi, n) ->
               Json.Obj
                 [
                   ("lo", Json.Num lo);
                   ("hi", Json.Num hi);
                   ("n", Json.Num (float_of_int n));
                 ])
             (bins h)) );
    ]

let snapshot ?(label = "") traces =
  let traces = List.filter Trace.enabled traces in
  (* Counters sum across traces; gauges are point-in-time, so a later
     trace's value wins on a name collision. *)
  let counters = Hashtbl.create 32 and gauges = Hashtbl.create 16 in
  List.iter
    (fun t ->
      List.iter
        (fun (name, v) ->
          Hashtbl.replace counters name
            (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name)))
        (Trace.counters t);
      List.iter (fun (name, v) -> Hashtbl.replace gauges name v) (Trace.gauges t))
    traces;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, Json.Num v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let su = summarize (chrome traces) in
  (* The stage block is the depth-1 rows (direct children of each
     trace's root), name-sorted so revisions diff cleanly. *)
  let stages =
    List.filter_map
      (fun ((depth, name), r) ->
        if depth <> 1 then None
        else
          Some
            ( name,
              Json.Obj
                [
                  ("calls", Json.Num (float_of_int r.calls));
                  ("wall_s", Json.Num (r.total_us /. 1e6));
                  ("minor_words", Json.Num r.minor_w);
                  ("major_words", Json.Num r.major_w);
                  ("major_collections", Json.Num r.major_colls);
                ] ))
      su.su_spans
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hists =
    List.map (fun (name, h) -> (name, histogram_json h)) (merged_histograms traces)
  in
  (* Series summarize to trajectory endpoints; the full sample list
     lives in the Chrome export, not the snapshot. *)
  let series =
    List.concat_map
      (fun t ->
        List.map
          (fun (name, samples, total) ->
            let n = Array.length samples in
            let vs = Array.map snd samples in
            let fold f init = Array.fold_left f init vs in
            ( name,
              Json.Obj
                [
                  ("samples", Json.Num (float_of_int n));
                  ("offered", Json.Num (float_of_int total));
                  ("first", Json.Num (if n = 0 then 0.0 else vs.(0)));
                  ("last", Json.Num (if n = 0 then 0.0 else vs.(n - 1)));
                  ("min", Json.Num (if n = 0 then 0.0 else fold Float.min infinity));
                  ("max", Json.Num (if n = 0 then 0.0 else fold Float.max neg_infinity));
                ] ))
          (Trace.series t))
      traces
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    [
      ("schema", Json.Str "vpga-metrics/1");
      ("label", Json.Str label);
      ("wall_s", Json.Num (su.su_root_us /. 1e6));
      ("counters", Json.Obj (sorted counters));
      ("gauges", Json.Obj (sorted gauges));
      ("stages", Json.Obj stages);
      ("histograms", Json.Obj hists);
      ("series", Json.Obj series);
    ]

let write_snapshot ?label path traces =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc (snapshot ?label traces);
      output_char oc '\n')

let report fmt doc =
  let su = summarize doc in
  Format.fprintf fmt "%-28s %5s %6s %12s %8s %11s@." "span" "depth" "calls"
    "total ms" "share" "minor Mw";
  List.iter
    (fun ((depth, name), r) ->
      let share =
        if su.su_root_us > 0.0 then 100.0 *. r.total_us /. su.su_root_us
        else 0.0
      in
      Format.fprintf fmt "%-28s %5d %6d %12.3f %7.1f%% %11.2f@." name depth
        r.calls (r.total_us /. 1e3) share
        (r.minor_w /. 1e6))
    su.su_spans;
  if su.su_counters <> [] then begin
    Format.fprintf fmt "@.%-28s %12s@." "counter" "value";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "%-28s %12.0f@." name v)
      su.su_counters
  end;
  (* The stage cache publishes cache.hits/cache.misses like any other
     counter; the derived rate earns a line because it is the number a
     perf investigation actually wants. *)
  (let v name =
     Option.value ~default:0.0 (List.assoc_opt name su.su_counters)
   in
   let hits = v "cache.hits" and misses = v "cache.misses" in
   let lookups = hits +. misses in
   if lookups > 0.0 then
     Format.fprintf fmt "@.cache hit rate %.1f%% (%.0f of %.0f lookups)@."
       (100.0 *. hits /. lookups)
       hits lookups);
  if su.su_series <> [] then begin
    Format.fprintf fmt "@.%-28s %12s %12s@." "series" "samples" "last";
    List.iter
      (fun (name, r) ->
        Format.fprintf fmt "%-28s %12d %12.3f@." name r.samples r.last)
      su.su_series
  end;
  if su.su_instants <> [] then begin
    Format.fprintf fmt "@.%-28s %12s@." "instant event" "count";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "%-28s %12d@." name v)
      su.su_instants
  end

let report_json doc =
  let su = summarize doc in
  Json.Obj
    [
      ("schema", Json.Str "vpga-report/1");
      ("root_ms", Json.Num (su.su_root_us /. 1e3));
      ( "spans",
        Json.Arr
          (List.map
             (fun ((depth, name), r) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("depth", Json.Num (float_of_int depth));
                   ("calls", Json.Num (float_of_int r.calls));
                   ("total_ms", Json.Num (r.total_us /. 1e3));
                   ( "share",
                     Json.Num
                       (if su.su_root_us > 0.0 then
                          100.0 *. r.total_us /. su.su_root_us
                        else 0.0) );
                   ("minor_words", Json.Num r.minor_w);
                   ("major_words", Json.Num r.major_w);
                 ])
             su.su_spans) );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) su.su_counters) );
      ( "cache",
        let v name =
          Option.value ~default:0.0 (List.assoc_opt name su.su_counters)
        in
        let hits = v "cache.hits" and misses = v "cache.misses" in
        let lookups = hits +. misses in
        Json.Obj
          [
            ("hits", Json.Num hits);
            ("misses", Json.Num misses);
            ("bytes", Json.Num (v "cache.bytes"));
            ( "hit_rate",
              Json.Num (if lookups > 0.0 then hits /. lookups else 0.0) );
          ] );
      ( "series",
        Json.Obj
          (List.map
             (fun (k, r) ->
               ( k,
                 Json.Obj
                   [
                     ("samples", Json.Num (float_of_int r.samples));
                     ("last", Json.Num r.last);
                   ] ))
             su.su_series) );
      ( "instants",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Num (float_of_int v)))
             su.su_instants) );
    ]
