(* Metric primitives for the observability layer: histograms with exact
   percentile extraction plus a log-binned shape for export, and the
   snapshot *diff* — the pure-JSON comparison engine behind
   [vpga perf diff].  (Snapshot *construction* needs [Trace] and lives in
   [Export]; this module stays below [Trace] so the trace registry can
   hold histograms.) *)

module Histogram = struct
  (* Samples are retained exactly (doubling array), so percentiles are
     exact nearest-rank selections; the log-binned view is derived on
     demand for export.  Series sampled through this module are bounded
     in practice (per-net wirelength, span durations, queue waits), so
     retention costs one float per sample. *)
  type t = {
    mutable data : float array;
    mutable n : int;
    mutable rejected : int; (* non-finite samples, dropped *)
  }

  let create () = { data = [||]; n = 0; rejected = 0 }

  let add h v =
    if not (Float.is_finite v) then h.rejected <- h.rejected + 1
    else begin
      if h.n = Array.length h.data then begin
        let d = Array.make (max 16 (2 * h.n)) 0.0 in
        Array.blit h.data 0 d 0 h.n;
        h.data <- d
      end;
      h.data.(h.n) <- v;
      h.n <- h.n + 1
    end

  let count h = h.n
  let rejected h = h.rejected

  let fold f acc h =
    let acc = ref acc in
    for i = 0 to h.n - 1 do
      acc := f !acc h.data.(i)
    done;
    !acc

  let min_value h = if h.n = 0 then 0.0 else fold Float.min infinity h
  let max_value h = if h.n = 0 then 0.0 else fold Float.max neg_infinity h
  let sum h = fold ( +. ) 0.0 h
  let mean h = if h.n = 0 then 0.0 else sum h /. float_of_int h.n

  let sorted_copy h =
    let a = Array.sub h.data 0 h.n in
    Array.sort Float.compare a;
    a

  (* Exact nearest-rank percentile: the ceil(p/100 * n)-th smallest
     sample (1-based), clamped into [1, n].  Empty histograms answer 0.0
     so snapshots stay valid JSON (no NaN). *)
  let percentile h p =
    if h.n = 0 then 0.0
    else begin
      let a = sorted_copy h in
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int h.n))
      in
      a.(max 0 (min (h.n - 1) (rank - 1)))
    end

  let merge ~into src =
    for i = 0 to src.n - 1 do
      add into src.data.(i)
    done;
    into.rejected <- into.rejected + src.rejected

  (* Log-binned shape: geometric bins with ratio [gamma] (2^1/4, about 12
     bins per decade).  Samples <= 0 collapse into one (0, 0) underflow
     bin; consecutive bin edges share the exact float computation, so the
     edge sequence is monotone by construction. *)
  let gamma = Float.pow 2.0 0.25

  let bins h =
    let lg = log gamma in
    let tbl = Hashtbl.create 32 in
    let bump k =
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    in
    for i = 0 to h.n - 1 do
      let v = h.data.(i) in
      if v <= 0.0 then bump min_int
      else bump (int_of_float (Float.floor (log v /. lg)))
    done;
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (k, c) ->
           if k = min_int then (0.0, 0.0, c)
           else (Float.pow gamma (float_of_int k),
                 Float.pow gamma (float_of_int (k + 1)),
                 c))
end

(* ---- snapshot diff ---- *)

(* A snapshot (written by [Export.write_snapshot]) is compared block by
   block: counters, per-stage wall/alloc, histogram count + percentiles.
   Counters and allocation are deterministic for a fixed seed, so any
   increase past the tolerance is a real change; wall-clock quantities
   are noisy, so time-valued keys additionally need the baseline to
   clear an absolute floor before they can flag (sub-floor timings are
   measurement noise, not signal). *)

type delta = {
  d_key : string;
  d_base : float;
  d_current : float;
  d_floor : float; (* noise floor of this metric's unit (0 for counts) *)
  d_regressed : bool;
}

type unit_kind = Count | Seconds | Micros

(* 10 ms either way: spans shorter than that jitter by tens of percent
   under ordinary scheduler noise, and the Bechamel kernels that
   `make ab` gates against the parent time sub-10ms code paths with
   proper repetition. *)
let floor_of = function Count -> 0.0 | Seconds -> 0.01 | Micros -> 10_000.0

(* Histogram / series names carry their unit as a suffix; span-duration
   histograms are recorded in microseconds under a [span:] prefix. *)
let kind_of_name name =
  let suffix s = String.length name >= String.length s
    && String.sub name (String.length name - String.length s) (String.length s) = s
  in
  let prefix s = String.length name >= String.length s
    && String.sub name 0 (String.length s) = s
  in
  if prefix "span:" || suffix "_us" || suffix "_ms" then Micros
  else if suffix "_s" then Seconds
  else Count

let regressed ~tolerance kind ~base ~current =
  match kind with
  | Count ->
      if base = 0.0 then current > 0.0
      else current > base *. (1.0 +. tolerance)
  | Seconds | Micros ->
      base >= floor_of kind && current > base *. (1.0 +. tolerance)

(* A document of another kind (a Chrome trace, a bench record) has none
   of the blocks below, so it would compare zero metrics and pass;
   refuse it instead. *)
let check_schema side doc =
  match Json.member "schema" doc with
  | Some (Json.Str "vpga-metrics/1") -> Ok ()
  | _ -> Error (side ^ " document is not a vpga-metrics/1 snapshot")

exception Malformed of string

(* Histograms gate on their count and percentiles only (min/max/mean/bins
   are shape, not trajectory). *)
let gated_hist_fields = [ "count"; "p50"; "p90"; "p99" ]

(* The gated blocks of one snapshot as numbers: counters (name -> value),
   stages and histograms (name -> field -> value).  A value that is not a
   number raises [Malformed] naming it: read as 0 it would turn a base
   counter into a false "new" regression, or drop a current one from the
   comparison unseen. *)
let numbers side doc =
  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let fields path = function
    | Json.Obj fields -> fields
    | _ -> fail "%s %s is not an object" side path
  in
  let num path (k, v) =
    match Json.to_float v with
    | Some f -> (k, f)
    | None -> fail "%s %s.%s is not a number" side path k
  in
  let block name =
    match Json.member name doc with None -> [] | Some b -> fields name b
  in
  let nested name pick =
    List.map
      (fun (k, v) ->
        let path = name ^ "." ^ k in
        (k, List.map (num path) (pick (fields path v))))
      (block name)
  in
  ( List.map (num "counters") (block "counters"),
    nested "stages" Fun.id,
    nested "histograms" (fun fs ->
        List.filter_map
          (fun f -> Option.map (fun v -> (f, v)) (List.assoc_opt f fs))
          gated_hist_fields) )

let compare_blocks ~tolerance ~base ~current =
  let bcounters, bstages, bhists = numbers "base" base in
  let ccounters, cstages, chists = numbers "current" current in
  let out = ref [] in
  (* Keys present only in the baseline are improvements (or removed
     probes), never regressions; keys new in the current snapshot gate
     like a 0 baseline. *)
  let compare_num ~kind key bl (k, c) =
    let b = Option.value ~default:0.0 (List.assoc_opt k bl) in
    out :=
      {
        d_key = key;
        d_base = b;
        d_current = c;
        d_floor = floor_of kind;
        d_regressed = regressed ~tolerance kind ~base:b ~current:c;
      }
      :: !out
  in
  List.iter
    (fun ((k, _) as c) ->
      compare_num ~kind:(kind_of_name k) ("counter " ^ k) bcounters c)
    ccounters;
  (* Stages: name -> { wall_s; calls; minor_words; major_words;
     major_collections }. *)
  List.iter
    (fun (stage, cf) ->
      let bf = Option.value ~default:[] (List.assoc_opt stage bstages) in
      List.iter
        (fun ((field, _) as c) ->
          compare_num ~kind:(kind_of_name field)
            (Printf.sprintf "stage %s %s" stage field)
            bf c)
        cf)
    cstages;
  (* Histograms: the unit comes from the histogram's name. *)
  List.iter
    (fun (name, cf) ->
      let bf = Option.value ~default:[] (List.assoc_opt name bhists) in
      List.iter
        (fun ((field, _) as c) ->
          let kind = if field = "count" then Count else kind_of_name name in
          compare_num ~kind
            (Printf.sprintf "histogram %s %s" name field)
            bf c)
        cf)
    chists;
  List.rev !out

let diff ?(tolerance = 0.25) ~base ~current () =
  match (check_schema "base" base, check_schema "current" current) with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok (), Ok () -> (
      try Ok (compare_blocks ~tolerance ~base ~current)
      with Malformed msg -> Error msg)

let regressions ds = List.filter (fun d -> d.d_regressed) ds

let pp_delta ppf d =
  let pct =
    if d.d_base > 0.0 then
      Printf.sprintf "%+7.1f%%" (100.0 *. ((d.d_current /. d.d_base) -. 1.0))
    else "    new"
  in
  Format.fprintf ppf "%-52s %14.3f %14.3f %s%s" d.d_key d.d_base d.d_current
    pct
    (if d.d_regressed then "  REGRESSION" else "")

let pp_diff ppf ds =
  (* Display is filtered like the gate: time-valued metrics below their
     noise floor don't clutter the table with jitter. *)
  let changed =
    List.filter
      (fun d ->
        d.d_regressed
        || (d.d_base >= d.d_floor
            &&
            if d.d_base = 0.0 then d.d_current <> 0.0
            else Float.abs ((d.d_current /. d.d_base) -. 1.0) > 0.05))
      ds
  in
  Format.fprintf ppf "@[<v>%-52s %14s %14s@," "metric" "base" "current";
  List.iter (fun d -> Format.fprintf ppf "%a@," pp_delta d) changed;
  let n_reg = List.length (regressions ds) in
  Format.fprintf ppf "@,%d metric(s) compared, %d changed >5%%, %d regression(s)@]"
    (List.length ds) (List.length changed) n_reg
