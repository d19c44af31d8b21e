(* Per-task trace sink.  [t] is [sink option]: [None] is the disabled
   trace, so every operation starts with one cheap match and the disabled
   path allocates nothing.  A sink is only ever mutated from the domain
   running its task (the sweep hands finished traces back through a pool
   join, which publishes them), so there is no lock. *)

(* A time series keeps at most [series_cap] timestamped samples.  When a
   probe overruns the cap (a SAT-heavy verify can solve tens of
   thousands of times), the buffer is decimated: every other sample is
   dropped and the recording stride doubles, so retained samples stay
   spread over the whole run instead of truncating the tail. *)
let series_cap = 4096

type series_buf = {
  mutable sb_rsamples : (int64 * float) list; (* newest first *)
  mutable sb_len : int;
  mutable sb_stride : int; (* record every sb_stride-th offered sample *)
  mutable sb_skip : int; (* offered samples to skip before next record *)
  mutable sb_total : int; (* samples offered, including decimated ones *)
}

type sink = {
  s_tid : int;
  s_label : string;
  mutable revents : Span.event list; (* newest first *)
  mutable depth : int; (* currently open spans *)
  counters : (string, float ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  series : (string, series_buf) Hashtbl.t;
  hists : (string, Metrics.Histogram.t) Hashtbl.t;
}

type t = sink option

let null = None

let create ?(tid = 0) ?(label = "") () =
  Some
    {
      s_tid = tid;
      s_label = label;
      revents = [];
      depth = 0;
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 8;
      series = Hashtbl.create 8;
      hists = Hashtbl.create 8;
    }

let enabled = function Some _ -> true | None -> false
let tid = function Some s -> s.s_tid | None -> 0
let label = function Some s -> s.s_label | None -> ""

(* ---- spans ---- *)

type span =
  | Inert
  | Open of {
      o_sink : sink;
      o_name : string;
      o_t0 : int64;
      o_depth : int;
      o_attrs : (string * Span.attr) list;
      (* Allocation baseline at open (see [alloc_words]), so the close
         records per-span deltas.  The counters are O(1) and domain-local:
         work a span farms out to other domains (region-parallel refine,
         the sweep pool) allocates on those domains and is not charged
         here. *)
      o_gc_minor : float;
      o_gc_major : float;
      o_gc_colls : int;
      mutable o_closed : bool;
    }

(* forward ref to [observe] below; spans auto-feed a duration histogram *)
let observe_hist : (sink -> string -> float -> unit) ref =
  ref (fun _ _ _ -> ())

(* Words this domain has allocated so far, exactly: minor words from
   [Gc.minor_words] ([Gc.quick_stat]'s only advance at minor collections,
   so a span's delta would be quantized to the minor heap), and words
   allocated directly in the major heap (large blocks), i.e. major words
   less promoted words.  Promotion is left out: it happens at whichever
   minor collection comes next, so it measures GC timing, not the work of
   the span it lands in. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

let begin_span ?(attrs = []) t name =
  match t with
  | None -> Inert
  | Some s ->
      let d = s.depth in
      s.depth <- d + 1;
      let colls = (Gc.quick_stat ()).Gc.major_collections in
      let minor, major = alloc_words () in
      Open
        {
          o_sink = s;
          o_name = name;
          o_t0 = Clock.now_ns ();
          o_depth = d;
          o_attrs = attrs;
          o_gc_minor = minor;
          o_gc_major = major;
          o_gc_colls = colls;
          o_closed = false;
        }

let end_span ?(attrs = []) sp =
  match sp with
  | Inert -> ()
  | Open o ->
      if not o.o_closed then begin
        o.o_closed <- true;
        let s = o.o_sink in
        s.depth <- s.depth - 1;
        let minor, major = alloc_words () in
        let colls = (Gc.quick_stat ()).Gc.major_collections in
        let dur_ns = Int64.sub (Clock.now_ns ()) o.o_t0 in
        let gc_attrs =
          [
            ("gc.minor_words", Span.Float (minor -. o.o_gc_minor));
            ("gc.major_words", Span.Float (major -. o.o_gc_major));
            ("gc.major_collections", Span.Int (colls - o.o_gc_colls));
          ]
        in
        s.revents <-
          Span.Complete
            {
              name = o.o_name;
              ts_ns = o.o_t0;
              dur_ns;
              depth = o.o_depth;
              attrs = o.o_attrs @ attrs @ gc_attrs;
            }
          :: s.revents;
        !observe_hist s ("span:" ^ o.o_name) (Clock.ns_to_us dur_ns)
      end

let instant ?ts_ns ?(attrs = []) t name =
  match t with
  | None -> ()
  | Some s ->
      let ts_ns = match ts_ns with Some ts -> ts | None -> Clock.now_ns () in
      s.revents <- Span.Instant { name; ts_ns; attrs } :: s.revents

let events = function Some s -> List.rev s.revents | None -> []
let open_spans = function Some s -> s.depth | None -> 0

(* ---- counters / gauges ---- *)

let slot tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      Hashtbl.add tbl name r;
      r

let add t name v =
  match t with
  | None -> ()
  | Some s ->
      let r = slot s.counters name in
      r := !r +. v

let set t name v =
  match t with None -> () | Some s -> slot s.gauges name := v

let sorted tbl =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters = function Some s -> sorted s.counters | None -> []
let gauges = function Some s -> sorted s.gauges | None -> []

(* ---- time series ---- *)

let series_slot s name =
  match Hashtbl.find_opt s.series name with
  | Some b -> b
  | None ->
      let b =
        { sb_rsamples = []; sb_len = 0; sb_stride = 1; sb_skip = 0; sb_total = 0 }
      in
      Hashtbl.add s.series name b;
      b

(* Halve a full buffer, keeping chronologically even-indexed samples so
   coverage stays uniform over the run. *)
let decimate b =
  let a = Array.of_list b.sb_rsamples in
  (* a.(0) is newest; chronological index of a.(j) is len-1-j *)
  let keep = ref [] in
  for j = 0 to Array.length a - 1 do
    if (Array.length a - 1 - j) mod 2 = 0 then keep := a.(j) :: !keep
  done;
  b.sb_rsamples <- List.rev !keep;
  b.sb_len <- List.length b.sb_rsamples;
  b.sb_stride <- b.sb_stride * 2

let sample t name v =
  match t with
  | None -> ()
  | Some s ->
      let b = series_slot s name in
      b.sb_total <- b.sb_total + 1;
      if b.sb_skip > 0 then b.sb_skip <- b.sb_skip - 1
      else begin
        b.sb_rsamples <- (Clock.now_ns (), v) :: b.sb_rsamples;
        b.sb_len <- b.sb_len + 1;
        if b.sb_len >= series_cap then decimate b;
        b.sb_skip <- b.sb_stride - 1
      end

let series = function
  | None -> []
  | Some s ->
      Hashtbl.fold
        (fun name b acc ->
          (name, Array.of_list (List.rev b.sb_rsamples), b.sb_total) :: acc)
        s.series []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* ---- histograms ---- *)

let hist_slot s name =
  match Hashtbl.find_opt s.hists name with
  | Some h -> h
  | None ->
      let h = Metrics.Histogram.create () in
      Hashtbl.add s.hists name h;
      h

let () = observe_hist := fun s name v -> Metrics.Histogram.add (hist_slot s name) v

let observe t name v =
  match t with
  | None -> ()
  | Some s -> Metrics.Histogram.add (hist_slot s name) v

let histograms = function
  | None -> []
  | Some s ->
      Hashtbl.fold (fun name h acc -> (name, h) :: acc) s.hists []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

module Counter = struct
  type t = float ref

  (* On a null trace the handle is a fresh unregistered cell: writes land
     nowhere visible, reads give back what was written — harmless. *)
  let make tr name =
    match tr with None -> ref 0.0 | Some s -> slot s.counters name

  let add c v = c := !c +. v
  let incr c = c := !c +. 1.0
  let value c = !c
end

module Gauge = struct
  type t = float ref

  let make tr name =
    match tr with None -> ref 0.0 | Some s -> slot s.gauges name

  let set g v = g := v
  let value g = !g
end

(* ---- ambient trace (domain-local) ---- *)

let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_ambient t f =
  let prev = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key prev) f

let ambient () = Domain.DLS.get ambient_key
let emit name v = add (Domain.DLS.get ambient_key) name v
let emit_sample name v = sample (Domain.DLS.get ambient_key) name v
let emit_observe name v = observe (Domain.DLS.get ambient_key) name v

let with_span ?attrs t name f =
  match t with
  | None -> f ()
  | Some _ ->
      let sp = begin_span ?attrs t name in
      with_ambient t (fun () ->
          Fun.protect ~finally:(fun () -> end_span sp) f)
