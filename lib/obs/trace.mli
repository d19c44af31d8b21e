(** Per-task trace sink: span events, instants, and a counter/gauge
    registry, all on the monotonic clock.

    One [t] per flow task — tasks never share one, so recording needs no
    synchronization (the sweep merges finished traces by task id at export
    time).  {!null} is the disabled sink: every operation on it is a
    no-op, so an uninstrumented run pays one branch per call site and
    nothing else.

    {2 Ambient trace}

    Inner loops (the SAT solver, cut enumeration, the annealer,
    PathFinder) publish their counters through the domain-local {e
    ambient} trace instead of threading a [t] through every signature:
    {!with_span}/{!with_ambient} install the task's trace for the dynamic
    extent of the flow run, and {!emit} adds to it — or does nothing when
    no trace is installed.  Each flow task runs wholly on one domain, so
    the ambient trace is never shared across domains. *)

type t

val null : t
(** The disabled sink. *)

val create : ?tid:int -> ?label:string -> unit -> t
(** A live sink.  [tid] (default 0) becomes the Chrome-trace thread id
    when traces are merged at export; [label] the thread name. *)

val enabled : t -> bool
val tid : t -> int
val label : t -> string

(** {2 Spans} *)

type span
(** An open span handle.  On {!null} traces the handle is inert. *)

val begin_span : ?attrs:(string * Span.attr) list -> t -> string -> span

val end_span : ?attrs:(string * Span.attr) list -> span -> unit
(** Records the completed span; [attrs] are appended to the open-time
    attributes.  Closing a span twice is a no-op.

    Every closed span additionally carries allocation accounting —
    [gc.minor_words] / [gc.major_words] (floats) and
    [gc.major_collections] (int) attrs, deltas between open and close —
    and feeds its duration (µs) into the [span:<name>] histogram of its
    sink.  The word counts are exact: minor words from [Gc.minor_words],
    major words as the words allocated directly in the major heap (large
    blocks; promotion is excluded, since it lands in whichever span runs
    the next minor collection).  Both are domain-local: allocation a span
    delegates to other domains is charged to those domains, not to the
    span. *)

val with_span : ?attrs:(string * Span.attr) list -> t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span, closing it even when [f]
    raises — spans recorded this way always balance and nest properly.
    Also installs [t] as the ambient trace for the extent of [f]. *)

val instant : ?ts_ns:int64 -> ?attrs:(string * Span.attr) list -> t -> string -> unit
(** A point event; [ts_ns] (default: now) lets callers replay events
    recorded elsewhere — e.g. timestamped {!Vpga_resil.Log} entries —
    onto the trace timeline. *)

val events : t -> Span.event list
(** In recording order (a span is recorded when it {e closes}, so parents
    follow their children).  Empty for {!null}. *)

val open_spans : t -> int
(** Currently open (begun, not yet ended) spans; 0 after a balanced run. *)

(** {2 Counter / gauge registry} *)

val add : t -> string -> float -> unit
(** Accumulate into the named counter (registered on first use). *)

val set : t -> string -> float -> unit
(** Set the named gauge to its latest value. *)

val counters : t -> (string * float) list
(** Name-sorted.  Empty for {!null}. *)

val gauges : t -> (string * float) list
(** Name-sorted.  Empty for {!null}. *)

(** {2 Time series}

    Timestamped convergence probes (annealer temperature, PathFinder
    overflow per iteration, SAT conflicts per solve, ...).  Buffers are
    bounded: past 4096 samples a series is decimated — every other
    retained sample dropped and the recording stride doubled — so
    retained samples stay spread over the whole run. *)

val sample : t -> string -> float -> unit
(** Append a [(now, v)] sample to the named series (registered on first
    use).  No-op on {!null}. *)

val series : t -> (string * (int64 * float) array * int) list
(** Name-sorted [(name, samples, offered)] triples; [samples] are in
    chronological order and [offered] counts every {!sample} call,
    including ones dropped by decimation.  Empty for {!null}. *)

(** {2 Histograms}

    Distribution probes (per-net wirelength, occupancy solve cost,
    queue waits) recorded into {!Metrics.Histogram} slots; span
    durations feed [span:<name>] histograms automatically. *)

val observe : t -> string -> float -> unit
(** Add a sample to the named histogram (registered on first use).
    Non-finite samples are rejected by the histogram.  No-op on
    {!null}. *)

val histograms : t -> (string * Metrics.Histogram.t) list
(** Name-sorted.  Empty for {!null}. *)

(** Handle-style counter: resolve the registry slot once, bump it from a
    hot loop without further lookups. *)
module Counter : sig
  type trace := t
  type t

  val make : trace -> string -> t
  val add : t -> float -> unit
  val incr : t -> unit
  val value : t -> float
end

(** Latest-value gauge handle. *)
module Gauge : sig
  type trace := t
  type t

  val make : trace -> string -> t
  val set : t -> float -> unit
  val value : t -> float
end

(** {2 Ambient trace} *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as this domain's ambient trace for the extent of the
    thunk (restoring the previous one after, even on exceptions). *)

val ambient : unit -> t
(** The installed trace, or {!null}. *)

val emit : string -> float -> unit
(** [add] on the ambient trace; no-op when none is installed. *)

val emit_sample : string -> float -> unit
(** [sample] on the ambient trace; no-op when none is installed. *)

val emit_observe : string -> float -> unit
(** [observe] on the ambient trace; no-op when none is installed. *)
