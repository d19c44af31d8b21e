(** Trace export: Chrome trace-event JSON (loadable in Perfetto /
    [chrome://tracing]) and a compact per-stage text report.

    The Chrome document is one JSON object with a [traceEvents] array;
    traces merge into it by task id (each {!Trace.t} becomes one thread,
    named by its label).  Spans become ["ph":"X"] complete events (with
    their nesting depth in [args.depth]), instants ["ph":"i"], and each
    counter/gauge one ["ph":"C"] counter sample at the trace's end.
    Timestamps are microseconds relative to the earliest event, so the
    file is stable under everything but the run's own durations. *)

val chrome : ?process_name:string -> Trace.t list -> Json.t
(** Merge traces into one Chrome trace-event document.  Null traces are
    skipped; [process_name] (default ["vpga"]) names the single process. *)

val write_chrome : ?process_name:string -> string -> Trace.t list -> unit
(** [chrome] serialized to a file. *)

val load : string -> (Json.t, string) result
(** Read a Chrome trace-event file back (for [vpga report]).  A file
    that does not parse, or whose document has no [traceEvents] array
    (a metrics snapshot, say), is an [Error]. *)

val snapshot : ?label:string -> Trace.t list -> Json.t
(** Self-contained metrics snapshot (schema [vpga-metrics/1]): counter
    and gauge totals, per-stage wall/alloc accounting (the depth-1 rows
    of the same span aggregation {!report} prints), merged histograms
    with exact p50/p90/p99 and log-binned shape, and series trajectory
    summaries (sample counts and endpoints — full series live in the
    Chrome export).  This is the input format of [vpga perf diff]. *)

val write_snapshot : ?label:string -> string -> Trace.t list -> unit
(** [snapshot] serialized to a file. *)

val report : Format.formatter -> Json.t -> unit
(** The per-stage summary of a Chrome trace-event document: a span table
    (calls, total time, share of root wall time, minor allocation), the
    counter totals — including the stage cache's [cache.*] counters,
    with a derived hit-rate line when any lookups happened — series
    sample counts, and the instant-event counts. *)

val report_json : Json.t -> Json.t
(** The same aggregation as {!report} but machine-readable (schema
    [vpga-report/1]) — for [vpga report --json]. *)
