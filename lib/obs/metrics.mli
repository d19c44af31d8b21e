(** Metric primitives: exact-percentile histograms with a derived
    log-binned shape, and the snapshot-diff engine behind
    [vpga perf diff]. *)

module Histogram : sig
  type t

  val create : unit -> t

  (** Record one sample.  Non-finite values (NaN, infinities) are
      rejected and counted in {!rejected} instead of corrupting the
      percentile extraction or the JSON export. *)
  val add : t -> float -> unit

  val count : t -> int
  val rejected : t -> int
  val min_value : t -> float
  val max_value : t -> float
  val sum : t -> float
  val mean : t -> float

  (** [percentile h p] is the exact nearest-rank percentile for
      [p] in \[0, 100\]: the ceil(p/100*n)-th smallest sample.  An empty
      histogram answers [0.0]. *)
  val percentile : t -> float -> float

  val merge : into:t -> t -> unit

  (** Log-binned shape: [(lo, hi, count)] triples with geometric edges
      (ratio [gamma], default 2{^1/4}), sorted by [lo]; samples <= 0
      fall into a single [(0, 0, n)] underflow bin.  Edges are monotone
      and consecutive bins share their boundary exactly. *)
  val bins : ?gamma:float -> t -> (float * float * int) list
end

(** One compared metric from a snapshot diff. *)
type delta = {
  d_key : string;
  d_base : float;
  d_current : float;
  d_floor : float;  (** noise floor of this metric's unit (0 for counts) *)
  d_regressed : bool;
}

(** [diff ~base ~current ()] compares two metrics snapshots (the JSON
    written by [Export.write_snapshot]) entry by entry: counters,
    per-stage wall/alloc, histogram counts and percentiles.  Count-like
    quantities regress when [current > base * (1 + tolerance)] (or
    appear from a zero baseline); time-valued quantities (names ending
    [_us]/[_ms]/[_s] or prefixed [span:]) additionally require the
    baseline to clear an absolute noise floor before they can flag.
    Default tolerance: 0.25.  [Error] when either document is not
    tagged [schema: "vpga-metrics/1"] — any other document would compare
    zero metrics and pass. *)
val diff :
  ?tolerance:float ->
  base:Json.t ->
  current:Json.t ->
  unit ->
  (delta list, string) result

val regressions : delta list -> delta list
val pp_diff : Format.formatter -> delta list -> unit
