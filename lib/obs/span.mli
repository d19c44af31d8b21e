(** Trace events: hierarchical spans and instants with typed attributes.

    A {e span} is a named interval on the monotonic clock; spans recorded
    through {!Trace.with_span} nest properly (a child's interval is
    contained in its parent's), and each carries the nesting [depth] it was
    opened at (0 = root).  An {e instant} is a point event — the flow uses
    them to place {!Vpga_resil.Log} recovery events on the same timeline
    as the stage spans. *)

type attr = Str of string | Int of int | Float of float | Bool of bool
(** Typed attribute values; exported verbatim into the Chrome trace
    event's [args] object. *)

type event =
  | Complete of {
      name : string;
      ts_ns : int64;  (** begin, monotonic ns *)
      dur_ns : int64;
      depth : int;  (** nesting depth at open: 0 = root *)
      attrs : (string * attr) list;
    }
  | Instant of { name : string; ts_ns : int64; attrs : (string * attr) list }

val name : event -> string
val ts_ns : event -> int64

val end_ns : event -> int64
(** [ts_ns + dur_ns] for a span; [ts_ns] for an instant. *)
