(** Minimal self-contained JSON: a value type, a compact printer, and a
    recursive-descent parser.

    Exists so the trace exporter has no external dependency and so [vpga
    report] can read back the Chrome-trace files it writes.  The parser
    accepts standard JSON (with [\uXXXX] escapes decoded to UTF-8); it is
    not lenient — trailing garbage is an error. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no whitespace).  Non-finite numbers (NaN, infinities),
    which JSON cannot represent, print as [null], so {!parse} reads
    back everything this printer writes. *)

val to_channel : out_channel -> t -> unit

val parse : string -> (t, string) result
(** The error carries a character offset. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** [Num] payload. *)

val to_str : t -> string option
(** [Str] payload. *)
