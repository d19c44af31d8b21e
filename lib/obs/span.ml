type attr = Str of string | Int of int | Float of float | Bool of bool

type event =
  | Complete of {
      name : string;
      ts_ns : int64;
      dur_ns : int64;
      depth : int;
      attrs : (string * attr) list;
    }
  | Instant of { name : string; ts_ns : int64; attrs : (string * attr) list }

let name = function Complete { name; _ } | Instant { name; _ } -> name
let ts_ns = function Complete { ts_ns; _ } | Instant { ts_ns; _ } -> ts_ns

let end_ns = function
  | Complete { ts_ns; dur_ns; _ } -> Int64.add ts_ns dur_ns
  | Instant { ts_ns; _ } -> ts_ns
