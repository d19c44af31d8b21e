(** Content-addressed artifact store: an in-memory table shared across
    domains, optionally backed by an on-disk store that survives runs.

    Values are stored as [Marshal] snapshots taken at {!put} time, and
    every hit deserializes a fresh copy — so neither the producer
    mutating its result after the store nor a consumer mutating a hit
    can poison the cache.  Only pure-data artifacts may be cached
    (no closures, no custom blocks beyond the stdlib's); all flow
    artifacts satisfy this.

    Thread-safety: all operations are [Mutex]-guarded and safe to call
    concurrently from the worker-pool domains.  The compute function
    passed to {!memo} runs {e outside} the lock, so concurrent misses of
    the same key may both compute (identical results, last store wins)
    but never deadlock. *)

type t

val none : t
(** The disabled cache: every lookup misses, every store is dropped, no
    statistics accumulate.  [--no-cache]. *)

val create : ?dir:string -> unit -> t
(** Fresh cache.  With [dir], entries are additionally persisted under
    [dir/<schema>/<stage>/<hex>] and lookups fall back to disk on a
    memory miss. *)

val enabled : t -> bool

val default_dir : unit -> string
(** [$XDG_CACHE_HOME/vpga], else [~/.cache/vpga]. *)

(** {2 Lookup and insert} *)

val find : t -> Key.t -> 'a option
(** Counts as a hit or miss.  The ['a] is trusted: callers must respect
    the one-stage-one-type key discipline (see {!Key}). *)

val put : t -> Key.t -> 'a -> unit
(** Serializes [v] immediately; raises [Invalid_argument] (from
    [Marshal]) if [v] contains functional values. *)

val memo : t -> Key.t -> (unit -> 'a) -> 'a
(** [memo t k compute] returns the cached value for [k], or runs
    [compute], stores and returns its result. *)

(** {2 Statistics} *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  hit_bytes : int;  (** serialized size of returned hits *)
  store_bytes : int;  (** serialized size of stored values *)
  mem_entries : int;
  mem_bytes : int;
  stages : (string * (int * int * int)) list;
      (** per stage: (hits, misses, stores), sorted by stage name *)
}

val stats : t -> stats
val hit_rate : stats -> float

(** {2 Disk maintenance}

    Standalone (no live cache needed): operate on a cache directory
    across {e all} schema generations, so the CLI can inspect and bound
    a store containing entries from older formats. *)

type disk_stage = {
  d_schema : string;
  d_stage : string;
  d_entries : int;
  d_bytes : int;
}

val disk_stats : dir:string -> disk_stage list

val disk_clear : dir:string -> int
(** Removes every entry; returns the count removed. *)

type gc_result = {
  gc_kept : int;
  gc_kept_bytes : int;
  gc_removed : int;
  gc_removed_bytes : int;
}

val disk_gc : dir:string -> max_bytes:int -> gc_result
(** Evicts least-recently-used entries (hits touch their files) until
    the store fits in [max_bytes]. *)

val clear : t -> unit
(** Drops the in-memory table and, if disk-backed, its on-disk entries.
    Statistics are kept. *)
