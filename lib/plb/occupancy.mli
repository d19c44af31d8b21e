(** Mutable per-tile occupancy: the packer's hot-path replacement for
    recompute-from-scratch {!Packer.fits} queries.

    A tile keeps its resident items, the pin/output/flop counters and a
    config-multiset signature (4 bits per configuration count; a pure
    flop takes none).  A feasibility query runs in two tiers:

    + the counter checks of {!Packer.fits}, O(1);
    + one lookup in a memo shared by every tile of the {!cache}, keyed by
      the would-be signature.  Past the counters, the verdict depends only
      on the multiset of configurations, since each item's demand
      alternatives are a function of its configuration.  A miss runs
      {!Packer.fits} on the would-be resident list and records its verdict.

    Queries agree exactly with [Packer.fits arch (item :: items t)], which
    keeps legalization results bit-identical to the recompute-from-scratch
    packer (asserted by the randomized agreement test in [test_pack.ml]). *)

type cache
(** The fits memo plus query statistics, shared by every tile of one
    packing run.  Single-domain use only (one flow task = one domain). *)

val create_cache : Arch.t -> cache

val fits_calls : cache -> int
(** Total {!query} calls served through this cache. *)

val cache_hits : cache -> int
(** Verdicts ({!query}, {!query_replacing} and {!add}) answered from the
    config-multiset memo without running {!Packer.fits}. *)

type t
(** One tile's occupancy.  Mutable; not thread-safe. *)

val create : cache -> t

val mark_dead : t -> unit
(** Mark the tile defective: {!query}, {!query_replacing} and {!add} all
    answer [false] (zero capacity — nothing is ever placed or spilled
    into it).  A tile never marked keeps the healthy semantics. *)

val count : t -> int
(** Resident items. *)

val is_empty : t -> bool

val items : t -> Packer.item list
(** Newest-first; a multiset — order carries no meaning. *)

val query : t -> Packer.item -> bool
(** [query t it] iff [Packer.fits arch (it :: items t)], [arch] being the
    architecture of [t]'s cache.  Read-only apart from cache statistics. *)

val query_replacing : t -> without:Packer.item -> Packer.item -> bool
(** [query_replacing t ~without it] iff [it] would fit once resident
    [without] left: the refinement loop's swap probe, equal to
    [remove t without; query t it] with [without] restored — but
    read-only, so a rejected swap never touches the tile.
    @raise Invalid_argument when [without] is not a resident. *)

val add : t -> Packer.item -> bool
(** Commit [it] if it fits (same predicate as {!query}); returns whether
    it was added.  A tile therefore only ever holds a multiset that
    {!Packer.fits} accepts. *)

val remove : t -> Packer.item -> unit
(** Remove one resident equal to [it] (config, pins, flop).  The tile
    then holds a sub-multiset of one that fit, and [add t it] is
    guaranteed to succeed, restoring the same counters, signature and
    multiset (undo).
    @raise Invalid_argument when no such resident exists. *)
