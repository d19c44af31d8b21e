(** A placement: coordinates (um) for every netlist node on a die.

    Placeable cells live inside the core; primary inputs/outputs sit on the
    die boundary (left/right edges respectively, evenly spread). *)

type t = {
  graph : Hypergraph.t;
  die_w : float;
  die_h : float;
  x : float array;  (** per netlist node id *)
  y : float array;
}

val create : ?utilization:float -> Vpga_netlist.Netlist.t -> t
(** Builds the hypergraph, sizes a square die so the cell area fits at
    [utilization] (default 0.7, a typical standard-cell row utilization)
    and pins I/O to the boundary; cell coordinates start at the die
    center. *)

val net_hpwl : t -> int array -> float
(** Half-perimeter wirelength of one net given as netlist node ids. *)

val hpwl : ?nets:int array array -> t -> float
(** Total half-perimeter wirelength over all nets (I/O included).  Pass
    [~nets] (from {!nets_with_io}) to skip rebuilding the net list —
    the fast path for callers that evaluate HPWL repeatedly. *)

val nets_with_io : t -> int array array
(** Nets as netlist-node-id arrays, including I/O terminals (used by HPWL,
    annealing and routing). *)

val scatter : seed:int -> t -> unit
(** Uniform random cell coordinates (baseline / annealing start). *)

(** Cached per-net bounding boxes for incremental HPWL maintenance.

    A record keeps the net's bounds plus the number of pins sitting
    exactly on each bound.  Moving one pin updates the record in O(1)
    unless the pin was alone on a bound and left it inward, in which
    case the net is rescanned (O(degree)) — the classic VPR-style
    incremental bounding box.  This is the annealer's hot path. *)
module Bbox : sig
  type b = {
    mutable min_x : float;
    mutable max_x : float;
    mutable min_y : float;
    mutable max_y : float;
    mutable n_min_x : float;
        (** pins at [min_x]; counts are floats so that the record is
            stored flat and no field access allocates *)
    mutable n_max_x : float;
    mutable n_min_y : float;
    mutable n_max_y : float;
  }

  val of_net : t -> int array -> b
  (** Scan the net at the placement's current coordinates. *)

  val hpwl : b -> float

  val dummy : b
  (** Shared all-zero placeholder for array slots whose net is tracked by
      plain rescans rather than incrementally (e.g. nets below the
      annealer's small-net cutoff).  Must never be mutated. *)

  exception Rescan
  (** Raised when a cached record cannot absorb a move: the pin held a
      bound alone and left it inward, so only a rescan ({!of_net}) knows
      the next pin. *)

  val shift : b -> float array -> int -> unit
  (** [shift b mv k] updates [b] in place for one pin moved from
      [(mv.(k), mv.(k+1))] to [(mv.(k+2), mv.(k+3))].  The move is read
      from a float array so the caller's hot loop passes no boxed floats.
      @raise Rescan when the record is insufficient; [b] may then be
      partially updated and must be rebuilt with {!of_net}. *)

  val shift_hpwl : b -> float array -> int -> float
  (** The HPWL [b] would have after the move [shift b mv k] describes,
      without mutating [b] and without allocating.
      @raise Rescan under the same condition as {!shift}. *)
end
