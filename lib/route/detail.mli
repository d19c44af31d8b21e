(** Detailed routing: track assignment within the global route.

    The paper's flow performs "ASIC-style custom global and detailed
    routing"; after {!Pathfinder} fixes each net's bin-to-bin path, this
    pass assigns every crossing to a physical track (0 .. capacity-1) on
    its boundary, preferring to continue on the same track through
    collinear segments.  Track changes and direction changes cost a via. *)

type t = {
  grid : Grid.t;
  track : (int * int, int) Hashtbl.t;  (** (edge, net index) -> track *)
  net_vias : int array;  (** per net: vias beyond the pin contacts *)
  total_vias : int;
  max_track : int;  (** highest track index used anywhere *)
}

val run_result : Grid.t -> Router.route list -> (t, string) result
(** [Error] describes the first edge holding more nets than its usable
    tracks (cannot happen on an overflow-free PathFinder result): the
    edge index, the (col,row) coordinates of the two bins it joins, its
    usable track count, and how many nets cross it — the retry policy's
    signal to escalate channel capacity.  Only a defective edge's usable
    tracks are candidates; dead tracks are skipped. *)

val run : Grid.t -> Router.route list -> t
(** {!run_result} as a hard gate.
    @raise Failure if an edge holds more nets than its capacity. *)
