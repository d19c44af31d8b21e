(** Global-routing grid: the die divided into bins, with a capacity (track
    count) on every bin-to-bin boundary.  This models the VPGA's ASIC-style
    routing on the metal layers above the PLB array.

    Defect awareness: every edge carries an explicit array of {e usable}
    track indices.  On a healthy fabric each array is the full
    [0..capacity-1] range (and all edges share one physical array, so the
    representation is free); a defect map supplies a {!track_fn} that
    derates or kills individual boundaries.  [capacity] remains the
    healthy per-boundary track count — the retry ladder's escalation base
    — while {!cap} is the per-edge usable count that congestion pricing,
    overflow accounting and track assignment consult. *)

type t = {
  cols : int;
  rows : int;
  bin_w : float;  (** um *)
  bin_h : float;
  capacity : int;  (** healthy tracks per boundary *)
  usage : int array;  (** per edge *)
  history : float array;  (** PathFinder history cost, per edge *)
  tracks : int array array;
      (** per edge, the ascending array of usable track indices; empty
          means the boundary is dead *)
}

type track_fn =
  cx:float ->
  cy:float ->
  hw:float ->
  hh:float ->
  vertical:bool ->
  capacity:int ->
  int array
(** Usable-track oracle consulted once per edge at grid construction.
    [cx], [cy] are the edge midpoint and [hw], [hh] the bin half-extents,
    all in normalized die coordinates ([0,1] x [0,1]) so one defect map
    applies to every grid discretization; [vertical] distinguishes the
    channel orientation.  Must return an ascending subset of
    [0..capacity-1]; [[||]] marks the boundary dead. *)

val create :
  ?tracks:track_fn ->
  cols:int ->
  rows:int ->
  bin_w:float ->
  bin_h:float ->
  capacity:int ->
  unit ->
  t

val of_placement :
  ?capacity:int ->
  ?tracks:track_fn ->
  Vpga_place.Placement.t ->
  t
(** Grid sized from a placement's die: ~45 um bins (8-48 columns) and a
    boundary capacity proportional to bin size (4 tracks per um).  When
    [tracks] is supplied, emits the [route.dead_edges] /
    [route.derated_edges] counters to the ambient trace. *)

val cap : t -> int -> int
(** Usable tracks on an edge; equals [capacity] on a healthy fabric. *)

val dead : t -> int -> bool
(** [cap t e = 0]. *)

val track_usable : t -> int -> int -> bool
(** [track_usable t e tr]: is track [tr] usable on edge [e]? *)

val bin_of : t -> x:float -> y:float -> int
(** Bin index containing a coordinate (clamped to the die). *)

val coords : t -> int -> int * int
(** Bin index to [(col, row)]. *)

val num_bins : t -> int
val num_edges : t -> int

val h_edge : t -> int -> int -> int
(** [h_edge t c r]: the edge between bins [(c, r)] and [(c + 1, r)]. *)

val v_edge : t -> int -> int -> int
(** [v_edge t c r]: the edge between bins [(c, r)] and [(c, r + 1)]. *)

val horizontal : t -> int -> bool
(** Does the edge join two bins of one row (an {!h_edge})? *)

val bins_of : t -> int -> int * int
(** The two bins an edge joins, lower index first: the inverse of
    {!h_edge} / {!v_edge}. *)

val neighbors : t -> int -> (int * int) list
(** [(edge, bin)] pairs adjacent to a bin, in the order down (row + 1),
    up, right, left. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors t b f] calls [f edge bin] for each neighbour of [b] in
    {!neighbors}' order, allocating nothing itself. *)

val edge_between : t -> int -> int -> int
(** Edge index between two adjacent bins. @raise Invalid_argument otherwise. *)

val edge_length : t -> int -> float
(** Physical length represented by crossing an edge, um. *)

val overflow : t -> int
(** Total usage above per-edge usable capacity, summed over edges. *)

val center : t -> int -> float * float
