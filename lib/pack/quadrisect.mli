(** Legalization of an ASIC-style placement onto the regular PLB array by
    recursive quadrisection (paper Section 3.1).

    The die is a [cols x rows] array of PLB tiles.  Starting from the
    detailed placement, items (logic configurations and flops) are assigned
    to quadrants recursively; when a quadrant's resource demand exceeds its
    tiles' aggregate capacity, the least critical items are relocated to the
    sibling quadrant with the most spare capacity ("the cost function ...
    takes into consideration the criticality of the cells being moved and
    also tries to minimize perturbation").  A final per-tile pass enforces
    exact co-location feasibility ({!Vpga_plb.Packer.fits}), spilling to the
    nearest tile with room. *)

type t = {
  arch : Vpga_plb.Arch.t;
  cols : int;
  rows : int;
  tile_of_node : int array;  (** netlist node id -> tile index, or -1 *)
  displacement : float;  (** total movement from the ASIC placement, um *)
  mean_displacement_tiles : float;
      (** mean per-item movement in tile-diagonal units — the
          architecture-comparable perturbation measure *)
  tiles_used : int;  (** tiles holding at least one item *)
}

val item_of_node : Vpga_netlist.Netlist.node -> Vpga_plb.Packer.item option
(** The packing item of a netlist node ([None] for I/O and constants).
    Accepts configuration supernodes, component cells and flops. *)

type fit_error = {
  design : string;
  dims_tried : int list;  (** array dims attempted, in growth order *)
  unplaced : int;  (** items without a feasible tile on the last attempt *)
}

val fit_error_to_string : fit_error -> string

val legalize_result :
  ?utilization:float ->
  ?criticality:float array ->
  ?dead_tile:(cols:int -> rows:int -> int -> bool) ->
  Vpga_plb.Arch.t ->
  Vpga_place.Placement.t ->
  (t, fit_error) result
(** Sizes a PLB array (target resource [utilization], default 0.9, growing
    it if legalization needs room), then quadrisects.  [Error] reports the
    design, the dims tried, and the residual unplaced-item count when the
    design cannot fit even after growth retries — the retry policy's signal
    to relax [utilization].

    [dead_tile ~cols ~rows t] marks tile [t] defective at the given array
    discretization (the defect map's view; see {!Vpga_resil.Defect}):
    dead tiles contribute nothing to quadrant capacity, are never placed
    or spilled into, and grow the starting dims when they eat into the
    lower bound.  Omitted, behaviour is bit-identical to the healthy
    fabric. *)

val legalize :
  ?utilization:float ->
  ?criticality:float array ->
  ?dead_tile:(cols:int -> rows:int -> int -> bool) ->
  Vpga_plb.Arch.t ->
  Vpga_place.Placement.t ->
  t
(** {!legalize_result} as a hard gate.
    @raise Failure with {!fit_error_to_string} detail on an unfittable
    design. *)

val array_area : t -> float
(** [cols * rows * tile_area]: the flow-b die area. *)

val tile_side : t -> float
(** Side length of one (square) tile, um. *)

val tile_center : t -> int -> float * float
val snap : t -> Vpga_place.Placement.t -> Vpga_place.Placement.t
(** Move every packed node's coordinates to its tile center (the geometry
    the router sees), in place, and return the placement on the
    [cols x rows] array's die.  The result shares [pl]'s coordinate
    arrays; only its die dims differ. *)

(** {2 Region decomposition}

    A [regions x regions] grid of tile rectangles with balanced integer
    splits, used by {!Refine} to partition the die for region-parallel
    annealing.  The decomposition depends only on the array dims — never
    on worker count — so region ownership is reproducible at any
    parallelism. *)

val region_bounds : regions:int -> t -> int -> int * int * int * int
(** [region_bounds ~regions t r] is the tile rectangle
    [(c0, r0, c1, r1)] (half-open: columns [c0 <= c < c1], rows
    [r0 <= r < r1]) owned by region [r] of the grid, for
    [0 <= r < regions * regions].  Rectangles tile the array exactly;
    some are empty when [regions] exceeds the dims. *)

val region_of_tile : regions:int -> t -> int -> int
(** The region whose rectangle contains the given tile. *)
