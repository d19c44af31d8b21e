(** Seeded manufacturing-defect maps for the regular fabric.

    A defect map lives in {e normalized die coordinates} ([0,1] x [0,1]):
    the PLB array dims and the routing-grid discretization both vary
    with legalization's array growth and the channel-width probes, so a
    map records physical die locations and each stage projects them onto
    its own discretization at construction time ({!tile_dead} /
    {!dead_pred} for the packing stages and checks, {!tracks} as a
    {!Vpga_route.Grid.track_fn} for the routing stages).

    Three defect kinds:
    - {e dead tiles}: the PLB tile containing the site admits nothing
      (zero capacity for placement, spill and refinement);
    - {e dead routing edges}: the channel boundary whose catchment
      contains the site exposes zero usable tracks — the router prices it
      unroutable, and any crossing surfaces as overflow;
    - {e derated boundaries}: rectangular regions whose boundaries expose
      only a seeded fraction of their tracks (a non-contiguous subset, so
      detailed routing genuinely skips dead track indices).

    Generation is a pure function of the parameters, so a map is
    bit-identical across jobs settings and sessions. *)

type dist = Uniform | Clustered
(** Spatial distribution: independent per-site defects, or a few seeded
    cluster centers each killing their 3x3 neighbourhood (particle-shower
    style). *)

type t = {
  seed : int;
  dist : dist;
  dead_tiles : (float * float) array;  (** normalized die points *)
  dead_edges : (float * float * bool) array;
      (** normalized die point plus channel orientation (vertical?) *)
  derated : (float * float * float * float * float) array;
      (** [(x0, y0, x1, y1, keep)] rectangles; boundaries inside expose
          [ceil (keep * capacity)] tracks *)
}

val empty : t
(** No defects; every view is fully transparent (bit-identical flow
    results to the pre-defect-layer code). *)

val is_empty : t -> bool

val generate :
  ?dist:dist ->
  ?tile_rate:float ->
  ?edge_rate:float ->
  ?derate_rate:float ->
  ?derate_keep:float ->
  seed:int ->
  unit ->
  t
(** Draw a map on a virtual 16 x 16 site grid: each site goes dead-tile with probability [tile_rate] and
    dead-edge with probability [edge_rate] (default 0; [Clustered] scales
    the same rates into cluster counts); [derate_rate] (default 0) scales
    the number of derated rectangles, each keeping [derate_keep] (default
    0.5) of its boundaries' tracks. *)

val at_rate : ?dist:dist -> seed:int -> float -> t
(** The stress sweep's one-knob generator: [at_rate ~seed r] is
    {!generate} with [tile_rate = r/2], [edge_rate = r] and
    [derate_rate = r]; [r <= 0] is {!empty}. *)

val tile_dead : t -> cols:int -> rows:int -> int -> bool
(** Is this tile of a [cols x rows] array dead?  Shaped for
    {!Vpga_pack.Quadrisect.legalize_result}'s [dead_tile]. *)

val dead_pred : t -> cols:int -> rows:int -> int -> bool
(** {!tile_dead} precomputed into a lookup array for one fixed
    discretization: the view [Phys.check_packing ~dead_tile] and
    {!Inject.defect_dead_tile} take. *)

val tracks :
  t ->
  cx:float ->
  cy:float ->
  hw:float ->
  hh:float ->
  vertical:bool ->
  capacity:int ->
  int array
(** Usable tracks of the channel boundary at normalized midpoint
    [(cx, cy)] with bin half-extents [(hw, hh)]: [[||]] when a dead-edge
    site of the same orientation falls in the catchment, a seeded
    [ceil (keep * capacity)]-element subset inside a derated rectangle,
    the full range otherwise.  [tracks d] is a
    {!Vpga_route.Grid.track_fn}.  The surviving {e count} is monotone in
    [capacity] (membership may churn), which is what the
    minimum-channel-width binary search relies on. *)

val describe : t -> string
