(** Negotiated-congestion routing (PathFinder): rip-up and re-route with
    growing present-congestion pricing and accumulated history costs until no
    routing-grid boundary is over capacity. *)

type result = {
  grid : Grid.t;
  routes : Router.route list;
  iterations : int;
  final_overflow : int;  (** 0 when routing converged *)
}

val route_placement :
  ?capacity:int -> ?tracks:Grid.track_fn ->
  ?max_iterations:int -> Vpga_place.Placement.t -> result
(** Builds one multi-terminal net per driver from the placement's netlist
    and negotiates until overflow-free (or [max_iterations], default 30).
    [tracks] derates or kills individual boundaries (see
    {!Grid.track_fn}): dead edges are priced as unroutable, so any route
    forced across one leaves [final_overflow] nonzero. *)

val total_wirelength : result -> float

val wire_loads :
  result -> (int -> float * float)
(** Per-driver (wire capacitance fF, wire resistance ps/fF) lookup for
    timing; drivers without a routed net get a local-wire minimum.  Models
    the paper's ASIC-style {e custom} routing: plain metal on the upper
    layers. *)

val wire_loads_regular : result -> (int -> float * float)
(** The paper's future-work alternative: {e regular} (FPGA-style segmented)
    routing, where every bin crossing passes a programmable switch that adds
    resistance (0.35 ps/fF) and capacitance (1.2 fF).  Same topology,
    heavier parasitics — experiment E14 compares the two. *)
