(** Seeded fault injection for the flow's intermediate artifacts.

    Each corruptor deterministically (from [seed]) picks a victim,
    mutates the artifact in place and returns an undo closure, so tests
    can prove the verification layer catches the fault — or a retry
    policy heals it — and then restore the artifact.  Routing results
    are consumed immutably, so the route corruptors take the result
    binding as a [ref]: the ref is rebound to a corrupted copy (sharing
    the grid) and [undo] restores the original binding. *)

type fault = {
  what : string;  (** human-readable description of the injected fault *)
  undo : unit -> unit;
}

val netlist_flip : seed:int -> Vpga_netlist.Netlist.t -> fault
(** Rewire one fanin of a live gate to a different existing driver (the
    netlist-level analogue of flipping an AIG edge).  Targets always
    have smaller ids, so no combinational loop can form — detection is
    the equivalence gates' job, not the lint's.
    @raise Invalid_argument if the netlist has no mutable gate. *)

val placement_unplace : seed:int -> Vpga_place.Placement.t -> fault
(** Give one item a non-finite coordinate ([unplaced]). *)

val placement_offdie : seed:int -> Vpga_place.Placement.t -> fault
(** Push one item far outside the die ([outside-die]). *)

val packing_uncover : seed:int -> Vpga_pack.Quadrisect.t -> fault
(** Drop one packable node's tile assignment ([uncovered]). *)

val packing_overfill :
  seed:int -> Vpga_pack.Quadrisect.t -> Vpga_netlist.Netlist.t -> fault
(** Duplicate placement slots into one victim tile until its contents
    violate {!Vpga_plb.Packer.fits} ([tile-overflow]).
    @raise Invalid_argument if the design is too small to overfill. *)

val route_drop_edge : seed:int -> Vpga_route.Pathfinder.result ref -> fault
(** Rebind the ref to a copy of the routing result with one edge dropped
    from a multi-edge routing tree ([route-disconnected]); [undo]
    restores the original result.
    @raise Invalid_argument when no route has two edges. *)

val defect_dead_tile :
  seed:int -> dead:(int -> bool) -> Vpga_pack.Quadrisect.t -> fault
(** Force one packed node onto a tile the defect map marks dead
    ([dead] is the map's {!Vpga_resil.Defect.dead_pred} view at the
    packing's dims) — the extended
    [Phys.check_packing ~dead_tile] must flag it ([defect-dead-tile]).
    @raise Invalid_argument when the map kills no tile of this array or
    the packing is empty. *)

val defect_dead_edge : seed:int -> Vpga_route.Pathfinder.result ref -> fault
(** Rebind the ref to a copy of the routing result with one routing tree
    extended across a {e pendant} dead boundary of its grid: the tree
    stays a single acyclic tree, so only the capacity / dead-edge checks
    of [Phys.check_routing] fire ([dead-edge]), proving the checker sees
    defective-resource use rather than a connectivity artifact.
    @raise Invalid_argument when no route borders a usable pendant dead
    edge (e.g. the grid has no defects). *)
