(** Regularity-driven logic compaction (paper Section 3.1).

    Rebuilds the combinational logic as {e supernodes} — functions of at most
    three inputs found by k-feasible-cut clustering over the design's AIG —
    and matches each supernode to the cheapest logic configuration of the
    target PLB architecture ("matches these computed supernodes to the
    appropriate combination of PLB components").  Area-flow dynamic
    programming selects the cover.  On the paper's designs this step reduces
    total gate area by roughly 15 %.

    The result is a netlist of [Kind.Mapped] nodes named ["cfg:<config>"]
    whose functions are the supernode truth tables; it is what the packing
    and placement stages consume. *)

val run : Vpga_plb.Arch.t -> Vpga_netlist.Netlist.t -> Vpga_netlist.Netlist.t
(** Equivalent compacted netlist.  Accepts generic or technology-mapped
    input.  The cover minimizes area flow, the paper's compaction
    objective, with estimated arrival as the tiebreak. *)

val config_histogram :
  Vpga_netlist.Netlist.t -> (Vpga_plb.Config.t * int) list
(** Count of supernodes per configuration in a compacted netlist (the
    paper's "majority of the functions ... are mapped to a NDMX or XOAMX
    configuration" observation; experiment E9). *)
