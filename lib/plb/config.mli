(** Logic configurations of the PLB architectures (paper Section 2.3).

    The granular PLB implements 3-input functions with structures that are
    faster and denser than a 3-LUT:

    + MX — a single 2:1 MUX;
    + ND3 — a single ND3WI gate;
    + NDMX — a 2:1 MUX driven by a single ND2WI gate;
    + XOAMX — a 2:1 MUX driven by another 2:1 MUX;
    + XOANDMX — a 2:1 MUX driven by a 2:1 MUX and a ND3WI gate;

    plus ND2 (a lone 2-input NAND-type), INVB (buffer/inverter) and the MUX3
    fall-back (all three MUXes as a tree; needed for the two 3-input-XOR
    functions only).  The LUT-based PLB implements functions on its 3-LUT or
    its ND3WI gates. *)

type t = Invb | Mx | Nd2 | Nd3 | Ndmx | Xoamx | Xoandmx | Mux3 | Lut | Carry

(** [Carry] is the Section-2.2 full-adder carry: a single MUX whose select
    taps the propagate signal [P = a xor b] already produced by a sibling
    XOAMX supernode in the same tile (e.g. [maj(a,b,c) = mux(a xor b; a, c)]).
    It is only emitted by the compactor's full-adder extraction, never chosen
    standalone. *)

val name : t -> string
val all : t list

val feasible : t -> Vpga_logic.Bfun.t -> bool
(** Whether a 3-input function is implementable by the given configuration
    (structural enumeration over via-programmed pin sources).  [Mux3] and
    [Lut] are total; [Invb] accepts literals and constants. *)

val choose : Arch.t -> Vpga_logic.Bfun.t -> t
(** The configuration the mapper assigns to a 3-input function on the given
    architecture: the fastest feasible one. *)

val demand : Arch.t -> t -> Arch.Vector.t list
(** Resource-vector alternatives the configuration may occupy within one PLB
    (e.g. MX fits on either a plain MUX or the XOA). *)

val delay : t -> load:float -> float
(** Input-to-output delay (ps) driving [load] fF, internal stage loading
    included. *)

val input_cap : t -> float
(** Input pin capacitance presented by the first stage, fF. *)

val cell_area : t -> float
(** Sum of the component-cell areas the configuration occupies, um^2. *)

val via_count : t -> int
(** Configuration-via sites the configuration programs (sum over its
    component cells) — the VPGA's customization cost unit. *)

val tile_cost : Arch.t -> t -> float
(** Share of a PLB tile's combinational area the configuration consumes on
    the given architecture (cheapest resource alternative).  This is the
    cost the compaction cover minimizes: it reflects what packing actually
    pays, not free-standing cell area. *)

val carry_pair : Vpga_logic.Bfun.t -> (int * int) option
(** [Some (i, j)] when [f = mux(x_i xor x_j; x, y)] for plain-source data
    pins [x, y] — the condition under which a supernode may be emitted as
    [Carry] next to a sibling XOAMX over the same leaves. *)

val prewarm : unit -> unit
(** Force the module's shared (lazily built) feasibility sets.  Call once
    from the main domain before running flows on worker domains — OCaml 5
    lazies are not safe to force concurrently. *)

val cell_name : t -> string
(** Name used for configuration supernodes in mapped netlists
    ([Kind.Mapped] cells), e.g. ["cfg:ndmx"]. *)

val of_cell_name : string -> t option
(** Inverse of {!cell_name}; [None] for plain component-cell names. *)

val pp : Format.formatter -> t -> unit
