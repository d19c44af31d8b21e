(** Feasibility of Boolean functions on the VPGA component gates.

    The component gates of both PLB architectures are NAND gates "with
    programmable inversion" (WI): via-patterned input/output polarity
    selection, input tying, and via-configurable constant inputs.  Under that
    model an ND2WI implements every 2-input function except XOR and XNOR, and
    an ND3WI implements every 3-input function expressible as
    [(a^p . b^q . c^r)^s] possibly degenerated by tying/constants. *)

val xor2 : Bfun.t
val xnor2 : Bfun.t

val is_xor_type : Bfun.t -> bool
(** True for the 2-input XOR and XNOR truth tables. *)

val nd2wi_feasible : Bfun.t -> bool
(** The 14 non-XOR-type 2-input functions (arity must be 2). *)

val nd2wi_strict : Bfun.t -> bool
(** The 8 nondegenerate AND-type functions [(a^p . b^q)^r] — no tying or
    constants.  Used to model the cost of a configuration, not feasibility. *)

val nd3wi_feasible : Bfun.t -> bool
(** 3-input functions implementable by one ND3WI gate: AND-types over a
    subset of the inputs, in any polarities, plus literals and constants. *)

val mux_feasible : Bfun.t -> bool
(** 3-input functions implementable by a single 2:1 MUX whose three pins are
    driven by (possibly inverted) distinct inputs or constants.  Includes all
    2-input functions (XOR = [mux ~sel:a b (not b)]), literals and
    constants. *)

val source_tables : int array
(** The eight via-routable pin sources over three inputs as arity-3 truth
    tables: constant 0, constant 1, inputs 0-2 ([0xAA], [0xCC], [0xF0]),
    then their complements. *)

val mark_mux_tables : Bytes.t -> int array -> unit
(** [mark_mux_tables marks pins] sets byte [t] of the 256-byte [marks] to
    ['\001'] for every arity-3 table [t] one 2:1 MUX computes with its
    select and both data pins each driven by a table of [pins]. *)
