(** Node kinds of the gate-level netlist IR.

    Two families share the IR: the {e generic} gates produced by the design
    generators (design entry), and {e mapped} cells — a component cell of a
    PLB architecture together with its via-programmed Boolean function.
    Mapped cells carry the library-cell name used to look up area and timing
    in a {!Vpga_cells} library. *)

type t =
  | Input        (** primary input; no fanins *)
  | Output       (** primary output; fanins [[|src|]] *)
  | Const of bool
  | Buf
  | Inv
  | And2
  | Or2
  | Nand2
  | Nor2
  | Xor2
  | Xnor2
  | Mux2         (** fanins [[|sel; d0; d1|]]: [sel ? d1 : d0] *)
  | And3
  | Or3
  | Nand3
  | Nor3
  | Xor3
  | Maj3         (** majority of three — the full-adder carry *)
  | Dff          (** fanins [[|d|]]; the node's value is Q *)
  | Mapped of { cell : string; fn : Vpga_logic.Bfun.t }
      (** library cell [cell] via-programmed to compute [fn] of its fanins *)

val arity : t -> int
(** Number of fanins the kind requires ([Input] is 0; [Mapped] is the arity
    of its function). *)

val is_sequential : t -> bool

val eval : t -> bool array -> bool
(** Combinational semantics. @raise Invalid_argument on [Input], [Dff] or a
    wrong-sized argument vector. *)

val fn : t -> Vpga_logic.Bfun.t
(** Truth table of a combinational kind over its fanins.  The fixed kinds
    return shared constant tables, so a call allocates nothing.
    @raise Invalid_argument on [Input], [Output], [Dff]. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
