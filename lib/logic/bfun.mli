(** Boolean functions of up to 5 inputs, represented as truth-table bitmasks.

    Minterm [m] (an integer whose bit [i] is the value of input [i]) is true
    iff bit [m] of the table is set.  Functions of arity [n] use the low
    [2^n] bits; all other bits are kept at zero so that structural equality
    coincides with functional equality at a given arity. *)

type t = private { arity : int; tt : int }

val make : arity:int -> int -> t
(** [make ~arity tt] builds a function from a raw truth table.  Bits above
    [2^arity] are masked off.  @raise Invalid_argument on an arity outside
    [0 .. 5] (a 32-bit table fits a 63-bit OCaml [int]). *)

val arity : t -> int
val table : t -> int

val const : arity:int -> bool -> t
val var : arity:int -> int -> t
(** [var ~arity i] is the projection onto input [i]. *)

val eval : t -> int -> bool
(** [eval f m] evaluates [f] on minterm [m]. *)

val lnot : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ( ^^^ ) : t -> t -> t
val nand : t -> t -> t
val mux : sel:t -> t -> t -> t
(** [mux ~sel f0 f1] is [if sel then f1 else f0], pointwise. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val cofactor : t -> var:int -> bool -> t
(** [cofactor f ~var b] is the Shannon cofactor [f] with input [var] fixed to
    [b], expressed over the remaining [arity f - 1] inputs (in order). *)

val expand : sel_var:int -> lo:t -> hi:t -> t
(** Inverse of {!cofactor}: rebuilds an [n+1]-ary function from the two
    [n]-ary cofactors with respect to input [sel_var]. *)

val depends_on : t -> int -> bool
(** Whether the function's value depends on the given input. *)

val support : t -> int list
(** Inputs the function actually depends on, ascending. *)

val support_size : t -> int

val popcount : t -> int
(** Number of satisfying minterms. *)

val is_const : t -> bool
val is_literal : t -> bool
(** True for projections of a single input, in either polarity. *)

val extend : t -> arity:int -> t
(** [extend f ~arity] reinterprets [f] over a larger arity; the added
    (higher-index) inputs are don't-cares. *)

val permute_inputs : t -> int array -> t
(** [permute_inputs f p] renames input [i] to [p.(i)]; [p] must be a
    permutation of [0 .. arity-1]. *)

val cofactor_pair : t -> var:int -> t * t
(** [(cofactor f ~var false, cofactor f ~var true)]. *)

val all : arity:int -> t list
(** All [2^(2^arity)] functions, ascending by table. *)

val to_string : t -> string
(** Truth table as a binary string, most significant minterm first. *)

val pp : Format.formatter -> t -> unit
