(** Section 2.1 of the paper: feasibility of 3-input functions on the S3
    structure (a 2:1 MUX whose data legs are driven by two ND2WI gates) and on
    the modified S3 cell (one leg replaced by a 2:1 MUX with a programmable
    output inverter).

    The select of the structure is the designated third input (index 2, the
    paper's [s] in [f(a,b,s)]); the analysis is over the Shannon cofactors
    [g = f|s=0] and [h = f|s=1].  Exactly 196 = 14 x 14 functions are
    S3-feasible; the 60 infeasible ones fall in the paper's five Figure-2
    categories. *)

type category =
  | Nd2_xor   (** one cofactor ND2WI-feasible, the other is XOR (28) *)
  | Nd2_xnor  (** one cofactor ND2WI-feasible, the other is XNOR (28) *)
  | Both_xor  (** g = h = XOR: [f] is a 2-input XOR (1) *)
  | Both_xnor (** g = h = XNOR: [f] is a 2-input XNOR (1) *)
  | Complement_pair
      (** h = not g with XOR-type cofactors: [f] is a 3-input XOR/XNOR (2) *)

val select_var : int
(** The designated select input (2). *)

val feasible : Bfun.t -> bool
(** S3-feasibility of a 3-input function: both cofactors with respect to the
    select are ND2WI-feasible. *)

val classify_infeasible : Bfun.t -> category
(** Figure-2 category of an S3-infeasible function.
    @raise Invalid_argument if the function is S3-feasible. *)

val feasible_any_select : Bfun.t -> bool
(** Feasibility when the via-patterned fabric may route any of the three
    inputs to the select pin (a superset of {!feasible}; 238 functions). *)

val modified_feasible : Bfun.t -> bool
(** Feasibility on the modified S3 cell of Figure 3.  The MUX leg implements
    any 2-input function; categories 3-5 use the single-MUX and chained-MUX
    realizations the paper describes.  This is total: all 256 functions. *)

type census = {
  s3_feasible : int;
  s3_infeasible : int;
  by_category : (category * int) list;
  any_select_feasible : int;
  modified_feasible : int;
}

val census : unit -> census
(** Exhaustive classification of all 256 3-input functions. *)

val pp_census : Format.formatter -> census -> unit
