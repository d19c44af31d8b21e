(** The two patternable-logic-block architectures compared by the paper.

    - {!lut_plb} is the Figure-1 block previously selected in [8]: one 3-LUT,
      two ND3WI gates, a D flip-flop and I/O buffers.
    - {!granular_plb} is the paper's Figure-4 proposal: three 2:1 MUXes (one
      of them the up-sized "XOA", which also serves as an ND2WI), one ND3WI,
      a D flip-flop and programmable buffers, with via-configurable local
      interconnect exposing intermediate outputs.

    Tile areas are calibrated to the paper's stated relations: the granular
    PLB is 20 % larger overall and has 26.6 % more combinational area. *)

type resource = Lut | Nd3 | Xoa | Mux | Ff | Bufr

val all_resources : resource list

(** A resource vector: demands and capacities over the six resource kinds. *)
module Vector : sig
  type t

  val zero : t
  val of_list : (resource * int) list -> t
  val get : t -> resource -> int
  val add : t -> t -> t

  val fits : t -> cap:t -> bool
  (** componentwise [<=] *)

  val total : t -> int
  val pp : Format.formatter -> t -> unit
end

type t = {
  name : string;
  capacity : Vector.t;  (** resources per PLB tile *)
  library : Vpga_cells.Library.t;
  tile_area : float;  (** um^2, including local interconnect overhead *)
  comb_area : float;  (** combinational share of [tile_area] *)
  input_pins : int;  (** external signal pins per tile *)
  output_pins : int;
  via_sites : int;  (** potential configuration-via locations per tile *)
}

val lut_plb : t
val granular_plb : t

val granular_2ff : t
(** The paper's proposed remedy for flop-dominated designs ("a PLB with a
    greater ratio of Flip Flops to combinational logic elements"): the
    granular PLB with a second flip-flop.  Used by the domain-specific
    exploration experiment, not part of the paper's main comparison. *)

val all : t list
(** The two architectures of the paper's evaluation. *)

val flops_per_tile : t -> int
val pp : Format.formatter -> t -> unit
