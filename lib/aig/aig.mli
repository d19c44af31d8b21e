(** And-Inverter Graph with structural hashing and constant folding — the
    logic-optimization core of the Design-Compiler substitute.

    Literals are [2 * node + complement]; node 0 is constant false, so
    {!const0} is literal 0 and {!const1} literal 1.  Node ids are dense and
    topologically ordered by construction. *)

module Netlist := Vpga_netlist.Netlist

type t
type lit = int

val create : unit -> t

val const0 : lit
val const1 : lit

val add_pi : t -> lit
(** Add a primary input node; returns its positive literal. *)

val not_ : lit -> lit
val and_ : t -> lit -> lit -> lit
(** Structurally hashed, constant-folded AND. *)

val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val mux_ : t -> sel:lit -> lit -> lit -> lit

val add_fn : t -> Vpga_logic.Bfun.t -> lit array -> lit
(** Shannon-decompose an arbitrary function of the given argument literals
    into AND nodes. *)

val size : t -> int
(** Total node count, including constant and PIs. *)

val and_count : t -> int
val num_pis : t -> int

val node_of : lit -> int
val is_complement : lit -> bool
val is_pi : t -> int -> bool
val is_const : int -> bool
val fanins : t -> int -> lit * lit
(** Fanin literals of an AND node. *)

val pi_index : t -> int -> int
(** Index (0-based, creation order) of a PI node. *)

val lane_mask : int
(** The low {!Vpga_netlist.Simulate.lanes} bits: the lanes {!simulate}
    keeps. *)

val simulate : t -> int array -> int array
(** [simulate t pi] drives PI [k] with word [pi.(k)] and returns one word
    per node: bit [l] of each is the node's value in lane [l], an
    independent pattern.  Every word is confined to {!lane_mask}.
    @raise Invalid_argument on a wrong number of PI words. *)

val eval : t -> bool array -> lit -> bool
(** Evaluate a literal under an assignment to the PIs (lane 0 of
    {!simulate}). *)

(** Binding between a sequential netlist and its combinational AIG: flop Q
    pins become pseudo-PIs, flop D pins pseudo-POs. *)
type root = Po of int (** output node id *) | Flop_d of int (** flop node id *)

type bound = {
  aig : t;
  source : Netlist.t;
  pi_sources : int array;
      (** netlist node id per input literal: inputs, then flops *)
  roots : (root * lit) list;
  node_lits : int array;
      (** per netlist node, the AIG literal computing it — the witness the
          redundancy analysis groups by: two nodes with the same literal
          strash to the same function.  [-1] for [Output] nodes (they
          carry no logic; see [roots]). *)
}

val replay : t -> Netlist.t -> lit array -> bound
(** [replay t nl in_lits] adds [nl]'s combinational logic to [t], reading
    [in_lits] for its primary inputs and then its flop Q pins, and binds the
    result.  Gates are added in id order, so replaying two netlists into
    one AIG strashes their common logic together.
    @raise Invalid_argument on a fanin that is not yet converted or an
    unconnected flop. *)

val of_netlist : Netlist.t -> bound
(** Replay into a fresh AIG whose PIs are the netlist's inputs, then its
    flops; strash and constant folding run during construction. *)
