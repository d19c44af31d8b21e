(** Gate-level netlist: a DAG of {!Kind} nodes with primary inputs/outputs and
    single-clock D flip-flops.

    Netlists are built through the mutable builder API ([input], [gate], ...)
    and then treated as immutable.  Node ids are dense integers assigned in
    creation order. *)

type node = { id : int; kind : Kind.t; fanins : int array; name : string option }

type t

val create : ?name:string -> unit -> t

val design_name : t -> string

val input : t -> string -> int
(** Add a primary input; returns its node id. *)

val gate : ?name:string -> t -> Kind.t -> int array -> int
(** Add a combinational gate or DFF; returns its node id.
    @raise Invalid_argument on arity mismatch, unknown fanin id, or an
    attempt to add [Input]/[Output] kinds. *)

val output : t -> string -> int -> int
(** Mark a node as driving a named primary output; returns the output node. *)

val dff : ?name:string -> t -> int
(** Add a D flip-flop with an unconnected D pin (for feedback paths); the
    returned id is the flop's Q.  Connect D later with {!connect}. *)

val connect : t -> flop:int -> d:int -> unit
(** Connect the D pin of a flop created with {!dff} (or rewire a {!gate}-built
    flop). *)

val size : t -> int
val node : t -> int -> node
val nodes : t -> node array
val inputs : t -> int list
(** Primary input node ids, in creation order. *)

val outputs : t -> int list
(** Output node ids, in creation order. *)

val flops : t -> int list

val interface : t -> int * int * int
(** Primary input, output and flop counts, without building the lists. *)

val fanout : t -> int array array
(** [fanout t].(i) lists the ids of nodes reading node [i]. *)

val map_combinational :
  ?name:string -> t -> (t -> node -> int array -> int) -> t
(** [map_combinational t f] rebuilds the netlist, copying inputs, flops and
    outputs and letting [f dst node new_fanins] translate each combinational
    node (possibly into several gates in [dst]); returns the new netlist.
    Used by technology mapping and compaction. *)

val pp_stats : Format.formatter -> t -> unit
