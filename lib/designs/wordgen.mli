(** Word-level netlist construction kit: buses, adders, shifters, muxes,
    comparators, registers, counters and CRC steps.  All the benchmark
    designs are generated from these primitives.

    A bus is an array of node ids, least-significant bit first. *)

type bus = int array

module Netlist := Vpga_netlist.Netlist

val input_bus : Netlist.t -> string -> int -> bus
val output_bus : Netlist.t -> string -> bus -> unit
val constant : Netlist.t -> width:int -> int -> bus

val and_bus : Netlist.t -> bus -> bus -> bus
val or_bus : Netlist.t -> bus -> bus -> bus
val xor_bus : Netlist.t -> bus -> bus -> bus

val reduce_or : Netlist.t -> bus -> int

val full_adder : Netlist.t -> int -> int -> int -> int * int
(** [(sum, carry)] *)

val ripple_adder : Netlist.t -> ?cin:int -> bus -> bus -> bus * int
(** [(sum, carry_out)]; widths must match. *)

val carry_select_adder :
  ?block:int -> Netlist.t -> ?cin:int -> bus -> bus -> bus * int
(** Carry-select adder: ripple blocks of [block] bits (default 4) computed
    for both incoming carries and selected by the true carry — depth
    O(n/block + block) instead of O(n). *)

val csa_reduce : Netlist.t -> bus list -> bus * bus
(** Carry-save (3:2) reduction of any number of equal-width addends down to
    a sum/carry pair (carries pre-shifted; add the two results to finish). *)

val csa_multiplier : Netlist.t -> bus -> bus -> bus
(** [m x m -> 2m] multiplier: partial products reduced with {!csa_reduce},
    finished with a carry-select adder — logarithmic reduction depth. *)

val subtractor : Netlist.t -> bus -> bus -> bus * int
(** [(difference, borrow_out)] — two's-complement [a - b]; borrow_out is 1
    when [a < b] (unsigned). *)

val incrementer : Netlist.t -> bus -> bus

val mux_bus : Netlist.t -> sel:int -> bus -> bus -> bus
(** [sel = 0] picks the first bus. *)

val mux_tree : Netlist.t -> sel:bus -> bus list -> bus
(** Select among [2^|sel|] buses (list may be shorter; missing entries
    replicate the last). *)

val equal_const : Netlist.t -> bus -> int -> int
val equal_bus : Netlist.t -> bus -> bus -> int
val less_than : Netlist.t -> bus -> bus -> int
(** Unsigned [a < b]. *)

val shift_left : Netlist.t -> bus -> amount:bus -> bus
(** Logarithmic barrel shifter; vacated bits are 0. *)

val shift_right : Netlist.t -> bus -> amount:bus -> bus

val leading_zero_count : Netlist.t -> bus -> bus
(** Width [ceil(log2 (w+1))] count of leading (most-significant) zeros. *)

val register_bus : Netlist.t -> bus -> bus
(** A rank of D flops capturing the bus each cycle. *)

val counter : Netlist.t -> width:int -> enable:int -> bus
(** Free-running binary counter with enable. *)

val crc_step : Netlist.t -> poly:int -> state:bus -> din:int -> bus
(** One bit-serial CRC/LFSR step: next state combinational logic. *)

val log2_up : int -> int
