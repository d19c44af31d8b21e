(** Randomized equivalence checking between two netlists with identical
    primary-input/output interfaces.

    Used as the flow's sanity net: every transformation (mapping, compaction,
    buffering) must leave the design observationally equivalent.  Both
    checks run on the bit-parallel {!Simulate} kernel, many stimuli per
    word, and report the failure a one-stimulus-at-a-time check would. *)

type verdict =
  | Equivalent
  | Mismatch of { cycle : int; output : int; vectors : bool array list }

val check :
  ?vectors:int -> ?sequence_length:int -> seed:int ->
  Netlist.t -> Netlist.t -> verdict
(** [check ~seed a b] drives both designs with [vectors] random input
    sequences of [sequence_length] cycles from reset and compares all primary
    outputs each cycle.  Defaults: 64 sequences of 8 cycles.

    The input bits are drawn from [seed] sequence by sequence, cycle by
    cycle, input by input; sequences are simulated {!Simulate.lanes} at a
    time, one per lane, and checking stops at the first batch with a
    mismatch.  The [Mismatch] is that of the lowest-numbered failing
    sequence: its first failing [cycle], the lowest differing [output] in
    that cycle, and its input [vectors] for cycles [0 .. cycle].
    @raise Invalid_argument if interfaces differ. *)

val check_exhaustive : Netlist.t -> Netlist.t -> verdict
(** Exhaustive single-cycle check for combinational designs with at most 16
    primary inputs, {!Simulate.lanes} minterms per word in ascending order.  A
    [Mismatch] names the lowest failing minterm (as its one input vector)
    and its lowest differing output, with [cycle = 0].
    @raise Invalid_argument if interfaces differ or on more than 16 inputs.
    @raise Levelize.Combinational_cycle on an ill-formed netlist. *)
