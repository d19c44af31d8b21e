(** Cycle-accurate two-valued simulation, bit-parallel.

    {!create} compiles the netlist once into flat per-node arrays (truth
    table, arity, offset into one shared fanin array) plus the PI/PO/flop/D
    index arrays.  Evaluation walks them in topological order and computes
    each node on a whole [int]: bit [l] of every word is {e lane} [l], an
    independent stimulus, so one pass simulates up to {!lanes} input
    vectors.  The evaluation loop allocates nothing.

    The bool API ({!step}, {!eval_comb}, {!value}, {!run}) is lane 0 of the
    same kernel. *)

type t

val lanes : int
(** Lanes callers pack into one word: [Sys.int_size - 1]. *)

val create : Netlist.t -> t
(** Compiles a simulator; flops reset to 0.
    @raise Levelize.Combinational_cycle on an ill-formed netlist. *)

val reset : t -> unit
(** Every flop back to 0, in every lane. *)

val eval_words : t -> int array -> unit
(** [eval_words sim pi] evaluates the combinational logic with primary input
    [k] (in {!Netlist.inputs} order) driven by word [pi.(k)], flops holding
    their current state; no state update.
    @raise Invalid_argument on a wrong number of inputs. *)

val step_words : t -> int array -> unit
(** One clock cycle: {!eval_words}, then every flop samples its D word.
    {!output_word} and {!word} still show the values {e during} the cycle. *)

val output_word : t -> int -> int
(** Word of the [k]-th primary output (in {!Netlist.outputs} order) from the
    last evaluation. *)

val word : t -> int -> int
(** Word of a node from the last evaluation (a flop's is its Q). *)

val step : t -> bool array -> bool array
(** [step sim pi] applies one clock cycle: evaluates combinational logic with
    primary-input values [pi] (in {!Netlist.inputs} order), samples flop D
    pins, then returns the primary-output values {e before} the flop update
    (i.e. the outputs visible during the cycle).  Flops update afterwards.
    Lane 0 of {!step_words}. *)

val eval_comb : t -> bool array -> bool array
(** Combinational evaluation only: no state update.  Lane 0 of
    {!eval_words}. *)

val value : t -> int -> bool
(** Most recently computed value of a node (lane 0 of {!word}). *)

val run : Netlist.t -> bool array list -> bool array list
(** Convenience: reset, then [step] through a list of input vectors. *)
