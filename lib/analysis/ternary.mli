(** The 0/1/X value lattice shared by constant propagation and
    X-propagation, and the forward fixed-point analysis computing it.

    Ordering: [Bot] (unreached) below the two constants, which sit below
    [Def] (unknown but definitely two-valued), which sits below [Und]
    (possibly undefined — an X that escaped an uninitialized flop or an
    undriven pin).  The distinction between [Def] and [Und] is what makes
    X-propagation more than constant propagation's complement: a [Def]
    node merely varies with the inputs; an [Und] node can differ from any
    two-valued simulation. *)

module Netlist := Vpga_netlist.Netlist
module Kind := Vpga_netlist.Kind

type v = Bot | C0 | C1 | Def | Und

val equal : v -> v -> bool
val join : v -> v -> v

val const : v -> bool option
(** [Some b] iff the value is the constant [b]. *)

val to_string : v -> string

val eval : Kind.t -> v array -> v
(** Ternary evaluation of a combinational kind: enumerate every two-valued
    completion of the unknown arguments (arity <= 5, so at most 32); if
    all completions agree the result is that constant — unknowns are
    {e masked} — otherwise the result is [Und] when any unknown argument
    is [Und], else [Def].  Any [Bot] argument yields [Bot].
    @raise Invalid_argument on [Input], [Output] or [Dff]. *)

val values : flop_init:v -> Netlist.t -> v array
(** Forward fixed point over the netlist.  Primary inputs are [Def],
    constants themselves, and a flop's value is [flop_init] joined with
    every value its D pin takes — [flop_init = C0] models the
    simulator's all-zero reset (constant propagation); [flop_init = Und]
    models uninitialized state (X-propagation).  Dangling fanins and
    arity-mismatched gates evaluate to [Und].  The worklist is seeded in
    id order and re-queues fanouts in {!Netlist.fanout} order, so the
    relaxation sequence is reproducible.
    @raise Failure when a fixed relaxation bound, proportional to the
    netlist size, is hit (the transfer is not monotone). *)
