(** The "FPU" benchmark: a simplified floating-point add/multiply datapath —
    barrel shifters, wide ripple adders, an array multiplier and a
    leading-zero normalizer.  The largest adder/mux-dominated design, like
    the paper's 24k-gate FPU.

    Format: [s | exp(e) | mant(m)], value = mant * 2^exp (no implicit bit,
    no bias, truncating arithmetic, exponents wrap mod 2^e — a simplified,
    bit-exactly specified semantics shared by {!build} and {!reference}).
    op = 0 is add, op = 1 multiply. *)

val build : ?exp_bits:int -> ?mant_bits:int -> unit -> Vpga_netlist.Netlist.t
(** Defaults: 8-bit exponent, 24-bit mantissa.  Inputs and result are
    registered (latency 2). *)

val reference :
  exp_bits:int -> mant_bits:int -> op:int ->
  a:int * int * int -> b:int * int * int -> int * int * int
(** Bit-exact software model over (sign, exp, mant) triples. *)
