(** Power estimation for mapped netlists.

    The paper's cell-selection criterion is a "good power-delay tradeoff"
    and its LUT critique covers "delay, power and area"; this module
    supplies the power axis: switching activities from random simulation,
    dynamic power from switched capacitance ([0.5 a C Vdd^2 f], Vdd =
    1.8 V), and an area-proportional leakage term. *)

val activities : seed:int -> Vpga_netlist.Netlist.t -> float array
(** Per-node toggle rate (transitions per clock cycle) measured by driving
    256 uniform-random input vectors from reset. *)

type report = {
  dynamic_uw : float;  (** switched-capacitance power, uW *)
  leakage_uw : float;
  total_uw : float;
}

val estimate :
  ?period:float ->
  ?wire:(int -> float * float) ->
  activities:float array ->
  Vpga_netlist.Netlist.t ->
  report
(** [period] ps (default 500), [wire] as in {!Sta.run}.  Capacitances
    are the same sink-pin + wire loads STA uses, so power and timing see
    one consistent extraction. *)
