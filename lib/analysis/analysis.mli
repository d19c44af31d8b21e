(** The pass manager over the netlist dataflow analyses.

    Runs {!Constprop}, {!Xprop}, {!Redund} and {!Fanout} (any subset, in
    that fixed order) and optionally the CEC-gated {!Simplify} rewrite,
    returning per-pass {!Pass.report}s.  Counters are named
    ["analysis.*"]; [vpga analyze] prints them per stage. *)

type t = {
  reports : Pass.report list;
  simplified :
    (Vpga_netlist.Netlist.t * Simplify.stats * Vpga_verify.Diag.t list) option;
      (** present when [~simplify:true]: the rewritten netlist (or the
          original on a refuted rewrite), the rewrite counts, and the
          certification diagnostics *)
}

val pass_names : string list
(** ["constprop"; "xprop"; "redundancy"; "fanout"] — valid [?passes]. *)

val run :
  ?passes:string list ->
  ?fanout_threshold:int ->
  ?simplify:bool ->
  Vpga_netlist.Netlist.t ->
  t
(** [run nl] executes the selected passes (default: all, no simplify). *)

val diags : t -> Vpga_verify.Diag.t list
(** All diagnostics across passes (and the simplifier, when run). *)

val counters : t -> (string * float) list

val pp : Format.formatter -> t -> unit
