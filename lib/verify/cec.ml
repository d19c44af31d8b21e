(* Formal combinational equivalence checking between two netlists.

   Sequential designs are handled by the standard flop-correspondence
   reduction: every flow stage preserves primary-input, primary-output and
   flop *order*, so flop k of the reference corresponds to flop k of the
   candidate.  Flop Q pins become shared pseudo-primary-inputs and flop D
   pins become pseudo-primary-outputs; proving the resulting combinational
   (transition + output) functions equal proves sequential equivalence from
   the common all-zero reset state.

   Both netlists are replayed into one shared structurally-hashed AIG, so
   any logic the flow left untouched strashes to the *same* literal and
   falls out of the miter (OR of XORs of corresponding outputs) for free.
   What remains is decided in the ABC order: the shared AIG is first
   reduced by simulation-guided SAT sweeping ({!Sweep}), which merges
   internally equivalent nodes one small proof at a time, and only then
   is the miter re-formed over the swept AIG, Tseitin-encoded and decided
   by the CDCL solver in {!Sat}.  On flow stages the swept miter usually
   strashes to constant false, whereas a monolithic solve of the unswept
   miter (the FPU's 8x8 multiplier) can defeat CDCL outright.
   UNSAT is a proof of equivalence, SAT yields a concrete distinguishing
   input vector. *)

module Netlist = Vpga_netlist.Netlist
module Aig = Vpga_aig.Aig

type counterexample = {
  root : int; (* index among POs, then flop D pins *)
  root_is_flop : bool;
  inputs : bool array; (* values over PIs, then flop Q pins *)
}

type verdict = Equivalent | Inequivalent of counterexample

(* Every sweeping merge is SAT-proven, so the substitution is exact and
   a verdict on the swept miter transfers to the original; the final
   solve is unbounded, so it always answers. *)
let check a b =
  let (npi, npo, nff) as ia = Netlist.interface a in
  if ia <> Netlist.interface b then
    invalid_arg "Cec.check: interface mismatch (PI/PO/flop counts differ)";
  let aig = Aig.create () in
  let in_lits = Array.init (npi + nff) (fun _ -> Aig.add_pi aig) in
  (* Root literals: POs first, then flop D pins. *)
  let roots nl = List.map snd (Aig.replay aig nl in_lits).Aig.roots in
  let roots_a = roots a in
  let roots_b = roots b in
  let miter g subst =
    List.fold_left2
      (fun acc la lb -> Aig.or_ g acc (Aig.xor_ g (subst la) (subst lb)))
      Aig.const0 roots_a roots_b
  in
  let counterexample inputs =
    (* Locate the first differing root under [inputs]: one simulation,
       read in lane 0. *)
    let values = Aig.simulate aig (Array.map Bool.to_int inputs) in
    let bit l = (values.(Aig.node_of l) land 1 = 1) <> Aig.is_complement l in
    let rec find k ra rb =
      match (ra, rb) with
      | la :: ra', lb :: rb' ->
          if bit la <> bit lb then k else find (k + 1) ra' rb'
      | _ -> invalid_arg "Cec.check: SAT model does not distinguish outputs"
    in
    let k = find 0 roots_a roots_b in
    Inequivalent
      { root = (if k < npo then k else k - npo); root_is_flop = k >= npo; inputs }
  in
  let all_zero () = counterexample (Array.make (npi + nff) false) in
  let m = miter aig Fun.id in
  if m = Aig.const0 then Equivalent
  else if m = Aig.const1 then all_zero ()
  else
    let swept, subst = Sweep.reduce aig in
    let m = miter swept subst in
    if m = Aig.const0 then Equivalent
    else if m = Aig.const1 then all_zero ()
    else
      let cnf = Cnf.of_cone (Cnf.scratch ()) swept m in
      match Sat.solve ~nvars:cnf.Cnf.nvars cnf.Cnf.clauses with
      | Sat.Unsat -> Equivalent
      | Sat.Unknown -> assert false (* only a budgeted solve gives up *)
      | Sat.Sat model ->
          (* [swept]'s PIs are [aig]'s, in order. *)
          counterexample (Cnf.pi_values cnf swept model)

(* The verdict as a gate's diagnostics: [] or one [cec-refuted]. *)
let prove reference candidate =
  match check reference candidate with
  | Equivalent -> []
  | Inequivalent { root; root_is_flop; _ } ->
      [
        Diag.error "cec-refuted"
          "SAT equivalence check refuted design %s (%s %d differs)"
          (Netlist.design_name reference)
          (if root_is_flop then "flop D pin" else "output")
          root;
      ]
