(* Tests for the verification layer: the CDCL SAT solver, the SAT sweeper,
   formal equivalence checking over the real flow stages, netlist lint, and
   the physical invariant checkers — each checker is also exercised against
   a deliberately seeded violation. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Equiv = Vpga_netlist.Equiv
module Simulate = Vpga_netlist.Simulate
module Levelize = Vpga_netlist.Levelize
module Bfun = Vpga_logic.Bfun
module Power = Vpga_timing.Power
module Aig = Vpga_aig.Aig
module Arch = Vpga_plb.Arch
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Buffering = Vpga_place.Buffering
module Quadrisect = Vpga_pack.Quadrisect
module Pathfinder = Vpga_route.Pathfinder
module Router = Vpga_route.Router
module Diag = Vpga_verify.Diag
module Lint = Vpga_verify.Lint
module Sat = Vpga_verify.Sat
module Cnf = Vpga_verify.Cnf
module Sweep = Vpga_verify.Sweep
module Cec = Vpga_verify.Cec
module Phys = Vpga_verify.Phys
module Flow = Vpga_flow.Flow

(* --- SAT solver --- *)

let lit v ~neg = (2 * v) lor if neg then 1 else 0

let test_sat_trivial () =
  (match Sat.solve ~nvars:1 [ [| lit 0 ~neg:false |] ] with
  | Sat.Sat m -> Alcotest.(check bool) "x true" true m.(0)
  | _ -> Alcotest.fail "expected sat");
  (match
     Sat.solve ~nvars:1 [ [| lit 0 ~neg:false |]; [| lit 0 ~neg:true |] ]
   with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat");
  (* Empty CNF is satisfiable; empty clause is not. *)
  (match Sat.solve ~nvars:0 [] with
  | Sat.Sat _ -> ()
  | _ -> Alcotest.fail "empty cnf should be sat");
  match Sat.solve ~nvars:1 [ [||] ] with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "empty clause should be unsat"

(* Pigeonhole PHP(holes+1, holes): unsatisfiable, and requires real
   conflict-driven search rather than pure propagation. *)
let pigeonhole holes =
  let pigeons = holes + 1 in
  let v p h = (p * holes) + h in
  let at_least_one =
    List.init pigeons (fun p ->
        Array.init holes (fun h -> lit (v p h) ~neg:false))
  in
  let no_sharing =
    List.concat_map
      (fun h ->
        List.concat
          (List.init pigeons (fun p ->
               List.filter_map
                 (fun p' ->
                   if p' > p then
                     Some [| lit (v p h) ~neg:true; lit (v p' h) ~neg:true |]
                   else None)
                 (List.init pigeons Fun.id))))
      (List.init holes Fun.id)
  in
  (pigeons * holes, at_least_one @ no_sharing)

let test_sat_pigeonhole () =
  let nvars, clauses = pigeonhole 3 in
  (match Sat.solve ~nvars clauses with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "PHP(4,3) must be unsat");
  (* With a tiny conflict budget the same instance answers Unknown. *)
  let nvars, clauses = pigeonhole 5 in
  match Sat.solve ~max_conflicts:3 ~nvars clauses with
  | Sat.Unknown -> ()
  | Sat.Unsat -> Alcotest.fail "3 conflicts cannot refute PHP(6,5)"
  | Sat.Sat _ -> Alcotest.fail "PHP(6,5) is unsat"

(* Random 3-CNFs against brute force. *)
let test_sat_random () =
  let rng = Random.State.make [| 42 |] in
  let nvars = 8 in
  for _ = 1 to 50 do
    let n_clauses = 5 + Random.State.int rng 30 in
    let clauses =
      List.init n_clauses (fun _ ->
          Array.init 3 (fun _ ->
              lit (Random.State.int rng nvars)
                ~neg:(Random.State.bool rng)))
    in
    let brute_sat =
      let rec go m =
        if m >= 1 lsl nvars then false
        else
          let asg = Array.init nvars (fun v -> (m lsr v) land 1 = 1) in
          Sat.satisfies asg clauses || go (m + 1)
      in
      go 0
    in
    match Sat.solve ~nvars clauses with
    | Sat.Sat model ->
        Alcotest.(check bool) "brute force agrees sat" true brute_sat;
        Alcotest.(check bool) "model satisfies" true
          (Sat.satisfies model clauses)
    | Sat.Unsat -> Alcotest.(check bool) "brute force agrees unsat" false brute_sat
    | Sat.Unknown -> Alcotest.fail "no budget was given"
  done

(* --- Tseitin encoding --- *)

let test_cnf_cone () =
  let aig = Aig.create () in
  let a = Aig.add_pi aig and b = Aig.add_pi aig in
  let c = Aig.and_ aig a b in
  (* c is satisfiable (a=b=1)... *)
  let cnf = Cnf.of_cone aig c in
  (match Sat.solve ~nvars:cnf.Cnf.nvars cnf.Cnf.clauses with
  | Sat.Sat m ->
      Alcotest.(check bool) "a" true m.(Aig.node_of a);
      Alcotest.(check bool) "b" true m.(Aig.node_of b)
  | _ -> Alcotest.fail "AND cone should be satisfiable");
  (* ...but a AND (not a) is not. *)
  let contradiction = Aig.and_ aig a (Aig.not_ a) in
  Alcotest.(check int) "strash folds to const0" Aig.const0 contradiction;
  (* Inequality of a literal with itself is unsat. *)
  let cnf = Cnf.of_inequiv aig c c in
  match Sat.solve ~nvars:cnf.Cnf.nvars cnf.Cnf.clauses with
  | Sat.Unsat -> ()
  | _ -> Alcotest.fail "x <> x should be unsat"

(* --- SAT sweeping --- *)

let test_sweep_merges () =
  (* (a AND b) AND c and a AND (b AND c): structurally different nodes,
     same function.  The sweep must map both roots to one literal. *)
  let aig = Aig.create () in
  let a = Aig.add_pi aig and b = Aig.add_pi aig and c = Aig.add_pi aig in
  let left = Aig.and_ aig (Aig.and_ aig a b) c in
  let right = Aig.and_ aig a (Aig.and_ aig b c) in
  Alcotest.(check bool) "strash alone keeps them apart" true (left <> right);
  let _swept, subst = Sweep.reduce aig in
  Alcotest.(check int) "sweep merges them" (subst left) (subst right);
  (* Complement-equivalent roots merge up to negation. *)
  let nleft = Aig.not_ left in
  Alcotest.(check int) "phase handled" (subst nleft) (subst right lxor 1)

let test_sweep_constant () =
  (* xor(a, a) is constant false but not strash-trivial when built from
     distinct structure. *)
  let aig = Aig.create () in
  let a = Aig.add_pi aig and b = Aig.add_pi aig in
  let ab = Aig.and_ aig a b in
  let ba = Aig.and_ aig b a in
  Alcotest.(check int) "commutative strash" ab ba;
  let x = Aig.and_ aig ab (Aig.not_ (Aig.and_ aig a b)) in
  Alcotest.(check int) "strash already folds" Aig.const0 x;
  (* A genuinely structural constant: (a AND b) AND (not a). *)
  let y = Aig.and_ aig ab (Aig.not_ a) in
  Alcotest.(check bool) "not folded by strash" true (y <> Aig.const0);
  let _swept, subst = Sweep.reduce aig in
  Alcotest.(check int) "sweep proves constant" Aig.const0 (subst y)

(* --- combinational equivalence checking --- *)

let mk_gate2 kind =
  let nl = Netlist.create ~name:"g2" () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  ignore (Netlist.output nl "y" (Netlist.gate nl kind [| a; b |]));
  nl

let test_cec_refutes_comb () =
  let x = mk_gate2 Kind.And2 and o = mk_gate2 Kind.Or2 in
  match Cec.check x o with
  | Cec.Equivalent -> Alcotest.fail "And2 vs Or2 cannot be equivalent"
  | Cec.Inequivalent { root; root_is_flop; inputs } ->
      Alcotest.(check bool) "combinational root" false root_is_flop;
      Alcotest.(check int) "single output" 0 root;
      (* The counterexample must actually distinguish the designs. *)
      let eval nl =
        (Simulate.eval_comb (Simulate.create nl) inputs).(root)
      in
      Alcotest.(check bool) "inputs distinguish" true (eval x <> eval o)

let counter3 ~bug () =
  let nl = Netlist.create ~name:"cnt3" () in
  let en = Netlist.input nl "en" in
  let q0 = Netlist.dff ~name:"q0" nl in
  let q1 = Netlist.dff ~name:"q1" nl in
  let d0 = Netlist.gate nl Kind.Xor2 [| q0; en |] in
  let c0 = Netlist.gate nl (if bug then Kind.Or2 else Kind.And2) [| q0; en |] in
  let d1 = Netlist.gate nl Kind.Xor2 [| q1; c0 |] in
  Netlist.connect nl ~flop:q0 ~d:d0;
  Netlist.connect nl ~flop:q1 ~d:d1;
  ignore (Netlist.output nl "b0" q0);
  ignore (Netlist.output nl "b1" q1);
  nl

let test_cec_refutes_seq () =
  (* The carry-chain bug only shows in the *next-state* function: the flop
     correspondence reduction must find it on a flop D pin. *)
  (match Cec.check (counter3 ~bug:false ()) (counter3 ~bug:true ()) with
  | Cec.Equivalent -> Alcotest.fail "carry bug not caught"
  | Cec.Inequivalent { root_is_flop; _ } ->
      Alcotest.(check bool) "found on a flop D pin" true root_is_flop);
  (* Sanity: the good counter is equivalent to itself. *)
  match Cec.check (counter3 ~bug:false ()) (counter3 ~bug:false ()) with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.fail "self-equivalence"

let test_cec_interface_mismatch () =
  let two = mk_gate2 Kind.And2 in
  let one =
    let nl = Netlist.create () in
    let a = Netlist.input nl "a" in
    ignore (Netlist.output nl "y" (Netlist.gate nl Kind.Inv [| a |]));
    nl
  in
  match Cec.check two one with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interface mismatch must be rejected"

(* The acceptance criterion: SAT-based CEC proves techmap, compaction and
   buffering sound on every benchmark design, for both architectures. *)
let test_cec_proves_flow_stages () =
  List.iter
    (fun (_, nl) ->
      List.iter
        (fun arch ->
          Cec.prove ~stage:"techmap" nl (Techmap.map arch nl);
          let compacted = Compact.run arch nl in
          Cec.prove ~stage:"compact" nl compacted;
          Cec.prove ~stage:"buffer" nl
            (Buffering.insert ~max_fanout:8 compacted))
        [ Arch.lut_plb; Arch.granular_plb ])
    (Vpga_flow.Experiments.designs Vpga_flow.Experiments.Test)

(* --- exhaustive-equivalence edge cases --- *)

let test_exhaustive_edge_cases () =
  (* Zero-input designs: a single constant output each. *)
  let const_nl b =
    let nl = Netlist.create () in
    ignore (Netlist.output nl "y" (Netlist.gate nl (Kind.Const b) [||]));
    nl
  in
  (match Equiv.check_exhaustive (const_nl true) (const_nl true) with
  | Equiv.Equivalent -> ()
  | Equiv.Mismatch _ -> Alcotest.fail "const1 = const1");
  (match Equiv.check_exhaustive (const_nl true) (const_nl false) with
  | Equiv.Mismatch { cycle = 0; output = 0; _ } -> ()
  | _ -> Alcotest.fail "const1 <> const0 must mismatch at output 0");
  (* 17 inputs exceed the exhaustive limit. *)
  let wide =
    let nl = Netlist.create () in
    let pis = List.init 17 (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)) in
    let acc =
      List.fold_left
        (fun acc pi -> Netlist.gate nl Kind.And2 [| acc; pi |])
        (List.hd pis) (List.tl pis)
    in
    ignore (Netlist.output nl "y" acc);
    nl
  in
  (match Equiv.check_exhaustive wide wide with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "17 inputs must be rejected");
  (* Interface mismatch. *)
  match Equiv.check_exhaustive (const_nl true) (mk_gate2 Kind.And2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interface mismatch must be rejected"

(* --- the word simulator against a scalar reference --- *)

(* The one-vector-at-a-time simulator the word kernel replaced: [Kind.eval]
   per node in [Levelize] order, and the gates built on it.  The kernel's
   gates must return the same verdict records, field for field. *)
module Scalar = struct
  type t = { nl : Netlist.t; order : int array; values : bool array;
             state : bool array }

  let create nl =
    let n = Netlist.size nl in
    { nl; order = (Levelize.run nl).Levelize.order;
      values = Array.make n false; state = Array.make n false }

  let reset sim = Array.fill sim.state 0 (Array.length sim.state) false

  let eval_comb sim pi =
    List.iteri (fun k i -> sim.values.(i) <- pi.(k)) (Netlist.inputs sim.nl);
    Array.iter
      (fun i ->
        let node = Netlist.node sim.nl i in
        match node.Netlist.kind with
        | Kind.Input -> ()
        | Kind.Dff -> sim.values.(i) <- sim.state.(i)
        | k ->
            sim.values.(i) <-
              Kind.eval k (Array.map (fun f -> sim.values.(f)) node.Netlist.fanins))
      sim.order;
    Array.of_list (List.map (fun o -> sim.values.(o)) (Netlist.outputs sim.nl))

  let step sim pi =
    let po = eval_comb sim pi in
    List.iter
      (fun i -> sim.state.(i) <- sim.values.((Netlist.node sim.nl i).Netlist.fanins.(0)))
      (Netlist.flops sim.nl);
    po

  let first_diff poa pob =
    let rec go k =
      if k >= Array.length poa then None
      else if poa.(k) <> pob.(k) then Some k
      else go (k + 1)
    in
    go 0

  let check ~vectors ~sequence_length ~seed a b =
    let rng = Random.State.make [| seed |] in
    let npi = List.length (Netlist.inputs a) in
    let sima = create a and simb = create b in
    let rec attempt v =
      if v >= vectors then Equiv.Equivalent
      else
        let seq =
          List.init sequence_length (fun _ ->
              Array.init npi (fun _ -> Random.State.bool rng))
        in
        reset sima;
        reset simb;
        let rec go cycle history = function
          | [] -> attempt (v + 1)
          | pi :: rest -> (
              let history = pi :: history in
              match first_diff (step sima pi) (step simb pi) with
              | Some output ->
                  Equiv.Mismatch { cycle; output; vectors = List.rev history }
              | None -> go (cycle + 1) history rest)
        in
        go 0 [] seq
    in
    attempt 0

  let check_exhaustive a b =
    let npi = List.length (Netlist.inputs a) in
    let sima = create a and simb = create b in
    let rec go m =
      if m >= 1 lsl npi then Equiv.Equivalent
      else
        let pi = Array.init npi (fun i -> (m lsr i) land 1 = 1) in
        match first_diff (eval_comb sima pi) (eval_comb simb pi) with
        | Some output -> Equiv.Mismatch { cycle = 0; output; vectors = [ pi ] }
        | None -> go (m + 1)
    in
    go 0

  let activities ~cycles ~seed nl =
    let n = Netlist.size nl in
    let rng = Random.State.make [| seed |] in
    let sim = create nl in
    let npi = List.length (Netlist.inputs nl) in
    let toggles = Array.make n 0 and prev = Array.make n false in
    for cycle = 1 to cycles do
      ignore (step sim (Array.init npi (fun _ -> Random.State.bool rng)));
      for id = 0 to n - 1 do
        let v = sim.values.(id) in
        if cycle > 1 && v <> prev.(id) then toggles.(id) <- toggles.(id) + 1;
        prev.(id) <- v
      done
    done;
    Array.map
      (fun t -> float_of_int t /. float_of_int (max 1 (cycles - 1)))
      toggles
end

let pp_verdict = function
  | Equiv.Equivalent -> "equivalent"
  | Equiv.Mismatch { cycle; output; vectors } ->
      Printf.sprintf "mismatch cycle %d output %d after %s" cycle output
        (String.concat "|"
           (List.map
              (fun v ->
                String.concat ""
                  (Array.to_list (Array.map (fun b -> if b then "1" else "0") v)))
              vectors))

let verdict = Alcotest.testable (Fmt.of_to_string pp_verdict) ( = )

(* A random sequential netlist: generic gates, constants, [Mapped] cells
   of arity 1-5 and flops with feedback.  [mutate j] flips one minterm of
   gate [j mod ngates]'s function (same fanins), a fault that a wide cell
   shows on few stimuli; every other draw is unchanged. *)
let random_seq_netlist ?mutate seed =
  let rng = Random.State.make [| seed |] in
  let nl = Netlist.create ~name:"rand" () in
  let npi = 1 + Random.State.int rng 7 in
  let pool =
    ref (List.init npi (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)))
  in
  let flops = List.init (Random.State.int rng 4) (fun _ -> Netlist.dff nl) in
  pool := !pool @ flops;
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let random_fn rng arity =
    Bfun.make ~arity
      ((Random.State.bits rng lsl 30) lor Random.State.bits rng)
  in
  let fixed =
    Kind.[| Buf; Inv; And2; Or2; Nand2; Nor2; Xor2; Xnor2; Mux2; And3; Or3;
            Nand3; Nor3; Xor3; Maj3; Const false; Const true |]
  in
  let ngates = 5 + Random.State.int rng 30 in
  for j = 0 to ngates - 1 do
    let kind =
      if Random.State.int rng 3 = 0 then
        let arity = 1 + Random.State.int rng 5 in
        Kind.Mapped { cell = "cell"; fn = random_fn rng arity }
      else fixed.(Random.State.int rng (Array.length fixed))
    in
    let fanins = Array.init (Kind.arity kind) (fun _ -> pick ()) in
    let kind =
      if Option.map (fun m -> m mod ngates) mutate <> Some j then kind
      else
        let arity = Kind.arity kind in
        let rng = Random.State.make [| seed; j |] in
        let flip = 1 lsl Random.State.int rng (1 lsl arity) in
        let fn = Bfun.make ~arity (Bfun.table (Kind.fn kind) lxor flip) in
        Kind.Mapped { cell = "cell"; fn }
    in
    pool := Netlist.gate nl kind fanins :: !pool
  done;
  List.iter (fun q -> Netlist.connect nl ~flop:q ~d:(pick ())) flops;
  for o = 0 to Random.State.int rng 4 do
    ignore (Netlist.output nl (Printf.sprintf "o%d" o) (pick ()))
  done;
  nl

(* Vector counts around the batch width [Simulate.lanes] (62): one lane,
   the flow gate's 24, a full batch and one and two lanes past it, and
   three batches. *)
let prop_check_matches_scalar =
  QCheck.Test.make ~name:"Equiv.check = scalar reference" ~count:60
    QCheck.(pair small_nat (int_bound 40))
    (fun (seed, j) ->
      let a = random_seq_netlist seed in
      let b = random_seq_netlist ~mutate:j seed in
      List.for_all
        (fun (vectors, sequence_length) ->
          List.for_all
            (fun (x, y) ->
              Equiv.check ~vectors ~sequence_length ~seed x y
              = Scalar.check ~vectors ~sequence_length ~seed x y)
            [ (a, b); (b, a) ])
        (List.concat_map
           (fun v -> List.map (fun l -> (v, l)) [ 1; 3; 8 ])
           [ 1; 24; 62; 63; 64; 130 ])
      && Equiv.check_exhaustive a b = Scalar.check_exhaustive a b)

(* Every Test design through the front end on both PLBs, built once and
   shared: the source netlist and its techmap, compact and buffer
   outputs. *)
type front_end = {
  tag : string;
  source : Netlist.t;
  techmap : Netlist.t;
  compact : Netlist.t;
  buffer : Netlist.t;
}

let front_ends =
  lazy
    (List.concat_map
       (fun (name, nl) ->
         List.map
           (fun arch ->
             let compact = Compact.run arch nl in
             {
               tag = Printf.sprintf "%s/%s" name arch.Arch.name;
               source = nl;
               techmap = Techmap.map arch nl;
               compact;
               buffer = Buffering.insert ~max_fanout:8 compact;
             })
           [ Arch.lut_plb; Arch.granular_plb ])
       (Vpga_flow.Experiments.designs Vpga_flow.Experiments.Test))

(* Single-fault mutants of a stage netlist: an inverter after, or a
   constant in place of, a combinational node picked by [rng]. *)
let mutants rng nl =
  let comb =
    List.filter
      (fun i ->
        match (Netlist.node nl i).Netlist.kind with
        | Kind.Input | Kind.Output | Kind.Dff -> false
        | _ -> true)
      (List.init (Netlist.size nl) Fun.id)
  in
  let target () = List.nth comb (Random.State.int rng (List.length comb)) in
  let mutant fault =
    let t = target () in
    Netlist.map_combinational nl (fun dst node fi ->
        if node.Netlist.id <> t then Netlist.gate dst node.Netlist.kind fi
        else
          match fault with
          | `Inv ->
              Netlist.gate dst Kind.Inv
                [| Netlist.gate dst node.Netlist.kind fi |]
          | `Stuck b -> Netlist.gate dst (Kind.Const b) [||])
  in
  List.map mutant [ `Inv; `Inv; `Inv; `Stuck false; `Stuck true ]

(* The flow's Fast gate (24 sequences of 6 cycles, seed 2024) on every
   Test-scale stage output and five mutants of each. *)
let test_gate_matches_scalar_on_mutants () =
  let rng = Random.State.make [| 13 |] in
  let mismatches = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun (stage, candidate) ->
          List.iteri
            (fun m cand ->
              let expect =
                Scalar.check ~vectors:24 ~sequence_length:6 ~seed:2024 f.source
                  cand
              in
              if expect <> Equiv.Equivalent then incr mismatches;
              Alcotest.check verdict
                (Printf.sprintf "%s/%s mutant %d" f.tag stage m)
                expect
                (Equiv.check ~vectors:24 ~sequence_length:6 ~seed:2024 f.source
                   cand))
            (candidate :: mutants rng candidate))
        [ ("techmap", f.techmap); ("compact", f.compact); ("buffer", f.buffer) ])
    (Lazy.force front_ends);
  Alcotest.(check bool) "mutants caught" true (!mismatches > 0)

let test_activities_match_scalar () =
  List.iter
    (fun f ->
      Alcotest.(check (array (float 0.0))) f.tag
        (Scalar.activities ~cycles:256 ~seed:8 f.buffer)
        (Power.activities ~seed:8 f.buffer))
    (Lazy.force front_ends)

(* --- lint, against seeded violations --- *)

let test_lint_clean () =
  List.iter
    (fun (_, nl) ->
      Alcotest.(check bool)
        "benchmarks have no lint errors" false
        (Diag.has_errors (Lint.run nl)))
    (Vpga_flow.Experiments.designs Vpga_flow.Experiments.Test)

let test_lint_comb_loop () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let g1 = Netlist.gate nl Kind.And2 [| a; b |] in
  let g2 = Netlist.gate nl Kind.Or2 [| g1; a |] in
  ignore (Netlist.output nl "y" g2);
  Alcotest.(check bool) "clean before seeding" false
    (Diag.has_errors (Lint.run nl));
  (* Seed the loop: g1's first fanin now reads g2 downstream. *)
  (Netlist.node nl g1).Netlist.fanins.(0) <- g2;
  let ds = Lint.run nl in
  Alcotest.(check bool) "loop found" true (Diag.has_code "comb-loop" ds);
  let loop = List.hd (Diag.by_code "comb-loop" ds) in
  Alcotest.(check (list int))
    "loop provenance" [ g1; g2 ]
    (List.sort compare loop.Diag.nodes);
  (* A flop in the cycle makes it sequential, not combinational. *)
  let seq = counter3 ~bug:false () in
  Alcotest.(check bool) "flop feedback is fine" false
    (Diag.has_code "comb-loop" (Lint.run seq))

let test_lint_undriven_flop () =
  let nl = Netlist.create () in
  let q = Netlist.dff nl in
  ignore (Netlist.output nl "y" q);
  let ds = Lint.run nl in
  Alcotest.(check bool) "undriven pin" true (Diag.has_code "undriven-pin" ds);
  Alcotest.(check bool) "is an error" true (Diag.has_errors ds)

let test_lint_dup_names () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "a" in
  ignore (Netlist.output nl "y" (Netlist.gate nl Kind.And2 [| a; b |]));
  Alcotest.(check bool) "duplicate input name" true
    (Diag.has_code "dup-name" (Lint.run nl))

let test_lint_dead_logic () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let live = Netlist.gate nl Kind.And2 [| a; b |] in
  let dead = Netlist.gate nl Kind.Or2 [| a; b |] in
  ignore (Netlist.output nl "y" live);
  let ds = Lint.run nl in
  Alcotest.(check bool) "dead gate flagged" true (Diag.has_code "dead-logic" ds);
  let d = List.hd (Diag.by_code "dead-logic" ds) in
  Alcotest.(check (list int)) "dead provenance" [ dead ] d.Diag.nodes;
  (* Dead logic is a warning, not an error. *)
  Alcotest.(check bool) "not an error" false (Diag.has_errors ds);
  (* No primary outputs at all is an error. *)
  let empty = Netlist.create () in
  ignore (Netlist.input empty "a");
  Alcotest.(check bool) "no outputs" true
    (Diag.has_code "no-outputs" (Lint.run empty))

(* --- physical checkers, against seeded violations --- *)

(* One packed ALU, shared by the physical tests. *)
let packed =
  lazy
    (let nl = Vpga_designs.Alu.build ~width:4 () in
     let arch = Arch.granular_plb in
     let buffered = Buffering.insert ~max_fanout:8 (Compact.run arch nl) in
     let pl = Placement.create buffered in
     Global.place ~seed:3 pl;
     let q = Quadrisect.legalize arch pl in
     let pl = Quadrisect.snap q pl in
     (buffered, pl, q))

let test_phys_placement () =
  let _, pl, _ = Lazy.force packed in
  Alcotest.(check bool) "legal placement" false
    (Diag.has_errors (Phys.check_placement pl));
  let x0 = pl.Placement.x.(0) in
  pl.Placement.x.(0) <- pl.Placement.die_w +. 1000.0;
  let ds = Phys.check_placement pl in
  pl.Placement.x.(0) <- x0;
  Alcotest.(check bool) "outside die caught" true
    (Diag.has_code "outside-die" ds);
  pl.Placement.x.(0) <- Float.nan;
  let ds = Phys.check_placement pl in
  pl.Placement.x.(0) <- x0;
  Alcotest.(check bool) "non-finite caught" true (Diag.has_code "unplaced" ds)

let test_phys_packing () =
  let buffered, _, q = Lazy.force packed in
  Alcotest.(check bool) "legal packing" false
    (Diag.has_errors (Phys.check_packing q buffered));
  (* Seed a coverage hole: un-assign one packed node. *)
  let victim =
    let found = ref (-1) in
    Array.iteri
      (fun id t -> if !found < 0 && t >= 0 then found := id)
      q.Quadrisect.tile_of_node;
    !found
  in
  let saved = q.Quadrisect.tile_of_node.(victim) in
  q.Quadrisect.tile_of_node.(victim) <- -1;
  let ds = Phys.check_packing q buffered in
  Alcotest.(check bool) "uncovered caught" true (Diag.has_code "uncovered" ds);
  (* Seed an overflow: cram every packed node into one tile. *)
  let all = Array.copy q.Quadrisect.tile_of_node in
  Array.iteri
    (fun id t -> if t >= 0 then q.Quadrisect.tile_of_node.(id) <- saved)
    all;
  let ds = Phys.check_packing q buffered in
  Array.blit all 0 q.Quadrisect.tile_of_node 0 (Array.length all);
  q.Quadrisect.tile_of_node.(victim) <- saved;
  Alcotest.(check bool) "tile overflow caught" true
    (Diag.has_code "tile-overflow" ds)

let test_phys_routing () =
  let _, pl, _ = Lazy.force packed in
  let routed = Pathfinder.route_placement pl in
  Alcotest.(check bool) "routes are connected trees" false
    (Diag.has_errors (Phys.check_routing routed pl));
  (* Seed a break: drop one edge from the longest route. *)
  let grid = routed.Pathfinder.grid in
  let longest =
    List.fold_left
      (fun acc r ->
        if List.length r.Router.edges > List.length acc.Router.edges then r
        else acc)
      (List.hd routed.Pathfinder.routes)
      routed.Pathfinder.routes
  in
  Alcotest.(check bool) "has a multi-edge route" true
    (List.length longest.Router.edges >= 2);
  let pins =
    Array.to_list longest.Router.net
    |> List.map (fun id ->
           Vpga_route.Grid.bin_of grid ~x:pl.Placement.x.(id)
             ~y:pl.Placement.y.(id))
    |> List.sort_uniq compare
  in
  let broken = List.tl longest.Router.edges in
  let ds = Phys.check_route grid ~net_index:0 ~pins ~edges:broken in
  Alcotest.(check bool) "broken route caught" true
    (Diag.has_code "route-disconnected" ds || Diag.has_code "route-forest" ds);
  (* And an out-of-range edge id. *)
  let ds =
    Phys.check_route grid ~net_index:0 ~pins
      ~edges:(Vpga_route.Grid.num_edges grid :: longest.Router.edges)
  in
  Alcotest.(check bool) "bad edge caught" true (Diag.has_code "bad-edge" ds)

(* --- the flow under Formal verification --- *)

let test_flow_formal () =
  let nl = Vpga_designs.Alu.build ~width:4 () in
  let pair =
    Flow.run ~seed:5 ~anneal_iterations:2_000 ~verify:Flow.Formal
      Arch.granular_plb nl
  in
  Alcotest.(check bool) "formal flow completes" true (pair.Flow.a.Flow.die_area > 0.0)

let () =
  Alcotest.run "vpga_verify"
    [
      ( "sat",
        [
          Alcotest.test_case "trivial" `Quick test_sat_trivial;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "random vs brute force" `Quick test_sat_random;
          Alcotest.test_case "tseitin cones" `Quick test_cnf_cone;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "merges equivalences" `Quick test_sweep_merges;
          Alcotest.test_case "proves constants" `Quick test_sweep_constant;
        ] );
      ( "cec",
        [
          Alcotest.test_case "refutes comb bug" `Quick test_cec_refutes_comb;
          Alcotest.test_case "refutes seq bug" `Quick test_cec_refutes_seq;
          Alcotest.test_case "interface mismatch" `Quick
            test_cec_interface_mismatch;
          Alcotest.test_case "proves flow stages" `Slow
            test_cec_proves_flow_stages;
          Alcotest.test_case "exhaustive edge cases" `Quick
            test_exhaustive_edge_cases;
        ] );
      ( "simulate",
        [
          QCheck_alcotest.to_alcotest prop_check_matches_scalar;
          Alcotest.test_case "gate mutants vs scalar" `Quick
            test_gate_matches_scalar_on_mutants;
          Alcotest.test_case "activities vs scalar" `Quick
            test_activities_match_scalar;
        ] );
      ( "lint",
        [
          Alcotest.test_case "benchmarks clean" `Quick test_lint_clean;
          Alcotest.test_case "comb loop" `Quick test_lint_comb_loop;
          Alcotest.test_case "undriven flop" `Quick test_lint_undriven_flop;
          Alcotest.test_case "duplicate names" `Quick test_lint_dup_names;
          Alcotest.test_case "dead logic" `Quick test_lint_dead_logic;
        ] );
      ( "phys",
        [
          Alcotest.test_case "placement" `Quick test_phys_placement;
          Alcotest.test_case "packing" `Quick test_phys_packing;
          Alcotest.test_case "routing" `Quick test_phys_routing;
        ] );
      ( "flow",
        [ Alcotest.test_case "formal level" `Slow test_flow_formal ] );
    ]
