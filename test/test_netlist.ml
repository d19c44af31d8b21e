(* Tests for the netlist IR: builder, levelization, simulation, equivalence
   checking and statistics. *)

open Vpga_netlist
module Bfun = Vpga_logic.Bfun

(* A 1-bit full adder over generic gates. *)
let full_adder () =
  let nl = Netlist.create ~name:"fa" () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let cin = Netlist.input nl "cin" in
  let sum = Netlist.gate nl Kind.Xor3 [| a; b; cin |] in
  let cout = Netlist.gate nl Kind.Maj3 [| a; b; cin |] in
  ignore (Netlist.output nl "sum" sum);
  ignore (Netlist.output nl "cout" cout);
  nl

(* A 3-bit counter: tests flops and feedback. *)
let counter3 () =
  let nl = Netlist.create ~name:"cnt3" () in
  let en = Netlist.input nl "en" in
  let q0 = Netlist.dff ~name:"q0" nl in
  let q1 = Netlist.dff ~name:"q1" nl in
  let q2 = Netlist.dff ~name:"q2" nl in
  let d0 = Netlist.gate nl Kind.Xor2 [| q0; en |] in
  let c0 = Netlist.gate nl Kind.And2 [| q0; en |] in
  let d1 = Netlist.gate nl Kind.Xor2 [| q1; c0 |] in
  let c1 = Netlist.gate nl Kind.And2 [| q1; c0 |] in
  let d2 = Netlist.gate nl Kind.Xor2 [| q2; c1 |] in
  Netlist.connect nl ~flop:q0 ~d:d0;
  Netlist.connect nl ~flop:q1 ~d:d1;
  Netlist.connect nl ~flop:q2 ~d:d2;
  ignore (Netlist.output nl "b0" q0);
  ignore (Netlist.output nl "b1" q1);
  ignore (Netlist.output nl "b2" q2);
  nl

let test_builder () =
  let nl = full_adder () in
  Alcotest.(check int) "inputs" 3 (List.length (Netlist.inputs nl));
  Alcotest.(check int) "outputs" 2 (List.length (Netlist.outputs nl));
  Alcotest.(check int) "no flops" 0 (List.length (Netlist.flops nl));
  (match Netlist.validate nl with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Netlist.gate: xor2 expects 2 fanins, got 3")
    (fun () -> ignore (Netlist.gate nl Kind.Xor2 [| 0; 1; 2 |]))

let test_validate_unconnected_flop () =
  let nl = Netlist.create () in
  let _q = Netlist.dff nl in
  (match Netlist.validate nl with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error _ -> ())

let test_fanout () =
  let nl = full_adder () in
  let fo = Netlist.fanout nl in
  (* input a (id 0) feeds both xor3 and maj3 *)
  Alcotest.(check int) "a fans out to 2" 2 (Array.length fo.(0))

let test_levelize () =
  let nl = full_adder () in
  let lv = Levelize.run nl in
  Alcotest.(check int) "depth (gates then outputs)" 2 lv.Levelize.depth;
  Alcotest.(check bool) "acyclic" true (Levelize.is_acyclic nl);
  let cnt = counter3 () in
  Alcotest.(check bool) "counter acyclic (flop breaks loop)" true
    (Levelize.is_acyclic cnt)

let test_comb_cycle_detected () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  (* A combinational cycle is not expressible with the forward-only builder
     (only flop D pins may point forward), so assert the builder rejects a
     forward combinational fanin. *)
  Alcotest.check_raises "forward-only builder"
    (Invalid_argument "Netlist.gate: fanin id out of range")
    (fun () -> ignore (Netlist.gate nl Kind.And2 [| a; 99 |]))

let test_simulate_full_adder () =
  let nl = full_adder () in
  let sim = Simulate.create nl in
  for m = 0 to 7 do
    let a = m land 1 and b = (m lsr 1) land 1 and c = (m lsr 2) land 1 in
    let po = Simulate.eval_comb sim [| a = 1; b = 1; c = 1 |] in
    let total = a + b + c in
    Alcotest.(check bool) (Printf.sprintf "sum@%d" m) (total land 1 = 1) po.(0);
    Alcotest.(check bool) (Printf.sprintf "cout@%d" m) (total >= 2) po.(1)
  done

let test_simulate_counter () =
  let nl = counter3 () in
  let sim = Simulate.create nl in
  Simulate.reset sim;
  (* count 10 enabled cycles: outputs are the pre-update state *)
  let seen = ref [] in
  for _ = 1 to 10 do
    let po = Simulate.step sim [| true |] in
    let v =
      (if po.(0) then 1 else 0) + (if po.(1) then 2 else 0)
      + if po.(2) then 4 else 0
    in
    seen := v :: !seen
  done;
  Alcotest.(check (list int)) "counts 0..9 mod 8"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 0; 1 ]
    (List.rev !seen);
  (* disabled: holds value *)
  let po = Simulate.step sim [| false |] in
  let po' = Simulate.step sim [| false |] in
  Alcotest.(check (pair bool bool)) "hold" (po.(0), po.(1)) (po'.(0), po'.(1))

let test_map_combinational () =
  let nl = counter3 () in
  (* identity mapping must preserve behaviour *)
  let nl' =
    Netlist.map_combinational nl (fun dst n fi -> Netlist.gate dst n.Netlist.kind fi)
  in
  match Equiv.check ~seed:42 nl nl' with
  | Equiv.Equivalent -> ()
  | Equiv.Mismatch _ -> Alcotest.fail "identity map not equivalent"

let test_equiv_detects_mutation () =
  let good = full_adder () in
  let bad = Netlist.create ~name:"fa_bad" () in
  let a = Netlist.input bad "a" in
  let b = Netlist.input bad "b" in
  let cin = Netlist.input bad "cin" in
  let sum = Netlist.gate bad Kind.Xor3 [| a; b; cin |] in
  let cout = Netlist.gate bad Kind.And3 [| a; b; cin |] in
  (* wrong carry *)
  ignore (Netlist.output bad "sum" sum);
  ignore (Netlist.output bad "cout" cout);
  (match Equiv.check ~seed:7 good bad with
  | Equiv.Equivalent -> Alcotest.fail "mutation not caught"
  | Equiv.Mismatch { output; _ } ->
      Alcotest.(check int) "carry output differs" 1 output);
  match Equiv.check_exhaustive good bad with
  | Equiv.Equivalent -> Alcotest.fail "mutation not caught exhaustively"
  | Equiv.Mismatch _ -> ()

let test_equiv_interface_mismatch () =
  let a = full_adder () and b = counter3 () in
  Alcotest.check_raises "interface"
    (Invalid_argument "Equiv.check: interface mismatch")
    (fun () -> ignore (Equiv.check ~seed:1 a b))

let test_stats () =
  let nl = full_adder () in
  Alcotest.(check (float 1e-9)) "gate count" 8.0 (Stats.gate_count nl);
  Alcotest.(check int) "comb count" 2 (Stats.combinational_count nl);
  let cnt = counter3 () in
  Alcotest.(check int) "flops" 3 (Stats.flop_count cnt);
  Alcotest.(check bool) "flop ratio in (0,1)" true
    (Stats.flop_ratio cnt > 0.0 && Stats.flop_ratio cnt < 1.0);
  let hist = Stats.histogram nl in
  Alcotest.(check int) "xor3 count" 1 (List.assoc "xor3" hist)

(* [Kind.fn] returns written-out tables for the fixed kinds; each must be
   the combinator expression it stands for. *)
let test_kind_tables () =
  let v1 = Bfun.var ~arity:1 in
  let v2 = Bfun.var ~arity:2 and v3 = Bfun.var ~arity:3 in
  let open Bfun in
  List.iter
    (fun (k, expect) ->
      Alcotest.(check string) (Kind.name k) (to_string expect)
        (to_string (Kind.fn k));
      Alcotest.(check bool) (Kind.name k ^ " arity") true
        (equal expect (Kind.fn k)))
    [
      (Kind.Const false, const ~arity:0 false);
      (Kind.Const true, const ~arity:0 true);
      (Kind.Buf, v1 0);
      (Kind.Inv, lnot (v1 0));
      (Kind.And2, v2 0 &&& v2 1);
      (Kind.Or2, v2 0 ||| v2 1);
      (Kind.Nand2, lnot (v2 0 &&& v2 1));
      (Kind.Nor2, lnot (v2 0 ||| v2 1));
      (Kind.Xor2, v2 0 ^^^ v2 1);
      (Kind.Xnor2, lnot (v2 0 ^^^ v2 1));
      (Kind.Mux2, mux ~sel:(v3 0) (v3 1) (v3 2));
      (Kind.And3, v3 0 &&& v3 1 &&& v3 2);
      (Kind.Or3, v3 0 ||| v3 1 ||| v3 2);
      (Kind.Nand3, lnot (v3 0 &&& v3 1 &&& v3 2));
      (Kind.Nor3, lnot (v3 0 ||| v3 1 ||| v3 2));
      (Kind.Xor3, v3 0 ^^^ v3 1 ^^^ v3 2);
      (Kind.Maj3, (v3 0 &&& v3 1) ||| (v3 1 &&& v3 2) ||| (v3 0 &&& v3 2));
    ]

(* Random DAG generator for property tests. *)
let random_comb_netlist seed =
  let rng = Random.State.make [| seed |] in
  let nl = Netlist.create ~name:"rand" () in
  let pis = Array.init 4 (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)) in
  let pool = ref (Array.to_list pis) in
  let pick () =
    let l = !pool in
    List.nth l (Random.State.int rng (List.length l))
  in
  for _ = 1 to 20 do
    let k =
      match Random.State.int rng 5 with
      | 0 -> Kind.And2
      | 1 -> Kind.Or2
      | 2 -> Kind.Xor2
      | 3 -> Kind.Nand2
      | _ -> Kind.Inv
    in
    let fis =
      Array.init (Kind.arity k) (fun _ -> pick ())
    in
    pool := Netlist.gate nl k fis :: !pool
  done;
  ignore (Netlist.output nl "o" (pick ()));
  nl

let prop_random_netlists_valid =
  QCheck.Test.make ~name:"random DAGs validate and levelize" ~count:50
    QCheck.small_int (fun seed ->
      let nl = random_comb_netlist seed in
      (match Netlist.validate nl with Ok () -> true | Error _ -> false)
      && Levelize.is_acyclic nl)

let prop_identity_map_equiv =
  QCheck.Test.make ~name:"identity map preserves equivalence" ~count:25
    QCheck.small_int (fun seed ->
      let nl = random_comb_netlist seed in
      let nl' =
        Netlist.map_combinational nl (fun dst n fi ->
            Netlist.gate dst n.Netlist.kind fi)
      in
      Equiv.check_exhaustive nl nl' = Equiv.Equivalent)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vpga_netlist"
    [
      ( "builder",
        [
          Alcotest.test_case "full adder" `Quick test_builder;
          Alcotest.test_case "unconnected flop" `Quick test_validate_unconnected_flop;
          Alcotest.test_case "fanout" `Quick test_fanout;
          Alcotest.test_case "forward-only" `Quick test_comb_cycle_detected;
        ] );
      ("kind", [ Alcotest.test_case "fixed truth tables" `Quick test_kind_tables ]);
      ( "levelize",
        [ Alcotest.test_case "levels and cycles" `Quick test_levelize ] );
      ( "simulate",
        [
          Alcotest.test_case "full adder truth table" `Quick test_simulate_full_adder;
          Alcotest.test_case "counter" `Quick test_simulate_counter;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "identity map" `Quick test_map_combinational;
          Alcotest.test_case "detects mutation" `Quick test_equiv_detects_mutation;
          Alcotest.test_case "interface mismatch" `Quick test_equiv_interface_mismatch;
        ] );
      ("stats", [ Alcotest.test_case "counts" `Quick test_stats ]);
      ( "properties",
        [ qt prop_random_netlists_valid; qt prop_identity_map_equiv ] );
    ]
