(* Tests for the benchmark design generators: every netlist is validated,
   levelized and simulated against its software reference model. *)

module Netlist = Vpga_netlist.Netlist
module Levelize = Vpga_netlist.Levelize
module Simulate = Vpga_netlist.Simulate
module Stats = Vpga_netlist.Stats
module Diag = Vpga_verify.Diag
module Lint = Vpga_verify.Lint
open Vpga_designs

let bits_of v w = Array.init w (fun i -> (v lsr i) land 1 = 1)
let int_of_bits bits = Array.to_list bits |> List.fold_left (fun acc b -> (acc lsl 1) lor (if b then 1 else 0)) 0
let int_of_bus bits lo w =
  let v = ref 0 in
  for i = 0 to w - 1 do
    if bits.(lo + i) then v := !v lor (1 lsl i)
  done;
  !v

let structurally_sound nl =
  (match Lint.structure nl with
  | [] -> ()
  | d :: _ -> Alcotest.fail (Diag.to_string d));
  Alcotest.(check bool) "acyclic" true (Levelize.is_acyclic nl)

(* --- wordgen ------------------------------------------------------------ *)

let test_adder_sub () =
  let w = 8 in
  let nl = Netlist.create () in
  let a = Wordgen.input_bus nl "a" w in
  let b = Wordgen.input_bus nl "b" w in
  let sum, cout = Wordgen.ripple_adder nl a b in
  let diff, borrow = Wordgen.subtractor nl a b in
  let lt = Wordgen.less_than nl a b in
  Wordgen.output_bus nl "sum" sum;
  ignore (Netlist.output nl "cout" cout);
  Wordgen.output_bus nl "diff" diff;
  ignore (Netlist.output nl "borrow" borrow);
  ignore (Netlist.output nl "lt" lt);
  structurally_sound nl;
  let sim = Simulate.create nl in
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 200 do
    let av = Random.State.int rng 256 and bv = Random.State.int rng 256 in
    let po =
      Simulate.eval_comb sim (Array.append (bits_of av w) (bits_of bv w))
    in
    Alcotest.(check int) "sum" ((av + bv) land 255) (int_of_bus po 0 w);
    Alcotest.(check bool) "cout" (av + bv > 255) po.(w);
    Alcotest.(check int) "diff" ((av - bv) land 255) (int_of_bus po (w + 1) w);
    Alcotest.(check bool) "borrow" (av < bv) po.(2 * w + 1);
    Alcotest.(check bool) "lt" (av < bv) po.(2 * w + 2)
  done

let test_carry_select () =
  let w = 12 in
  List.iter
    (fun block ->
      let nl = Netlist.create () in
      let a = Wordgen.input_bus nl "a" w in
      let b = Wordgen.input_bus nl "b" w in
      let cin = Netlist.input nl "cin" in
      let sum, cout = Wordgen.carry_select_adder ~block nl ~cin a b in
      Wordgen.output_bus nl "sum" sum;
      ignore (Netlist.output nl "cout" cout);
      structurally_sound nl;
      let sim = Simulate.create nl in
      let rng = Random.State.make [| 7 * block |] in
      for _ = 1 to 200 do
        let av = Random.State.int rng (1 lsl w)
        and bv = Random.State.int rng (1 lsl w)
        and cv = Random.State.int rng 2 in
        let po =
          Simulate.eval_comb sim
            (Array.concat [ bits_of av w; bits_of bv w; [| cv = 1 |] ])
        in
        let total = av + bv + cv in
        Alcotest.(check int)
          (Printf.sprintf "block=%d %d+%d+%d" block av bv cv)
          (total land ((1 lsl w) - 1))
          (int_of_bus po 0 w);
        Alcotest.(check bool) "cout" (total >= 1 lsl w) po.(w)
      done)
    [ 1; 3; 4; 5; 12; 16 ]

let test_csa_multiplier () =
  let m = 7 in
  let nl = Netlist.create () in
  let a = Wordgen.input_bus nl "a" m in
  let b = Wordgen.input_bus nl "b" m in
  Wordgen.output_bus nl "p" (Wordgen.csa_multiplier nl a b);
  structurally_sound nl;
  let sim = Simulate.create nl in
  for av = 0 to (1 lsl m) - 1 do
    (* sample bv to keep the loop fast but cover edges *)
    List.iter
      (fun bv ->
        let po = Simulate.eval_comb sim (Array.append (bits_of av m) (bits_of bv m)) in
        Alcotest.(check int)
          (Printf.sprintf "%d*%d" av bv)
          (av * bv)
          (int_of_bus po 0 (2 * m)))
      [ 0; 1; 2; 63; 64; 127; (av * 37) mod 128 ]
  done

let test_csa_reduce () =
  let w = 8 in
  let nl = Netlist.create () in
  let buses = List.init 5 (fun i -> Wordgen.input_bus nl (Printf.sprintf "x%d" i) w) in
  let s, c = Wordgen.csa_reduce nl buses in
  let total, _ = Wordgen.ripple_adder nl s c in
  Wordgen.output_bus nl "t" total;
  structurally_sound nl;
  let sim = Simulate.create nl in
  let rng = Random.State.make [| 41 |] in
  for _ = 1 to 100 do
    let vs = List.map (fun _ -> Random.State.int rng 40) buses in
    let pi = Array.concat (List.map (fun v -> bits_of v w) vs) in
    let po = Simulate.eval_comb sim pi in
    Alcotest.(check int) "csa sum"
      (List.fold_left ( + ) 0 vs land 255)
      (int_of_bus po 0 w)
  done

let test_shifters () =
  let w = 8 in
  let nl = Netlist.create () in
  let a = Wordgen.input_bus nl "a" w in
  let amt = Wordgen.input_bus nl "amt" 3 in
  Wordgen.output_bus nl "shl" (Wordgen.shift_left nl a ~amount:amt);
  Wordgen.output_bus nl "shr" (Wordgen.shift_right nl a ~amount:amt);
  Wordgen.output_bus nl "lzc" (Wordgen.leading_zero_count nl a);
  structurally_sound nl;
  let sim = Simulate.create nl in
  for av = 0 to 255 do
    for s = 0 to 7 do
      let po = Simulate.eval_comb sim (Array.append (bits_of av w) (bits_of s 3)) in
      Alcotest.(check int) "shl" ((av lsl s) land 255) (int_of_bus po 0 w);
      Alcotest.(check int) "shr" (av lsr s) (int_of_bus po w w);
      let lzc =
        let rec go i = if i < 0 then w else if (av lsr i) land 1 = 1 then w - 1 - i else go (i - 1) in
        go (w - 1)
      in
      Alcotest.(check int) "lzc" lzc (int_of_bus po (2 * w) 4)
    done
  done

let test_mux_tree_and_compare () =
  let w = 4 in
  let nl = Netlist.create () in
  let sel = Wordgen.input_bus nl "sel" 2 in
  let buses =
    List.init 4 (fun i -> Wordgen.input_bus nl (Printf.sprintf "d%d" i) w)
  in
  Wordgen.output_bus nl "y" (Wordgen.mux_tree nl ~sel buses);
  let a = Wordgen.input_bus nl "a" w in
  let b = Wordgen.input_bus nl "b" w in
  ignore (Netlist.output nl "eq" (Wordgen.equal_bus nl a b));
  ignore (Netlist.output nl "eq7" (Wordgen.equal_const nl a 7));
  structurally_sound nl;
  let sim = Simulate.create nl in
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 200 do
    let s = Random.State.int rng 4 in
    let ds = List.map (fun _ -> Random.State.int rng 16) buses in
    let av = Random.State.int rng 16 and bv = Random.State.int rng 16 in
    let pi =
      Array.concat
        (bits_of s 2 :: List.map (fun d -> bits_of d w) ds
        @ [ bits_of av w; bits_of bv w ])
    in
    let po = Simulate.eval_comb sim pi in
    Alcotest.(check int) "mux tree" (List.nth ds s) (int_of_bus po 0 w);
    Alcotest.(check bool) "equal_bus" (av = bv) po.(w);
    Alcotest.(check bool) "equal_const" (av = 7) po.(w + 1)
  done

let test_counter_and_registers () =
  let nl = Netlist.create () in
  let en = Netlist.input nl "en" in
  let cnt = Wordgen.counter nl ~width:4 ~enable:en in
  Wordgen.output_bus nl "cnt" cnt;
  let d = Wordgen.input_bus nl "d" 3 in
  let q = Wordgen.register_bus nl d in
  Wordgen.output_bus nl "q" q;
  structurally_sound nl;
  let sim = Simulate.create nl in
  Simulate.reset sim;
  (* 5 enabled cycles with d=5, then 3 disabled with d=2 *)
  for i = 0 to 4 do
    let po = Simulate.step sim (Array.append [| true |] (bits_of 5 3)) in
    Alcotest.(check int) (Printf.sprintf "count@%d" i) i (int_of_bus po 0 4)
  done;
  let po = ref [||] in
  for _ = 1 to 3 do
    po := Simulate.step sim (Array.append [| false |] (bits_of 2 3))
  done;
  Alcotest.(check int) "count held" 5 (int_of_bus !po 0 4);
  Alcotest.(check int) "register follows d" 2 (int_of_bus !po 4 3)

let test_netswitch8 () =
  let nl = Netswitch.build ~ports:8 ~width:4 () in
  structurally_sound nl;
  Alcotest.(check int) "8 valid+dest+data inputs" (8 * (1 + 3 + 4))
    (List.length (Netlist.inputs nl));
  Alcotest.(check int) "8 valid+data outputs" (8 * (1 + 4))
    (List.length (Netlist.outputs nl))

let test_fpu_edge_cases () =
  let e = 4 and m = 6 in
  let nl = Fpu.build ~exp_bits:e ~mant_bits:m () in
  let sim = Simulate.create nl in
  let cases =
    [
      (* op, a, b: zero mantissas, equal magnitudes opposite signs, carries *)
      (0, (0, 0, 0), (0, 0, 0));
      (0, (0, 5, 33), (1, 5, 33));
      (0, (0, 15, 63), (0, 15, 63));
      (0, (1, 0, 1), (0, 15, 63));
      (1, (0, 15, 63), (1, 15, 63));
      (1, (0, 3, 0), (0, 2, 17));
      (1, (0, 0, 1), (0, 0, 1));
    ]
  in
  List.iter
    (fun (op, (sa, ea, ma), (sb, eb, mb)) ->
      let pi =
        Array.concat
          [
            bits_of op 1; bits_of sa 1; bits_of ea e; bits_of ma m;
            bits_of sb 1; bits_of eb e; bits_of mb m;
          ]
      in
      Simulate.reset sim;
      ignore (Simulate.step sim pi);
      ignore (Simulate.step sim pi);
      let po = Simulate.step sim pi in
      let rs, re, rm =
        Fpu.reference ~exp_bits:e ~mant_bits:m ~op ~a:(sa, ea, ma) ~b:(sb, eb, mb)
      in
      let label = Printf.sprintf "edge op=%d (%d,%d,%d)x(%d,%d,%d)" op sa ea ma sb eb mb in
      Alcotest.(check int) (label ^ " mant") rm (int_of_bus po 0 m);
      Alcotest.(check int) (label ^ " exp") re (int_of_bus po m e);
      Alcotest.(check bool) (label ^ " sign") (rs = 1) po.(m + e))
    cases

let software_crc poly bits =
  List.fold_left
    (fun state b ->
      let feedback = ((state lsr 15) land 1) lxor b in
      (((state lsl 1) land 0xFFFF) lxor (if feedback = 1 then poly else 0)))
    0 bits

let test_crc_step () =
  let nl = Netlist.create () in
  let state = Wordgen.input_bus nl "s" 16 in
  let din = Netlist.input nl "din" in
  Wordgen.output_bus nl "n" (Wordgen.crc_step nl ~poly:Firewire.crc_poly ~state ~din);
  structurally_sound nl;
  let sim = Simulate.create nl in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    let s = Random.State.int rng 0x10000 and d = Random.State.int rng 2 in
    let po = Simulate.eval_comb sim (Array.append (bits_of s 16) [| d = 1 |]) in
    let feedback = ((s lsr 15) land 1) lxor d in
    let expect = ((s lsl 1) land 0xFFFF) lxor (if feedback = 1 then Firewire.crc_poly else 0) in
    Alcotest.(check int) "crc step" expect (int_of_bus po 0 16)
  done

(* --- ALU ----------------------------------------------------------------- *)

let test_alu () =
  let w = 8 in
  let nl = Alu.build ~width:w () in
  structurally_sound nl;
  let sim = Simulate.create nl in
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 300 do
    let op = Random.State.int rng 8 in
    let a = Random.State.int rng 256 and b = Random.State.int rng 256 in
    let pi = Array.concat [ bits_of op 3; bits_of a w; bits_of b w ] in
    Simulate.reset sim;
    ignore (Simulate.step sim pi);
    ignore (Simulate.step sim pi);
    let po = Simulate.step sim pi in
    Alcotest.(check int)
      (Printf.sprintf "op=%d a=%d b=%d" op a b)
      (Alu.reference ~width:w ~op ~a ~b)
      (int_of_bus po 0 w)
  done

let test_alu_size () =
  let nl = Alu.build ~width:32 () in
  structurally_sound nl;
  Alcotest.(check bool) "alu32 is a real datapath" true
    (Stats.gate_count nl > 1000.0);
  Alcotest.(check bool) "datapath-dominated" true (Stats.flop_ratio nl < 0.25)

(* --- FPU ------------------------------------------------------------------ *)

let test_fpu () =
  let e = 5 and m = 8 in
  let nl = Fpu.build ~exp_bits:e ~mant_bits:m () in
  structurally_sound nl;
  let sim = Simulate.create nl in
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 300 do
    let op = Random.State.int rng 2 in
    let sa = Random.State.int rng 2 and sb = Random.State.int rng 2 in
    let ea = Random.State.int rng (1 lsl e) and eb = Random.State.int rng (1 lsl e) in
    let ma = Random.State.int rng (1 lsl m) and mb = Random.State.int rng (1 lsl m) in
    let pi =
      Array.concat
        [
          bits_of op 1; bits_of sa 1; bits_of ea e; bits_of ma m;
          bits_of sb 1; bits_of eb e; bits_of mb m;
        ]
    in
    Simulate.reset sim;
    ignore (Simulate.step sim pi);
    ignore (Simulate.step sim pi);
    let po = Simulate.step sim pi in
    let rs, re, rm =
      Fpu.reference ~exp_bits:e ~mant_bits:m ~op ~a:(sa, ea, ma) ~b:(sb, eb, mb)
    in
    let label = Printf.sprintf "op=%d a=(%d,%d,%d) b=(%d,%d,%d)" op sa ea ma sb eb mb in
    Alcotest.(check int) (label ^ " mant") rm (int_of_bus po 0 m);
    Alcotest.(check int) (label ^ " exp") re (int_of_bus po m e);
    Alcotest.(check bool) (label ^ " sign") (rs = 1) po.(m + e)
  done

let test_fpu_size () =
  let nl = Fpu.build () in
  structurally_sound nl;
  Alcotest.(check bool) "fpu is the big datapath" true
    (Stats.gate_count nl > 8000.0)

(* --- Network switch -------------------------------------------------------- *)

let test_netswitch () =
  let ports = 4 and width = 8 in
  let lg = Wordgen.log2_up ports in
  let nl = Netswitch.build ~ports ~width () in
  structurally_sound nl;
  let sim = Simulate.create nl in
  Simulate.reset sim;
  let rng = Random.State.make [| 31 |] in
  let mk_packets () =
    Array.init ports (fun _ ->
        {
          Netswitch.valid = Random.State.bool rng;
          dest = Random.State.int rng ports;
          data = Random.State.int rng (1 lsl width);
        })
  in
  let pi_of packets =
    Array.concat
      (Array.to_list packets
      |> List.map (fun p ->
             Array.concat
               [
                 [| p.Netswitch.valid |];
                 bits_of p.Netswitch.dest lg;
                 bits_of p.Netswitch.data width;
               ]))
  in
  let history = ref [] in
  for t = 0 to 40 do
    let packets = mk_packets () in
    history := packets :: !history;
    let po = Simulate.step sim (pi_of packets) in
    if t >= 2 then begin
      let sent = List.nth !history 2 in
      let expect =
        Netswitch.reference_step ~ports ~width ~ptr:((t - 1) mod ports) sent
      in
      Array.iteri
        (fun o (ev, ed) ->
          let base = o * (1 + width) in
          Alcotest.(check bool)
            (Printf.sprintf "t=%d out%d valid" t o)
            ev po.(base);
          if ev then
            Alcotest.(check int)
              (Printf.sprintf "t=%d out%d data" t o)
              ed
              (int_of_bus po (base + 1) width))
        expect
    end
  done

(* --- Firewire --------------------------------------------------------------- *)

let test_firewire_frame () =
  let data_bits = 32 in
  let nl = Firewire.build ~data_bits () in
  structurally_sound nl;
  Alcotest.(check bool) "control-dominated (high flop ratio)" true
    (Stats.flop_ratio nl > 0.25);
  let sim = Simulate.create nl in
  Simulate.reset sim;
  let rng = Random.State.make [| 7 |] in
  let header = List.init 16 (fun _ -> Random.State.int rng 2) in
  let data = List.init data_bits (fun _ -> Random.State.int rng 2) in
  let crc = software_crc Firewire.crc_poly (header @ data) in
  let crc_bits = List.init 16 (fun i -> (crc lsr (15 - i)) land 1) in
  let stimulus =
    [ 1 ] (* start *) @ header @ data @ crc_bits
    @ List.init 10 (fun _ -> 0) (* ack + idle *)
  in
  let n_outputs = List.length (Netlist.outputs nl) in
  let crc_ok_idx = n_outputs - 1 in
  let tx_idx = 0 in
  let saw_tx = ref false in
  let last = ref [||] in
  List.iter
    (fun bit ->
      let po = Simulate.step sim [| bit = 1; false; false; false; false; false; false; false; false; false |] in
      if po.(tx_idx) then saw_tx := true;
      last := po)
    stimulus;
  Alcotest.(check bool) "crc accepted" true !last.(crc_ok_idx);
  Alcotest.(check bool) "ack transmitted" true !saw_tx;
  (* frames counter = 1 *)
  Alcotest.(check int) "one frame" 1 (int_of_bus !last 4 8);
  Alcotest.(check int) "no errors" 0 (int_of_bus !last 12 8);
  (* corrupted frame bumps the error counter *)
  let bad = [ 1 ] @ header @ data @ List.map (fun b -> 1 - b) crc_bits @ List.init 10 (fun _ -> 0) in
  List.iter
    (fun bit ->
      last := Simulate.step sim [| bit = 1; false; false; false; false; false; false; false; false; false |])
    bad;
  Alcotest.(check int) "error counted" 1 (int_of_bus !last 12 8)

let () =
  ignore int_of_bits;
  Alcotest.run "vpga_designs"
    [
      ( "wordgen",
        [
          Alcotest.test_case "adder/subtractor/compare" `Quick test_adder_sub;
          Alcotest.test_case "carry-select adder" `Quick test_carry_select;
          Alcotest.test_case "csa multiplier" `Quick test_csa_multiplier;
          Alcotest.test_case "csa reduction" `Quick test_csa_reduce;
          Alcotest.test_case "shifters and lzc" `Quick test_shifters;
          Alcotest.test_case "crc step" `Quick test_crc_step;
          Alcotest.test_case "mux tree and comparators" `Quick
            test_mux_tree_and_compare;
          Alcotest.test_case "counter and registers" `Quick
            test_counter_and_registers;
        ] );
      ( "alu",
        [
          Alcotest.test_case "vs reference" `Quick test_alu;
          Alcotest.test_case "size and character" `Quick test_alu_size;
        ] );
      ( "fpu",
        [
          Alcotest.test_case "vs reference" `Quick test_fpu;
          Alcotest.test_case "edge cases" `Quick test_fpu_edge_cases;
          Alcotest.test_case "size" `Quick test_fpu_size;
        ] );
      ( "netswitch",
        [
          Alcotest.test_case "vs reference" `Quick test_netswitch;
          Alcotest.test_case "8 ports interface" `Quick test_netswitch8;
        ] );
      ("firewire", [ Alcotest.test_case "frame protocol" `Quick test_firewire_frame ]);
    ]
