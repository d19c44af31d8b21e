(* End-to-end flow tests: both flows on the four (test-scale) designs, and
   the shape of the paper's Section-3.2 claims. *)

module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
open Vpga_flow

(* One shared run of the whole evaluation at test scale. *)
let rows = lazy Experiments.(rows (run_tasks ~seed:1 Test))

let test_outcomes_sane () =
  List.iter
    (fun r ->
      List.iter
        (fun (pair : Flow.pair) ->
          List.iter
            (fun (o : Flow.outcome) ->
              let l = r.Experiments.name in
              Alcotest.(check bool) (l ^ " positive die") true (o.Flow.die_area > 0.0);
              Alcotest.(check bool) (l ^ " positive cells") true (o.Flow.cell_area > 0.0);
              Alcotest.(check bool) (l ^ " wirelength") true (o.Flow.wirelength > 0.0);
              Alcotest.(check bool) (l ^ " slack below period") true
                (o.Flow.avg_top10_slack < 500.0))
            [ pair.Flow.a; pair.Flow.b ])
        [ r.Experiments.lut; r.Experiments.granular ])
    (Lazy.force rows)

let test_flow_b_larger_than_a () =
  (* the regular array always costs area over the ASIC placement — the
     "die-area overhead ... due to the additional packing step" *)
  List.iter
    (fun r ->
      List.iter
        (fun (pair : Flow.pair) ->
          Alcotest.(check bool)
            (r.Experiments.name ^ " b >= a")
            true
            (pair.Flow.b.Flow.die_area >= pair.Flow.a.Flow.die_area))
        [ r.Experiments.lut; r.Experiments.granular ])
    (Lazy.force rows)

let test_headline_shape () =
  let h = Experiments.headlines (Lazy.force rows) in
  (* The paper's direction-of-effect claims (magnitudes are
     substrate-dependent; see EXPERIMENTS.md). *)
  Alcotest.(check bool) "granular reduces datapath die area" true
    (h.Experiments.datapath_area_reduction > 0.10);
  Alcotest.(check bool) "FPU reduction substantial" true
    (h.Experiments.fpu_area_reduction > 0.10);
  Alcotest.(check bool) "granular reduces packing overhead" true
    (h.Experiments.packing_overhead_reduction > 0.0);
  Alcotest.(check bool) "firewire reversal (paper's area caveat)" true
    h.Experiments.firewire_reversal;
  Alcotest.(check bool) "granular improves top-10 slack" true
    (h.Experiments.slack_improvement > 0.05)

let test_granular_beats_lut_on_datapath () =
  List.iter
    (fun r ->
      if r.Experiments.name <> "Firewire" then begin
        Alcotest.(check bool)
          (r.Experiments.name ^ ": granular flow-b die smaller")
          true
          (r.Experiments.granular.Flow.b.Flow.die_area
          < r.Experiments.lut.Flow.b.Flow.die_area);
        Alcotest.(check bool)
          (r.Experiments.name ^ ": granular flow-b slack better")
          true
          (r.Experiments.granular.Flow.b.Flow.avg_top10_slack
          > r.Experiments.lut.Flow.b.Flow.avg_top10_slack)
      end)
    (Lazy.force rows)

let test_compaction_gains () =
  (* paper: "this compaction step resulted in a significant reduction in
     total gate area of about 15% on the average" *)
  let table = Experiments.compaction_table Experiments.Test in
  let gains = List.map (fun (_, _, _, _, g) -> g) table in
  let mean = List.fold_left ( +. ) 0.0 gains /. float_of_int (List.length gains) in
  Alcotest.(check bool)
    (Printf.sprintf "mean compaction gain %.1f%% in [5%%, 60%%]" (100.0 *. mean))
    true
    (mean > 0.05 && mean < 0.60);
  List.iter
    (fun (d, a, before, after, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: compaction never grows area" d a)
        true (after <= before))
    table

let test_config_distribution () =
  (* paper: "majority of the functions that are mapped to a 3-LUT in the
     LUT-based PLB are mapped to a NDMX or XOAMX configuration" — on the
     granular PLB, LUTs are gone and mux-family configurations dominate *)
  List.iter
    (fun (design, hist) ->
      Alcotest.(check bool) (design ^ ": no LUTs on granular") true
        (not (List.mem_assoc Config.Lut hist));
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
      let mux_family =
        List.fold_left
          (fun acc (c, n) ->
            match c with
            | Config.Mx | Config.Ndmx | Config.Xoamx | Config.Xoandmx
            | Config.Mux3 | Config.Carry ->
                acc + n
            | Config.Invb | Config.Nd2 | Config.Nd3 | Config.Lut -> acc)
          0 hist
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: mux-family configurations are significant (%d/%d)"
           design mux_family total)
        true
        (float_of_int mux_family > 0.2 *. float_of_int total))
    (Experiments.config_distribution (Lazy.force rows))

let test_s3_and_full_adder_experiments () =
  let c = Experiments.s3_census () in
  Alcotest.(check int) "E1" 196 c.Vpga_logic.S3.s3_feasible;
  Alcotest.(check int) "E2" 256 c.Vpga_logic.S3.modified_feasible;
  Alcotest.(check (list (pair string int)))
    "E3"
    [ ("lut_plb", 2); ("granular_plb", 1) ]
    (Experiments.full_adder_tiles ())

let test_config_delay_table () =
  let t = Experiments.config_delays () in
  let find c = List.find (fun (c', _, _) -> c' = c) t in
  let (_, d_lut, _) = find Config.Lut in
  List.iter
    (fun c ->
      let (_, d, _) = find c in
      Alcotest.(check bool)
        (Config.name c ^ " faster than the 3-LUT (paper section 2.3)")
        true (d < d_lut))
    [ Config.Mx; Config.Nd3; Config.Ndmx; Config.Xoamx; Config.Xoandmx ]

let test_firewire_remedy () =
  (* E10, the paper's future-work claim: a flop-richer granular PLB removes
     the Firewire area reversal. *)
  match Experiments.firewire_remedy Experiments.Test with
  | [ (_, lut_die, _); (_, g_die, g_slack); (_, g2_die, g2_slack) ] ->
      Alcotest.(check bool) "2ff variant beats plain granular on area" true
        (g2_die < g_die);
      Alcotest.(check bool) "2ff variant removes the reversal" true
        (g2_die < lut_die);
      Alcotest.(check bool) "2ff variant does not hurt timing" true
        (g2_slack >= g_slack -. 100.0)
  | _ -> Alcotest.fail "unexpected remedy table shape"

let test_routing_styles () =
  (* E14: switched regular routing costs timing vs the VPGA's ASIC-style
     custom routing — the reason the paper routes "on top of, instead of
     adjacent to the PLB array" *)
  List.iter
    (fun (design, custom, regular) ->
      Alcotest.(check bool)
        (design ^ ": custom routing is faster")
        true (custom > regular))
    (Experiments.routing_styles Experiments.Test)

let test_displacement_mechanism () =
  (* perturbation data: legalization keeps cells within a few tiles of the
     ASIC placement on both architectures (reported, not a directional
     claim; see EXPERIMENTS.md) *)
  let h = Experiments.headlines (Lazy.force rows) in
  Alcotest.(check bool) "displacement delta bounded" true
    (Float.abs h.Experiments.displacement_reduction < 1.0);
  List.iter
    (fun r ->
      List.iter
        (fun (pair : Flow.pair) ->
          Alcotest.(check bool)
            (r.Experiments.name ^ ": perturbation within a few tiles")
            true
            (pair.Flow.b.Flow.displacement_tiles < 3.0))
        [ r.Experiments.lut; r.Experiments.granular ])
    (Lazy.force rows)

let test_seed_stability () =
  (* the area claims are packing-driven, not seed-driven: they must hold
     verbatim under a different flow seed *)
  let rows2 = Experiments.(rows (run_tasks ~seed:7 Test)) in
  let h = Experiments.headlines rows2 in
  Alcotest.(check bool) "area reduction stable across seeds" true
    (h.Experiments.datapath_area_reduction > 0.10);
  Alcotest.(check bool) "firewire reversal stable across seeds" true
    h.Experiments.firewire_reversal;
  (* and die areas are bit-identical to the seed-1 run *)
  List.iter2
    (fun r1 r2 ->
      Alcotest.(check (float 0.0))
        (r1.Experiments.name ^ ": flow-b die is seed-independent")
        r1.Experiments.granular.Flow.b.Flow.die_area
        r2.Experiments.granular.Flow.b.Flow.die_area)
    (Lazy.force rows) rows2

(* Fuzz: small random sequential designs survive the entire flow on both
   architectures (the flow's own equivalence gates verify functionality). *)
let prop_flow_fuzz =
  QCheck.Test.make ~name:"random designs survive both flows" ~count:6
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nl = Vpga_netlist.Netlist.create ~name:"fuzz" () in
      let module N = Vpga_netlist.Netlist in
      let module K = Vpga_netlist.Kind in
      let pis = List.init 4 (fun i -> N.input nl (Printf.sprintf "i%d" i)) in
      let flops = List.init 3 (fun _ -> N.dff nl) in
      let pool = ref (pis @ flops) in
      let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
      for _ = 1 to 25 do
        let k =
          match Random.State.int rng 8 with
          | 0 -> K.And2
          | 1 -> K.Or2
          | 2 -> K.Xor2
          | 3 -> K.Nand2
          | 4 -> K.Mux2
          | 5 -> K.Maj3
          | 6 -> K.Xor3
          | _ -> K.Inv
        in
        pool := N.gate nl k (Array.init (K.arity k) (fun _ -> pick ())) :: !pool
      done;
      List.iter (fun f -> N.connect nl ~flop:f ~d:(pick ())) flops;
      ignore (N.output nl "o1" (pick ()));
      ignore (N.output nl "o2" (pick ()));
      List.for_all
        (fun arch ->
          let pair = Flow.run ~seed:(seed + 1) arch nl in
          pair.Flow.b.Flow.die_area > 0.0 && pair.Flow.a.Flow.die_area > 0.0)
        Arch.all)

let test_flow_equivalence_gate () =
  (* identical designs pass the gate... *)
  let good = Vpga_designs.Alu.build ~width:4 () in
  Alcotest.(check bool) "no diagnostics" true
    (Flow.check_equivalence good (Vpga_designs.Alu.build ~width:4 ()) = []);
  (* ...and a behavioural difference under the same interface is caught *)
  let module N = Vpga_netlist.Netlist in
  let module K = Vpga_netlist.Kind in
  let mk kind =
    let nl = N.create ~name:"gate" () in
    let a = N.input nl "a" in
    let b = N.input nl "b" in
    ignore (N.output nl "y" (N.gate nl kind [| a; b |]));
    nl
  in
  match Flow.check_equivalence (mk K.And2) (mk K.Or2) with
  | [ d ] ->
      Alcotest.(check string) "code" "sim-mismatch" d.Vpga_verify.Diag.code
  | _ -> Alcotest.fail "mutation not caught by the flow gate"

let () =
  Alcotest.run "vpga_flow"
    [
      ( "outcomes",
        [
          Alcotest.test_case "sane" `Quick test_outcomes_sane;
          Alcotest.test_case "flow b costs area" `Quick test_flow_b_larger_than_a;
        ] );
      ( "paper claims",
        [
          Alcotest.test_case "headline shape" `Quick test_headline_shape;
          Alcotest.test_case "granular wins datapath" `Quick
            test_granular_beats_lut_on_datapath;
          Alcotest.test_case "compaction" `Quick test_compaction_gains;
          Alcotest.test_case "config distribution" `Quick test_config_distribution;
          Alcotest.test_case "s3 and full adder" `Quick
            test_s3_and_full_adder_experiments;
          Alcotest.test_case "config delays" `Quick test_config_delay_table;
          Alcotest.test_case "firewire remedy (E10)" `Quick test_firewire_remedy;
          Alcotest.test_case "routing styles (E14)" `Quick test_routing_styles;
          Alcotest.test_case "seed stability" `Slow test_seed_stability;
          Alcotest.test_case "displacement data" `Quick
            test_displacement_mechanism;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "equivalence gate" `Quick test_flow_equivalence_gate;
          QCheck_alcotest.to_alcotest prop_flow_fuzz;
        ] );
    ]
