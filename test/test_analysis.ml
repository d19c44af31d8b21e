(* Tests for the static-analysis layer: the ternary lattice and its
   fixed-point evaluation, the dataflow passes against hand-seeded
   netlists, the CEC-certified simplifier over every benchmark x
   architecture, the region-ownership sanitizer (statically via
   [Ownership.check] and dynamically via a forced cross-region write),
   and the guarantee that arming the sanitizer changes no refinement
   results. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Packer = Vpga_plb.Packer
module Occupancy = Vpga_plb.Occupancy
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Buffering = Vpga_place.Buffering
module Quadrisect = Vpga_pack.Quadrisect
module Refine = Vpga_pack.Refine
module Diag = Vpga_verify.Diag
module Cec = Vpga_verify.Cec
module Dataflow = Vpga_dataflow.Dataflow
module Ternary = Vpga_analysis.Ternary
module Constprop = Vpga_analysis.Constprop
module Xprop = Vpga_analysis.Xprop
module Redund = Vpga_analysis.Redund
module Simplify = Vpga_analysis.Simplify
module Ownership = Vpga_analysis.Ownership
module Analysis = Vpga_analysis.Analysis
module Pass = Vpga_analysis.Pass
module Inject = Vpga_resil.Inject
module Experiments = Vpga_flow.Experiments

(* --- ternary lattice --- *)

let tern = Alcotest.testable (Fmt.of_to_string Ternary.to_string) Ternary.equal

let test_ternary_join () =
  let open Ternary in
  List.iter
    (fun x -> Alcotest.check tern "bot is identity" x (join Bot x))
    [ Bot; C0; C1; Def; Und ];
  Alcotest.check tern "constants clash to def" Def (join C0 C1);
  Alcotest.check tern "und absorbs" Und (join Def Und);
  Alcotest.check tern "und absorbs constants" Und (join C1 Und);
  Alcotest.check tern "idempotent" C0 (join C0 C0);
  (* Commutativity over the whole lattice. *)
  List.iter
    (fun a ->
      List.iter
        (fun b -> Alcotest.check tern "commutative" (join a b) (join b a))
        [ Bot; C0; C1; Def; Und ])
    [ Bot; C0; C1; Def; Und ]

(* Masking is the heart of ternary eval: a controlling constant hides
   any unknown on the other pin. *)
let test_ternary_eval_masking () =
  let open Ternary in
  Alcotest.check tern "AND(X, 0) = 0" C0 (eval Kind.And2 [| Und; C0 |]);
  Alcotest.check tern "OR(X, 1) = 1" C1 (eval Kind.Or2 [| Und; C1 |]);
  Alcotest.check tern "NAND(0, X) = 1" C1 (eval Kind.Nand2 [| C0; Und |]);
  Alcotest.check tern "XOR(X, 0) = X" Und (eval Kind.Xor2 [| Und; C0 |]);
  Alcotest.check tern "XOR(def, 0) = def" Def (eval Kind.Xor2 [| Def; C0 |]);
  Alcotest.check tern "MUX(0, d0=1, X) = 1" C1
    (eval Kind.Mux2 [| C0; C1; Und |]);
  Alcotest.check tern "MAJ(0, 0, X) = 0" C0 (eval Kind.Maj3 [| C0; C0; Und |]);
  Alcotest.check tern "INV(1) = 0" C0 (eval Kind.Inv [| C1 |]);
  Alcotest.check tern "bot poisons" Bot (eval Kind.And2 [| Bot; C0 |])

(* The flop_init knob is what splits constant propagation from
   X-propagation on the same engine. *)
let test_ternary_flop_init () =
  let nl = Netlist.create () in
  let q = Netlist.dff nl in
  let a = Netlist.input nl "a" in
  let g = Netlist.gate nl Kind.And2 [| q; a |] in
  Netlist.connect nl ~flop:q ~d:g;
  let y = Netlist.output nl "y" g in
  (* Reset-0 flop ANDed into its own D pin: the whole cone is stuck-0. *)
  let cp = Ternary.values ~flop_init:Ternary.C0 nl in
  Alcotest.check tern "constprop: flop stuck at 0" Ternary.C0 cp.(q);
  Alcotest.check tern "constprop: output stuck at 0" Ternary.C0 cp.(y);
  (* Uninitialized flop: the X reaches the output. *)
  let xp = Ternary.values ~flop_init:Ternary.Und nl in
  Alcotest.check tern "xprop: flop is X" Ternary.Und xp.(q);
  Alcotest.check tern "xprop: output is X" Ternary.Und xp.(y)

(* --- dataflow engine primitives --- *)

let test_dataflow_traversals () =
  (* reachable: chain 0 -> 1 -> 2 with 3 dangling. *)
  let next = function 0 -> [| 1 |] | 1 -> [| 2 |] | _ -> [||] in
  let r = Dataflow.reachable ~n:4 ~roots:[ 0 ] ~next in
  Alcotest.(check (list bool))
    "cone of node 0" [ true; true; true; false ]
    (Array.to_list r);
  (* cyclic_sccs: 2-cycle {0,1}, self-loop {3}, acyclic 2. *)
  let succ = function 0 -> [| 1 |] | 1 -> [| 0 |] | 3 -> [| 3 |] | _ -> [||] in
  let sccs = List.map (List.sort compare) (Dataflow.cyclic_sccs ~n:4 ~succ) in
  let sccs = List.sort compare sccs in
  Alcotest.(check (list (list int))) "cyclic sccs" [ [ 0; 1 ]; [ 3 ] ] sccs

(* --- passes against hand-seeded netlists --- *)

let test_constprop_finds_seeded_constant () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let zero = Netlist.gate nl (Kind.Const false) [||] in
  let stuck = Netlist.gate nl Kind.And2 [| a; zero |] in
  let live = Netlist.gate nl Kind.Or2 [| stuck; a |] in
  ignore (Netlist.output nl "y" live);
  let r = Constprop.run nl in
  Alcotest.(check bool)
    "const-logic flagged" true
    (Diag.has_code "const-logic" r.Pass.diags);
  let found = List.assoc "analysis.constants_found" r.Pass.counters in
  Alcotest.(check bool) "counter counts the stuck gate" true (found >= 1.0)

let test_xprop_finds_uninitialized_flop () =
  let nl = Netlist.create () in
  let q = Netlist.dff nl in
  let a = Netlist.input nl "a" in
  Netlist.connect nl ~flop:q ~d:a;
  (* q is X at t=0 regardless of a, and it reaches the output. *)
  ignore (Netlist.output nl "y" (Netlist.gate nl Kind.Xor2 [| q; a |]));
  let r = Xprop.run nl in
  Alcotest.(check bool)
    "x-output flagged" true
    (Diag.has_code "x-output" r.Pass.diags);
  Alcotest.(check bool)
    "x_nodes counted" true
    (List.assoc "analysis.x_nodes" r.Pass.counters >= 1.0);
  (* A masked X must stay silent: AND with constant 0 hides the flop. *)
  let ok = Netlist.create () in
  let q = Netlist.dff ok in
  let b = Netlist.input ok "b" in
  Netlist.connect ok ~flop:q ~d:b;
  let zero = Netlist.gate ok (Kind.Const false) [||] in
  ignore (Netlist.output ok "y" (Netlist.gate ok Kind.And2 [| q; zero |]));
  Alcotest.(check bool)
    "masked flop is clean" false
    (Diag.has_code "x-output" (Xprop.run ok).Pass.diags)

let test_redund_finds_structural_duplicate () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let g1 = Netlist.gate nl Kind.And2 [| a; b |] in
  let g2 = Netlist.gate nl Kind.And2 [| a; b |] in
  ignore (Netlist.output nl "y" (Netlist.gate nl Kind.Or2 [| g1; g2 |]));
  let r = Redund.run nl in
  Alcotest.(check bool)
    "strash-dup flagged" true
    (Diag.has_code "strash-dup" r.Pass.diags)

(* --- pass manager --- *)

let test_analysis_pass_selection () =
  let nl = Vpga_designs.Alu.build ~width:4 () in
  let a = Analysis.run ~passes:[ "constprop"; "fanout" ] nl in
  Alcotest.(check (list string))
    "only the selected passes ran" [ "constprop"; "fanout" ]
    (List.map (fun r -> r.Pass.name) a.Analysis.reports);
  let full = Analysis.run nl in
  Alcotest.(check (list string))
    "default runs all passes in order" Analysis.pass_names
    (List.map (fun r -> r.Pass.name) full.Analysis.reports);
  (* Every counter the manager aggregates is namespaced for the trace. *)
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool)
        (k ^ " is namespaced") true
        (String.length k > 9 && String.sub k 0 9 = "analysis."))
    (Analysis.counters full)

(* --- simplifier soundness: CEC-proven on every benchmark x arch --- *)

(* [Simplify.checked] already gates on CEC internally; the property here
   is end-to-end: on every benchmark design and each post-techmap form,
   the certification must come back Equivalent (the "simplified" or
   "simplify-noop" info), never "simplify-unsound". *)
let test_simplify_preserves_equivalence () =
  List.iter
    (fun (dname, nl) ->
      let check_on label nl =
        let nl', stats, diags = Simplify.checked nl in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: no refuted rewrite" dname label)
          false
          (Diag.has_code "simplify-unsound" diags);
        if Simplify.total stats > 0 then begin
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: rewrites certified" dname label)
            true
            (Diag.has_code "simplified" diags);
          (* Belt and braces: re-prove the returned netlist directly. *)
          match Cec.check nl nl' with
          | Cec.Equivalent -> ()
          | Cec.Inequivalent _ ->
              Alcotest.failf "%s/%s: simplified netlist not equivalent" dname
                label
        end
      in
      check_on "source" nl;
      List.iter
        (fun arch -> check_on arch.Arch.name (Techmap.map arch nl))
        [ Arch.lut_plb; Arch.granular_plb ])
    (Experiments.designs Experiments.Test)

(* --- ownership sanitizer, static half --- *)

(* One legalized ALU, shared by the ownership and refinement tests. *)
let packed =
  lazy
    (Config.prewarm ();
     let nl = Vpga_designs.Alu.build ~width:8 () in
     let arch = Arch.lut_plb in
     let buffered = Buffering.insert ~max_fanout:8 (Compact.run arch nl) in
     let pl = Placement.create buffered in
     Global.place ~seed:3 pl;
     let q = Quadrisect.legalize arch pl in
     let pl = Quadrisect.snap q pl in
     (q, pl))

let test_ownership_clean_on_real_legalization () =
  let q, _ = Lazy.force packed in
  List.iter
    (fun regions ->
      if min q.Quadrisect.cols q.Quadrisect.rows >= regions then begin
        let r = Ownership.check ~regions q in
        Alcotest.(check bool)
          (Printf.sprintf "%dx%d grid is race-free" regions regions)
          false (Diag.has_errors r.Ownership.diags);
        Alcotest.(check bool)
          "assertions were actually evaluated" true
          (r.Ownership.checks > 0)
      end)
    [ 1; 2; 3 ]

let test_ownership_catches_offdie_tile () =
  let q, _ = Lazy.force packed in
  let q' =
    { q with Quadrisect.tile_of_node = Array.copy q.Quadrisect.tile_of_node }
  in
  (* Corrupt one packed node to an off-die tile index. *)
  let i =
    let rec find i =
      if q'.Quadrisect.tile_of_node.(i) >= 0 then i else find (i + 1)
    in
    find 0
  in
  q'.Quadrisect.tile_of_node.(i) <- q'.Quadrisect.cols * q'.Quadrisect.rows;
  let r = Ownership.check ~regions:1 q' in
  Alcotest.(check bool)
    "tile-range violation is an error" true
    (Diag.has_code "tile-range" r.Ownership.diags
    && Diag.has_errors r.Ownership.diags)

(* --- ownership sanitizer, dynamic half --- *)

(* A 2x4 toy die: tiles 0-3 stamped region 0, tiles 4-7 region 1. *)
let stamped_tiles cache =
  let tiles = Array.init 8 (fun _ -> Occupancy.create cache) in
  Array.iteri (fun i t -> Occupancy.set_owner t (if i < 4 then 0 else 1)) tiles;
  tiles

let test_inject_cross_region_caught_when_armed () =
  let cache = Occupancy.create_cache Arch.granular_plb in
  let tiles = stamped_tiles cache in
  (* Arm as region 0's walk: any write into a region-1 tile must trap. *)
  Occupancy.set_writer cache 0;
  (match Inject.occupancy_cross_region ~seed:11 tiles with
  | exception Occupancy.Race { owner; writer } ->
      Alcotest.(check int) "victim owned by the other region" 1 owner;
      Alcotest.(check int) "writer is region 0" 0 writer
  | _ -> Alcotest.fail "armed sanitizer let a cross-region write land");
  Alcotest.(check bool)
    "the faulting write did not land" true
    (Array.for_all Occupancy.is_empty tiles);
  Alcotest.(check bool)
    "guard evaluated at least once" true
    (Occupancy.guard_checks cache > 0)

let test_inject_cross_region_lands_when_disarmed () =
  let cache = Occupancy.create_cache Arch.granular_plb in
  let tiles = stamped_tiles cache in
  (* Writer left at -1: the guard is disarmed, the fault lands silently —
     exactly the latent race the sanitizer exists to catch. *)
  let fault = Inject.occupancy_cross_region ~seed:11 tiles in
  Alcotest.(check int)
    "exactly one tile mutated" 1
    (Array.fold_left (fun n t -> n + Occupancy.count t) 0 tiles);
  fault.Inject.undo ();
  Alcotest.(check bool)
    "undo restores all tiles" true
    (Array.for_all Occupancy.is_empty tiles)

(* --- arming the sanitizer changes no refinement results --- *)

let test_refine_sanitize_is_transparent () =
  let q, pl = Lazy.force packed in
  let run ~jobs ~regions ~sanitize =
    let q' =
      { q with Quadrisect.tile_of_node = Array.copy q.Quadrisect.tile_of_node }
    in
    let pl' =
      {
        pl with
        Placement.x = Array.copy pl.Placement.x;
        y = Array.copy pl.Placement.y;
      }
    in
    let st =
      Refine.run ~iterations:20_000 ~jobs ~regions ~sanitize ~seed:7 q' pl'
    in
    (q'.Quadrisect.tile_of_node, st)
  in
  List.iter
    (fun (jobs, regions) ->
      let plain, st_plain = run ~jobs ~regions ~sanitize:false in
      let armed, st_armed = run ~jobs ~regions ~sanitize:true in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d regions=%d: identical packing" jobs regions)
        (Array.to_list plain) (Array.to_list armed);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d regions=%d: identical move counts" jobs
           regions)
        st_plain.Refine.accepted st_armed.Refine.accepted)
    [ (1, 1); (2, 2); (4, 2) ]

let () =
  Alcotest.run "analysis"
    [
      ( "ternary",
        [
          Alcotest.test_case "join laws" `Quick test_ternary_join;
          Alcotest.test_case "eval masking" `Quick test_ternary_eval_masking;
          Alcotest.test_case "flop_init split" `Quick test_ternary_flop_init;
        ] );
      ( "dataflow",
        [ Alcotest.test_case "traversals" `Quick test_dataflow_traversals ] );
      ( "passes",
        [
          Alcotest.test_case "constprop seeded constant" `Quick
            test_constprop_finds_seeded_constant;
          Alcotest.test_case "xprop uninitialized flop" `Quick
            test_xprop_finds_uninitialized_flop;
          Alcotest.test_case "redundancy structural dup" `Quick
            test_redund_finds_structural_duplicate;
          Alcotest.test_case "pass selection" `Quick
            test_analysis_pass_selection;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "CEC-proven on all benchmarks" `Slow
            test_simplify_preserves_equivalence;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "clean on real legalization" `Quick
            test_ownership_clean_on_real_legalization;
          Alcotest.test_case "off-die tile caught" `Quick
            test_ownership_catches_offdie_tile;
          Alcotest.test_case "armed injection trapped" `Quick
            test_inject_cross_region_caught_when_armed;
          Alcotest.test_case "disarmed injection lands" `Quick
            test_inject_cross_region_lands_when_disarmed;
          Alcotest.test_case "sanitize is transparent" `Slow
            test_refine_sanitize_is_transparent;
        ] );
    ]
