(* Tests for the physical-design substrates: max-flow, FM partitioning,
   placement, buffering, routing, quadrisection packing and STA. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Equiv = Vpga_netlist.Equiv
module Bfun = Vpga_logic.Bfun
module Maxflow = Vpga_maxflow.Maxflow
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
open Vpga_place
open Vpga_route
module Quadrisect = Vpga_pack.Quadrisect
module Sta = Vpga_timing.Sta
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact

(* --- Maxflow ------------------------------------------------------------- *)

let test_maxflow_basic () =
  (* classic 4-node diamond: s=0, t=3 *)
  let g = Maxflow.create 4 in
  Maxflow.add_edge g ~src:0 ~dst:1 ~cap:3;
  Maxflow.add_edge g ~src:0 ~dst:2 ~cap:2;
  Maxflow.add_edge g ~src:1 ~dst:3 ~cap:2;
  Maxflow.add_edge g ~src:2 ~dst:3 ~cap:3;
  Maxflow.add_edge g ~src:1 ~dst:2 ~cap:5;
  Alcotest.(check int) "flow" 5 (Maxflow.max_flow g ~source:0 ~sink:3)

let test_maxflow_cut () =
  let g = Maxflow.create 4 in
  Maxflow.add_edge g ~src:0 ~dst:1 ~cap:1;
  Maxflow.add_edge g ~src:1 ~dst:2 ~cap:1;
  Maxflow.add_edge g ~src:2 ~dst:3 ~cap:1;
  Alcotest.(check int) "chain flow" 1 (Maxflow.max_flow g ~source:0 ~sink:3);
  let side = Maxflow.min_cut_side g ~source:0 in
  Alcotest.(check bool) "source on source side" true side.(0);
  Alcotest.(check bool) "sink off source side" false side.(3)

let test_maxflow_disconnected () =
  let g = Maxflow.create 3 in
  Maxflow.add_edge g ~src:0 ~dst:1 ~cap:7;
  Alcotest.(check int) "no path" 0 (Maxflow.max_flow g ~source:0 ~sink:2)

let prop_maxflow_bounded =
  QCheck.Test.make ~name:"flow bounded by source capacity" ~count:50
    QCheck.(pair small_int small_int)
    (fun (seed, n) ->
      let n = 3 + (n mod 8) in
      let rng = Random.State.make [| seed |] in
      let g = Maxflow.create n in
      let out0 = ref 0 in
      for _ = 1 to 3 * n do
        let a = Random.State.int rng n and b = Random.State.int rng n in
        if a <> b then begin
          let c = 1 + Random.State.int rng 4 in
          Maxflow.add_edge g ~src:a ~dst:b ~cap:c;
          if a = 0 then out0 := !out0 + c
        end
      done;
      Maxflow.max_flow g ~source:0 ~sink:(n - 1) <= !out0)

(* --- FM ------------------------------------------------------------------- *)

let test_fm_splits_cliques () =
  (* two 4-cliques joined by one net: optimal cut is 1 *)
  let clique base = List.init 4 (fun i -> List.init 4 (fun j -> base + ((i + j) mod 4))) in
  ignore clique;
  let nets =
    [
      [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 0; 3 |]; [| 0; 2 |]; [| 1; 3 |];
      [| 4; 5 |]; [| 5; 6 |]; [| 6; 7 |]; [| 4; 7 |]; [| 4; 6 |]; [| 5; 7 |];
      [| 3; 4 |];
    ]
  in
  let nets = Array.of_list nets in
  let areas = Array.make 8 1.0 in
  let r = Fm.run ~seed:3 ~nets ~areas 8 in
  Alcotest.(check int) "cut of joined cliques" 1 r.Fm.cut;
  Alcotest.(check int) "cut consistent" r.Fm.cut (Fm.cut_size nets r.Fm.side)

let prop_fm_never_worse_than_reported =
  QCheck.Test.make ~name:"reported cut matches the partition" ~count:30
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 12 in
      let nets =
        Array.init 20 (fun _ ->
            let a = Random.State.int rng n in
            let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
            [| a; b |])
      in
      let areas = Array.make n 1.0 in
      let r = Fm.run ~seed ~nets ~areas n in
      r.Fm.cut = Fm.cut_size nets r.Fm.side)

let prop_fm_balance =
  QCheck.Test.make ~name:"balance respected" ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 16 in
      let nets =
        Array.init 24 (fun _ ->
            let a = Random.State.int rng n in
            let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
            [| a; b |])
      in
      let areas = Array.make n 1.0 in
      let r = Fm.run ~balance:0.6 ~seed ~nets ~areas n in
      let right =
        Array.fold_left (fun acc s -> if s then acc +. 1.0 else acc) 0.0 r.Fm.side
      in
      right <= 0.6 *. float_of_int n +. 1.0
      && float_of_int n -. right <= (0.6 *. float_of_int n) +. 1.0)

(* --- Placement ------------------------------------------------------------- *)

let small_design () =
  let nl = Vpga_designs.Alu.build ~width:4 () in
  Compact.run Arch.granular_plb nl

let test_global_beats_scatter () =
  let nl = small_design () in
  let pl = Placement.create nl in
  Placement.scatter ~seed:7 pl;
  let scattered = Placement.hpwl pl in
  Global.place ~seed:7 pl;
  let placed = Placement.hpwl pl in
  Alcotest.(check bool)
    (Printf.sprintf "global (%.0f) < scatter (%.0f)" placed scattered)
    true (placed < scattered)

let test_anneal_improves () =
  let nl = small_design () in
  let pl = Placement.create nl in
  Global.place ~seed:7 pl;
  let before = Placement.hpwl pl in
  let stats = Anneal.refine ~iterations:20000 ~seed:11 pl in
  let after = Placement.hpwl pl in
  Alcotest.(check bool)
    (Printf.sprintf "anneal %.0f -> %.0f" before after)
    true (after <= before);
  Alcotest.(check bool) "some moves accepted" true (stats.Anneal.accepted > 0)

let test_placement_io_on_boundary () =
  let nl = small_design () in
  let pl = Placement.create nl in
  List.iter
    (fun i -> Alcotest.(check (float 0.0)) "input at x=0" 0.0 pl.Placement.x.(i))
    (Netlist.inputs nl)

(* --- Buffering --------------------------------------------------------------- *)

let test_buffering () =
  let nl = small_design () in
  let buffered = Buffering.insert ~max_fanout:4 nl in
  Alcotest.(check bool) "fanout bounded" true
    (Buffering.max_structural_fanout buffered <= 4);
  match Equiv.check ~seed:5 nl buffered with
  | Equiv.Equivalent -> ()
  | Equiv.Mismatch _ -> Alcotest.fail "buffering broke the design"

let prop_buffering_bounds_fanout =
  QCheck.Test.make ~name:"buffer fanout bound holds for any limit" ~count:8
    (QCheck.int_range 2 9)
    (fun limit ->
      let nl = small_design () in
      Buffering.max_structural_fanout (Buffering.insert ~max_fanout:limit nl)
      <= limit)

(* --- Routing ------------------------------------------------------------------ *)

let test_grid () =
  let g = Grid.create ~cols:4 ~rows:3 ~bin_w:10.0 ~bin_h:10.0 ~capacity:2 () in
  Alcotest.(check int) "bins" 12 (Grid.num_bins g);
  Alcotest.(check int) "edges" (9 + 8) (Grid.num_edges g);
  Alcotest.(check int) "corner has 2 neighbors" 2
    (List.length (Grid.neighbors g 0));
  Alcotest.(check int) "center has 4 neighbors" 4
    (List.length (Grid.neighbors g 5));
  let e = Grid.edge_between g 0 1 in
  Alcotest.(check int) "symmetric" e (Grid.edge_between g 1 0);
  Alcotest.check_raises "non-adjacent"
    (Invalid_argument "Grid.edge_between: bins not adjacent")
    (fun () -> ignore (Grid.edge_between g 0 5))

let test_route_single_net () =
  let g = Grid.create ~cols:5 ~rows:5 ~bin_w:10.0 ~bin_h:10.0 ~capacity:4 () in
  (match Router.route_net g ~pres_fac:1.0 ~pins:[ 0; 24 ] with
  | Some edges ->
      (* manhattan distance between opposite corners is 8 bins *)
      Alcotest.(check int) "shortest path" 8 (List.length edges)
  | None -> Alcotest.fail "unroutable");
  match Router.route_net g ~pres_fac:1.0 ~pins:[ 7; 7 ] with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "same-bin net should use no edges"
  | None -> Alcotest.fail "unroutable"

let test_route_steiner () =
  let g = Grid.create ~cols:5 ~rows:5 ~bin_w:10.0 ~bin_h:10.0 ~capacity:4 () in
  match Router.route_net g ~pres_fac:1.0 ~pins:[ 0; 4; 2 + 20 ] with
  | Some edges ->
      (* tree connecting (0,0),(4,0),(2,4): optimal Steiner length 8 *)
      Alcotest.(check int) "steiner tree" 8 (List.length edges)
  | None -> Alcotest.fail "unroutable"

let test_pathfinder_converges () =
  let nl = small_design () in
  let pl = Placement.create nl in
  Global.place ~seed:3 pl;
  let r = Pathfinder.route_placement pl in
  Alcotest.(check int) "no overflow" 0 r.Pathfinder.final_overflow;
  Alcotest.(check bool) "positive wirelength" true
    (Pathfinder.total_wirelength r > 0.0);
  (* usage accounting is consistent *)
  let recount = Array.make (Grid.num_edges r.Pathfinder.grid) 0 in
  List.iter
    (fun rt -> List.iter (fun e -> recount.(e) <- recount.(e) + 1) rt.Router.edges)
    r.Pathfinder.routes;
  Alcotest.(check bool) "usage matches routes" true
    (recount = r.Pathfinder.grid.Grid.usage)

let test_congestion_negotiation () =
  (* Many nets across a 1-track column must spread over other rows. *)
  let g = Grid.create ~cols:2 ~rows:6 ~bin_w:10.0 ~bin_h:10.0 ~capacity:1 () in
  let routed =
    List.init 4 (fun _ ->
        match Router.route_net g ~pres_fac:2.0 ~pins:[ 0; 1 ] with
        | Some edges ->
            Router.commit g edges;
            edges
        | None -> Alcotest.fail "unroutable")
  in
  ignore routed;
  (* with capacity 1, at least some nets should have taken detours *)
  let lens = List.map List.length routed in
  Alcotest.(check bool) "some detour" true (List.exists (fun l -> l > 1) lens)

let prop_grid_roundtrip =
  QCheck.Test.make ~name:"bin_of (center b) = b" ~count:100
    QCheck.(pair (int_range 2 9) (int_range 2 9))
    (fun (cols, rows) ->
      let g = Grid.create ~cols ~rows ~bin_w:12.0 ~bin_h:9.0 ~capacity:4 () in
      List.for_all
        (fun b ->
          let x, y = Grid.center g b in
          Grid.bin_of g ~x ~y = b)
        (List.init (Grid.num_bins g) Fun.id))

let prop_route_wirelength =
  QCheck.Test.make ~name:"wirelength equals edges times bin size" ~count:50
    QCheck.(pair (int_range 0 24) (int_range 0 24))
    (fun (p1, p2) ->
      let g = Grid.create ~cols:5 ~rows:5 ~bin_w:10.0 ~bin_h:10.0 ~capacity:8 () in
      match Router.route_net g ~pres_fac:1.0 ~pins:[ p1; p2 ] with
      | Some edges ->
          Float.abs
            (Router.wirelength_of g edges
            -. (10.0 *. float_of_int (List.length edges)))
          < 1e-9
      | None -> false)

(* --- STA ------------------------------------------------------------------------ *)

let chain_netlist n =
  let nl = Netlist.create ~name:"chain" () in
  let a = Netlist.input nl "a" in
  let fn = Bfun.lnot Bfun.(var ~arity:2 0 &&& var ~arity:2 1) in
  let b = Netlist.input nl "b" in
  let node = ref a in
  for _ = 1 to n do
    node := Netlist.gate nl (Kind.Mapped { cell = "nd3wi"; fn }) [| !node; b |]
  done;
  ignore (Netlist.output nl "o" !node);
  nl

let test_sta_chain () =
  let nl = chain_netlist 5 in
  let r = Sta.run ~period:2000.0 nl in
  let r1 = Sta.run ~period:2000.0 (chain_netlist 6) in
  Alcotest.(check bool) "longer chain has less slack" true
    (r1.Sta.wns < r.Sta.wns);
  Alcotest.(check int) "critical path covers the chain" (5 + 2)
    (List.length r.Sta.critical_path);
  Alcotest.(check bool) "slack finite" true (r.Sta.wns < 2000.0)

let test_sta_wire_hurts () =
  let nl = chain_netlist 5 in
  let dry = Sta.run nl in
  let wet = Sta.run ~wire:(fun _ -> (50.0, 0.5)) nl in
  Alcotest.(check bool) "wire load slows the design" true
    (wet.Sta.wns < dry.Sta.wns)

let test_sta_criticality () =
  let nl = chain_netlist 5 in
  let r = Sta.run nl in
  let crit = Sta.criticality r in
  (* criticality is highest along the critical path *)
  let max_crit = Array.fold_left max 0.0 crit in
  Alcotest.(check bool) "criticality in [0,1]" true
    (Array.for_all (fun c -> c >= 0.0 && c <= 1.0) crit);
  List.iter
    (fun id ->
      match (Netlist.node nl id).Netlist.kind with
      | Kind.Input -> ()
      | _ ->
          Alcotest.(check bool) "on-path criticality is maximal" true
            (crit.(id) >= max_crit -. 1e-6))
    r.Sta.critical_path

let test_sta_endpoint_count () =
  let nl = small_design () in
  let r = Sta.run nl in
  let n_endpoints =
    List.length (Netlist.outputs nl) + List.length (Netlist.flops nl)
  in
  Alcotest.(check int) "one endpoint per PO and flop" n_endpoints
    (List.length r.Sta.endpoints);
  Alcotest.(check int) "top slacks" 10 (List.length (Sta.top_slacks r 10))

let test_sta_rejects_generic () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let x = Netlist.gate nl Kind.And2 [| a; b |] in
  ignore (Netlist.output nl "o" x);
  Alcotest.check_raises "unmapped rejected"
    (Invalid_argument "Sta.run: netlist contains unmapped generic gates")
    (fun () -> ignore (Sta.run nl))

(* --- Quadrisection packing -------------------------------------------------------- *)

let test_quadrisect_legal () =
  let nl = small_design () in
  let nl = Buffering.insert ~max_fanout:8 nl in
  let pl = Placement.create nl in
  Global.place ~seed:5 pl;
  let q = Quadrisect.legalize Arch.granular_plb pl in
  (* every packed item has a tile, and every tile's contents fit *)
  let tiles = Hashtbl.create 64 in
  Array.iteri
    (fun id t ->
      if t >= 0 then
        Hashtbl.replace tiles t
          (id :: Option.value ~default:[] (Hashtbl.find_opt tiles t)))
    q.Quadrisect.tile_of_node;
  Alcotest.(check bool) "tiles in range" true
    (Hashtbl.fold
       (fun t _ acc -> acc && t < q.Quadrisect.cols * q.Quadrisect.rows)
       tiles true);
  Hashtbl.iter
    (fun _ ids ->
      let items =
        List.filter_map
          (fun id -> Quadrisect.item_of_node (Netlist.node nl id))
          ids
      in
      Alcotest.(check bool) "tile fits" true
        (Vpga_plb.Packer.fits Arch.granular_plb items))
    tiles;
  (* every packable node got a tile *)
  Array.iter
    (fun node ->
      match Quadrisect.item_of_node node with
      | Some _ ->
          Alcotest.(check bool) "assigned" true
            (q.Quadrisect.tile_of_node.(node.Netlist.id) >= 0)
      | None -> ())
    (Netlist.nodes nl);
  Alcotest.(check bool) "array area covers cells" true
    (Quadrisect.array_area q > 0.0)

let test_quadrisect_criticality_reduces_disp () =
  (* with criticality all-equal vs focused, displacement of critical cells
     should not grow; we check the weaker, deterministic property that
     legalization is stable for a fixed seed *)
  let nl = small_design () in
  let nl = Buffering.insert ~max_fanout:8 nl in
  let pl = Placement.create nl in
  Global.place ~seed:5 pl;
  let q1 = Quadrisect.legalize Arch.granular_plb pl in
  let q2 = Quadrisect.legalize Arch.granular_plb pl in
  Alcotest.(check bool) "deterministic" true
    (q1.Quadrisect.tile_of_node = q2.Quadrisect.tile_of_node)

let test_refine () =
  let nl = small_design () in
  let nl = Buffering.insert ~max_fanout:8 nl in
  let pl = Placement.create nl in
  Global.place ~seed:5 pl;
  let q = Quadrisect.legalize Arch.granular_plb pl in
  let pl_b = Quadrisect.snap q pl in
  let before = Placement.hpwl pl_b in
  let stats = Vpga_pack.Refine.run ~iterations:20000 ~seed:9 q pl_b in
  let after = Placement.hpwl pl_b in
  Alcotest.(check bool)
    (Printf.sprintf "refine reduces wirelength (%.0f -> %.0f)" before after)
    true (after <= before);
  Alcotest.(check bool) "moves accepted" true (stats.Vpga_pack.Refine.accepted > 0);
  (* all tiles remain feasible after refinement *)
  let tiles = Hashtbl.create 64 in
  Array.iteri
    (fun id t ->
      if t >= 0 then
        Hashtbl.replace tiles t
          (id :: Option.value ~default:[] (Hashtbl.find_opt tiles t)))
    q.Quadrisect.tile_of_node;
  Hashtbl.iter
    (fun _ ids ->
      let items =
        List.filter_map (fun id -> Quadrisect.item_of_node (Netlist.node nl id)) ids
      in
      Alcotest.(check bool) "tile still fits" true
        (Vpga_plb.Packer.fits Arch.granular_plb items))
    tiles;
  (* coordinates track tile centers *)
  Array.iteri
    (fun id t ->
      if t >= 0 then begin
        let x, y = Quadrisect.tile_center q t in
        Alcotest.(check (float 1e-6)) "x snapped" x pl_b.Placement.x.(id);
        Alcotest.(check (float 1e-6)) "y snapped" y pl_b.Placement.y.(id)
      end)
    q.Quadrisect.tile_of_node

let test_quadrisect_lut_arch () =
  let nl = Vpga_designs.Alu.build ~width:4 () in
  let compacted = Compact.run Arch.lut_plb nl in
  let buffered = Buffering.insert ~max_fanout:8 compacted in
  let pl = Placement.create buffered in
  Global.place ~seed:5 pl;
  let q = Quadrisect.legalize Arch.lut_plb pl in
  Alcotest.(check bool) "nonzero tiles" true (q.Quadrisect.tiles_used > 0);
  Alcotest.(check bool) "array covers demand" true
    (q.Quadrisect.cols * q.Quadrisect.rows >= q.Quadrisect.tiles_used)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vpga_physical"
    [
      ( "maxflow",
        [
          Alcotest.test_case "diamond" `Quick test_maxflow_basic;
          Alcotest.test_case "chain cut" `Quick test_maxflow_cut;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          qt prop_maxflow_bounded;
        ] );
      ( "fm",
        [
          Alcotest.test_case "two cliques" `Quick test_fm_splits_cliques;
          qt prop_fm_never_worse_than_reported;
          qt prop_fm_balance;
        ] );
      ( "placement",
        [
          Alcotest.test_case "global beats scatter" `Quick test_global_beats_scatter;
          Alcotest.test_case "anneal improves" `Quick test_anneal_improves;
          Alcotest.test_case "io on boundary" `Quick test_placement_io_on_boundary;
        ] );
      ( "buffering",
        [
          Alcotest.test_case "bounds fanout, keeps function" `Quick test_buffering;
          qt prop_buffering_bounds_fanout;
        ] );
      ( "routing",
        [
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "single net" `Quick test_route_single_net;
          Alcotest.test_case "steiner" `Quick test_route_steiner;
          Alcotest.test_case "pathfinder converges" `Quick test_pathfinder_converges;
          Alcotest.test_case "congestion negotiation" `Quick test_congestion_negotiation;
          qt prop_grid_roundtrip;
          qt prop_route_wirelength;
        ] );
      ( "sta",
        [
          Alcotest.test_case "chain" `Quick test_sta_chain;
          Alcotest.test_case "wire load" `Quick test_sta_wire_hurts;
          Alcotest.test_case "criticality" `Quick test_sta_criticality;
          Alcotest.test_case "endpoints" `Quick test_sta_endpoint_count;
          Alcotest.test_case "rejects generic" `Quick test_sta_rejects_generic;
        ] );
      ( "quadrisect",
        [
          Alcotest.test_case "legal packing" `Quick test_quadrisect_legal;
          Alcotest.test_case "deterministic" `Quick test_quadrisect_criticality_reduces_disp;
          Alcotest.test_case "lut arch" `Quick test_quadrisect_lut_arch;
          Alcotest.test_case "refinement" `Quick test_refine;
        ] );
    ]
