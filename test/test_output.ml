(* Tests for the flow's output artifacts (detailed routing, Verilog/DEF/SVG
   export) and the timing-driven cover option. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Levelize = Vpga_netlist.Levelize
module Arch = Vpga_plb.Arch
module Grid = Vpga_route.Grid
module Router = Vpga_route.Router
module Detail = Vpga_route.Detail
module Pathfinder = Vpga_route.Pathfinder
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Quadrisect = Vpga_pack.Quadrisect
module Compact = Vpga_mapper.Compact
module Export = Vpga_flow.Export
module Sta = Vpga_timing.Sta

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let count_substring hay needle =
  let rec go i acc =
    if i + String.length needle > String.length hay then acc
    else if String.sub hay i (String.length needle) = needle then
      go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* --- Detailed routing -------------------------------------------------- *)

let test_detail_straight () =
  let grid = Grid.create ~cols:6 ~rows:1 ~bin_w:10.0 ~bin_h:10.0 ~capacity:3 () in
  match Router.route_net grid ~pres_fac:1.0 ~pins:[ 0; 5 ] with
  | Some edges ->
      Router.commit grid edges;
      let routes =
        [ { Router.net = [| 0; 1 |]; edges; wirelength = 50.0 } ]
      in
      let d = Detail.run grid routes in
      (match Detail.validate d routes with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (* a straight run stays on one track: no vias *)
      Alcotest.(check int) "straight run has no vias" 0 d.Detail.net_vias.(0)
  | None -> Alcotest.fail "unroutable"

let test_detail_bend_costs_via () =
  let grid = Grid.create ~cols:4 ~rows:4 ~bin_w:10.0 ~bin_h:10.0 ~capacity:3 () in
  match Router.route_net grid ~pres_fac:1.0 ~pins:[ 0; 15 ] with
  | Some edges ->
      Router.commit grid edges;
      let routes = [ { Router.net = [| 0; 1 |]; edges; wirelength = 60.0 } ] in
      let d = Detail.run grid routes in
      Alcotest.(check bool) "corner-to-corner path bends" true
        (d.Detail.net_vias.(0) >= 1)
  | None -> Alcotest.fail "unroutable"

let test_detail_on_design () =
  let nl =
    Compact.run Arch.granular_plb (Vpga_designs.Alu.build ~width:6 ())
  in
  let pl = Placement.create nl in
  Global.place ~seed:3 pl;
  let r = Pathfinder.route_placement pl in
  Alcotest.(check int) "overflow-free global" 0 r.Pathfinder.final_overflow;
  let d = Detail.run r.Pathfinder.grid r.Pathfinder.routes in
  (match Detail.validate d r.Pathfinder.routes with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "tracks within capacity" true
    (d.Detail.max_track < r.Pathfinder.grid.Grid.capacity);
  Alcotest.(check bool) "some vias on a real design" true (d.Detail.total_vias > 0)

(* --- Export ------------------------------------------------------------- *)

let full_adder () =
  let nl = Netlist.create ~name:"fa" () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let cin = Netlist.input nl "cin" in
  ignore (Netlist.output nl "sum" (Netlist.gate nl Kind.Xor3 [| a; b; cin |]));
  ignore (Netlist.output nl "cout" (Netlist.gate nl Kind.Maj3 [| a; b; cin |]));
  nl

let test_verilog_structure () =
  let v = Export.verilog (full_adder ()) in
  Alcotest.(check bool) "module header" true (contains v "module fa(clk, a, b, cin, sum, cout);");
  Alcotest.(check bool) "endmodule" true (contains v "endmodule");
  Alcotest.(check bool) "xor3 comment" true (contains v "// xor3");
  Alcotest.(check bool) "maj3 comment" true (contains v "// maj3");
  Alcotest.(check int) "two output assigns + two logic assigns" 4
    (count_substring v "assign ")

let test_verilog_sop () =
  (* single and2: exact sum-of-products text *)
  let nl = Netlist.create ~name:"tiny" () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  ignore (Netlist.output nl "y" (Netlist.gate nl Kind.And2 [| a; b |]));
  let v = Export.verilog nl in
  Alcotest.(check bool) "minterm" true (contains v "(n0 & n1)")

let test_verilog_sequential () =
  let nl = Netlist.create ~name:"seq" () in
  let d = Netlist.input nl "d" in
  let q = Netlist.dff nl in
  Netlist.connect nl ~flop:q ~d;
  ignore (Netlist.output nl "q" q);
  let v = Export.verilog nl in
  Alcotest.(check bool) "clocked process" true (contains v "always @(posedge clk)");
  Alcotest.(check bool) "nonblocking assign" true (contains v "<=")

let packed_fixture () =
  let nl =
    Compact.run Arch.granular_plb (Vpga_designs.Alu.build ~width:4 ())
  in
  let pl = Placement.create nl in
  Global.place ~seed:3 pl;
  let q = Quadrisect.legalize Arch.granular_plb pl in
  let pl = Quadrisect.snap q pl in
  (nl, pl, q)

(* The packed placement lives on the PLB array's die: the legality
   checker accepts it, and every DEF component sits inside DIEAREA. *)
let test_packed_on_array_die () =
  let _, pl, _ = packed_fixture () in
  Alcotest.(check (list string))
    "placement legal" []
    (List.map Vpga_verify.Diag.to_string (Vpga_verify.Phys.check_placement pl));
  let lines = String.split_on_char '\n' (Export.def_ pl) in
  let die_w, die_h =
    match
      List.find_map
        (fun l -> Scanf.sscanf_opt l "DIEAREA ( 0 0 ) ( %f %f ) ;" (fun w h -> (w, h)))
        lines
    with
    | Some d -> d
    | None -> Alcotest.fail "no DIEAREA line"
  in
  let placed =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "  - n%_d %_s PLACED ( %f %f )" (fun x y -> (x, y)))
      lines
  in
  Alcotest.(check bool) "components listed" true (placed <> []);
  List.iter
    (fun (x, y) ->
      if x < 0.0 || y < 0.0 || x > die_w || y > die_h then
        Alcotest.failf "PLACED ( %.1f %.1f ) outside DIEAREA ( %.1f %.1f )" x y
          die_w die_h)
    placed

let test_def_and_svg () =
  let nl, pl, q = packed_fixture () in
  let def = Export.def_ ~packing:q pl in
  Alcotest.(check bool) "design header" true
    (contains def (Printf.sprintf "DESIGN %s ;" (Netlist.design_name nl)));
  Alcotest.(check bool) "array line" true (contains def "PLBARRAY");
  Alcotest.(check bool) "placements with tiles" true (contains def "TILE");
  let svg = Export.svg q pl in
  Alcotest.(check bool) "svg root" true (contains svg "<svg");
  Alcotest.(check int) "one rect per tile"
    (q.Quadrisect.cols * q.Quadrisect.rows)
    (count_substring svg "<rect");
  (* round-trip through a file *)
  let path = Filename.temp_file "vpga" ".svg" in
  Export.write_file path svg;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "file written" (String.length svg) len

(* --- Depth-oriented compaction ------------------------------------------- *)

let test_depth_objective () =
  let nl = Vpga_designs.Alu.build ~width:8 () in
  List.iter
    (fun arch ->
      let area_cover = Compact.run ~objective:`Area arch nl in
      let depth_cover = Compact.run ~objective:`Depth arch nl in
      (match Vpga_netlist.Equiv.check ~seed:5 nl depth_cover with
      | Vpga_netlist.Equiv.Equivalent -> ()
      | Vpga_netlist.Equiv.Mismatch _ ->
          Alcotest.fail "depth cover broke the design");
      (* the depth objective minimizes nominal-load estimated arrival (the
         DP's own metric); real STA differs through fanout loading *)
      let estimated_depth cover =
        let topo = Levelize.run cover in
        let at = Array.make (Netlist.size cover) 0.0 in
        Array.iter
          (fun id ->
            let node = Netlist.node cover id in
            match node.Netlist.kind with
            | Kind.Mapped { cell; _ } -> (
                match Vpga_plb.Config.of_cell_name cell with
                | Some cfg ->
                    let d = Vpga_plb.Config.delay cfg ~load:10.0 in
                    at.(id) <-
                      Array.fold_left
                        (fun acc f -> max acc at.(f))
                        0.0 node.Netlist.fanins
                      +. d
                | None -> ())
            | _ ->
                at.(id) <-
                  Array.fold_left (fun acc f -> max acc at.(f)) 0.0
                    node.Netlist.fanins)
          topo.Levelize.order;
        Array.fold_left max 0.0 at
      in
      Alcotest.(check bool)
        (arch.Arch.name ^ ": depth cover has no worse estimated depth")
        true
        (estimated_depth depth_cover <= estimated_depth area_cover +. 1.0);
      (* the area objective minimizes tile share, so compare that metric *)
      let tile_cost cover =
        List.fold_left
          (fun acc (c, n) ->
            acc +. (float_of_int n *. Vpga_plb.Config.tile_cost arch c))
          0.0
          (Compact.config_histogram cover)
      in
      Alcotest.(check bool)
        (arch.Arch.name ^ ": area cover occupies no more tile share")
        true
        (tile_cost area_cover <= tile_cost depth_cover +. 1.0))
    Arch.all

let () =
  Alcotest.run "vpga_output"
    [
      ( "detail",
        [
          Alcotest.test_case "straight run" `Quick test_detail_straight;
          Alcotest.test_case "bend costs a via" `Quick test_detail_bend_costs_via;
          Alcotest.test_case "full design" `Quick test_detail_on_design;
        ] );
      ( "export",
        [
          Alcotest.test_case "verilog structure" `Quick test_verilog_structure;
          Alcotest.test_case "verilog sop" `Quick test_verilog_sop;
          Alcotest.test_case "verilog sequential" `Quick test_verilog_sequential;
          Alcotest.test_case "def and svg" `Quick test_def_and_svg;
          Alcotest.test_case "packed placement on the array die" `Quick
            test_packed_on_array_die;
        ] );
      ( "objectives",
        [ Alcotest.test_case "depth vs area" `Quick test_depth_objective ] );
    ]
