(* Tests for the flow's output artifacts (detailed routing, Verilog/DEF/SVG
   export) and the timing-driven cover option. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Arch = Vpga_plb.Arch
module Grid = Vpga_route.Grid
module Router = Vpga_route.Router
module Detail = Vpga_route.Detail
module Phys = Vpga_verify.Phys
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
      Alcotest.(check bool) "tracks consistent" true
        (Phys.check_tracks d routes = []);
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
  Alcotest.(check bool) "tracks consistent" true
    (Phys.check_tracks d r.Pathfinder.routes = []);
  (* An unassigned crossing is one conflict naming its net. *)
  let net, e =
    let rec first i = function
      | { Router.edges = e :: _; _ } :: _ -> (i, e)
      | _ :: rest -> first (i + 1) rest
      | [] -> Alcotest.fail "no routed edge"
    in
    first 0 r.Pathfinder.routes
  in
  Hashtbl.remove d.Detail.track (e, net);
  (match Phys.check_tracks d r.Pathfinder.routes with
  | [ x ] ->
      Alcotest.(check string) "code" "track-conflict" x.Vpga_verify.Diag.code;
      Alcotest.(check (list int)) "names the net" [ net ] x.Vpga_verify.Diag.nodes
  | xs -> Alcotest.failf "one conflict, got %d" (List.length xs));
  Alcotest.(check bool) "tracks within capacity" true
    (d.Detail.max_track < r.Pathfinder.grid.Grid.capacity);
  Alcotest.(check bool) "some vias on a real design" true (d.Detail.total_vias > 0)

(* The track assigner as it stood before its flat tables: [(edge, track)]
   occupancy and [(edge, net)] track lookups in hash tables, and a per-net
   bin -> edges table for continuation preferences and via counting.
   [Detail.run_result] must agree with it on every field, or fail with the
   same message. *)
module Reference_detail = struct
  exception Over_capacity of string

  let assign grid routes =
    let occupancy : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
    let track = Hashtbl.create 1024 in
    let net_vias = Array.make (List.length routes) 0 in
    let max_track = ref 0 in
    List.iteri
      (fun net rt ->
        let edges = rt.Router.edges in
        let by_bin = Hashtbl.create 16 in
        List.iter
          (fun e ->
            let a, b = Grid.bins_of grid e in
            List.iter
              (fun bin ->
                Hashtbl.replace by_bin bin
                  (e :: Option.value ~default:[] (Hashtbl.find_opt by_bin bin)))
              [ a; b ])
          edges;
        List.iter
          (fun e ->
            let a, b = Grid.bins_of grid e in
            let preferred =
              List.concat_map
                (fun bin ->
                  Option.value ~default:[] (Hashtbl.find_opt by_bin bin))
                [ a; b ]
              |> List.filter_map (fun e' ->
                     if
                       e' <> e
                       && Grid.horizontal grid e' = Grid.horizontal grid e
                     then
                       Hashtbl.find_opt track (e', net)
                     else None)
            in
            let free t = not (Hashtbl.mem occupancy (e, t)) in
            let usable = grid.Grid.tracks.(e) in
            let chosen =
              match
                List.find_opt
                  (fun t -> free t && Grid.track_usable grid e t)
                  preferred
              with
              | Some t -> Some t
              | None ->
                  let n = Array.length usable in
                  let rec first i =
                    if i >= n then None
                    else if free usable.(i) then Some usable.(i)
                    else first (i + 1)
                  in
                  first 0
            in
            match chosen with
            | Some t ->
                Hashtbl.replace occupancy (e, t) ();
                Hashtbl.replace track (e, net) t;
                if t > !max_track then max_track := t
            | None ->
                let ca, ra = Grid.coords grid a
                and cb, rb = Grid.coords grid b in
                let crossing =
                  List.fold_left
                    (fun acc rt ->
                      if List.mem e rt.Router.edges then acc + 1 else acc)
                    0 routes
                in
                raise
                  (Over_capacity
                     (Printf.sprintf
                        "edge %d between bins (%d,%d) and (%d,%d) over \
                         capacity: %d usable track(s), %d net(s) crossing"
                        e ca ra cb rb (Array.length usable) crossing)))
          edges;
        let vias = ref 0 in
        Hashtbl.iter
          (fun _bin es ->
            let rec pairs = function
              | [] | [ _ ] -> ()
              | e1 :: rest ->
                  List.iter
                    (fun e2 ->
                      let t1 = Hashtbl.find track (e1, net) in
                      let t2 = Hashtbl.find track (e2, net) in
                      if
                        Grid.horizontal grid e1 <> Grid.horizontal grid e2
                        || t1 <> t2
                      then incr vias)
                    rest;
                  pairs rest
            in
            pairs (List.sort_uniq Int.compare es))
          by_bin;
        net_vias.(net) <- !vias)
      routes;
    (track, net_vias, !max_track)

  let run_result grid routes =
    match assign grid routes with
    | r -> Ok r
    | exception Over_capacity msg -> Error msg
end

let bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Random global routes on a random defective grid, committed without
   negotiation so that some edges end up over capacity; now and then a
   route repeats one of its edges. *)
let random_routes seed =
  let rng = Random.State.make [| seed |] in
  let cols = 2 + Random.State.int rng 11
  and rows = 2 + Random.State.int rng 11 in
  let capacity = 1 + Random.State.int rng 5 in
  let tracks ~cx:_ ~cy:_ ~hw:_ ~hh:_ ~vertical:_ ~capacity =
    match Random.State.int rng 8 with
    | 0 -> [||]
    | 1 ->
        Array.of_list
          (List.filter
             (fun _ -> Random.State.bool rng)
             (List.init capacity Fun.id))
    | _ -> Array.init capacity Fun.id
  in
  let tracks = if Random.State.bool rng then Some tracks else None in
  let grid =
    Grid.create ?tracks ~cols ~rows ~bin_w:10.0 ~bin_h:12.0 ~capacity ()
  in
  let n_bins = Grid.num_bins grid in
  let routes =
    List.init (1 + Random.State.int rng 14) (fun i ->
        let pins =
          List.init
            (1 + Random.State.int rng 6)
            (fun _ -> Random.State.int rng n_bins)
        in
        let edges =
          let pres_fac = Random.State.float rng 4.0 in
          match
            Router.route_net grid ~pres_fac
              ~pins:(List.sort_uniq Int.compare pins)
          with
          | Some es -> es
          | None -> []
        in
        Router.commit grid edges;
        let edges =
          match edges with
          | e :: _ when Random.State.int rng 6 = 0 -> edges @ [ e ]
          | _ -> edges
        in
        { Router.net = [| i |]; edges; wirelength = 0.0 })
  in
  (grid, routes)

let prop_detail_matches_reference =
  QCheck.Test.make ~name:"run_result = hash-table reference" ~count:300
    QCheck.small_nat (fun seed ->
      let grid, routes = random_routes seed in
      match
        ( Detail.run_result grid routes,
          Reference_detail.run_result grid routes )
      with
      | Ok d, Ok (track, net_vias, max_track) ->
          bindings d.Detail.track = bindings track
          && d.Detail.net_vias = net_vias
          && d.Detail.total_vias = Array.fold_left ( + ) 0 net_vias
          && d.Detail.max_track = max_track
      | Error got, Error want -> got = want
      | Ok _, Error msg -> QCheck.Test.fail_reportf "reference failed: %s" msg
      | Error msg, Ok _ -> QCheck.Test.fail_reportf "failed: %s" msg)

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

let () =
  Alcotest.run "vpga_output"
    [
      ( "detail",
        [
          Alcotest.test_case "straight run" `Quick test_detail_straight;
          Alcotest.test_case "bend costs a via" `Quick test_detail_bend_costs_via;
          Alcotest.test_case "full design" `Quick test_detail_on_design;
          QCheck_alcotest.to_alcotest prop_detail_matches_reference;
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
    ]
