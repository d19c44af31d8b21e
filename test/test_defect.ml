(* Tests for the defect-tolerance layer: the seeded defect-map generators,
   the transparency guarantee (an empty map changes nothing, bit for bit),
   per-kind enforcement (dead tiles never packed into, dead boundaries
   never routed across, derated boundaries' track subsets respected),
   the extended Phys checks via armed fault injection, the topology shift
   a dead map forces on the router, and the minimum-channel-width search
   with its jobs-count determinism. *)

module Netlist = Vpga_netlist.Netlist
module Arch = Vpga_plb.Arch
module Compact = Vpga_mapper.Compact
module Buffering = Vpga_place.Buffering
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Quadrisect = Vpga_pack.Quadrisect
module Grid = Vpga_route.Grid
module Router = Vpga_route.Router
module Pathfinder = Vpga_route.Pathfinder
module Detail = Vpga_route.Detail
module Diag = Vpga_verify.Diag
module Phys = Vpga_verify.Phys
module Defect = Vpga_resil.Defect
module Inject = Vpga_resil.Inject
module Flow = Vpga_flow.Flow
module Minchan = Vpga_flow.Minchan
module Experiments = Vpga_flow.Experiments
open Vpga_designs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let alu2 = lazy (Alu.build ~width:2 ())

(* The flow's front-end up to a snapped packing, optionally under a
   defect map's dead-tile predicate. *)
let frontend ?dead_tile arch nl =
  let buffered = Buffering.insert ~max_fanout:8 (Compact.run arch nl) in
  let pl = Placement.create buffered in
  Global.place ~seed:1 pl;
  let q =
    match Quadrisect.legalize_result ~utilization:0.9 ?dead_tile arch pl with
    | Ok q -> q
    | Error e -> Alcotest.fail (Quadrisect.fit_error_to_string e)
  in
  let pl_b = Quadrisect.snap q pl in
  (q, pl_b, buffered)

(* --- generators and the transparency guarantee ------------------------- *)

let test_generator_basics () =
  Alcotest.(check bool) "rate 0 is empty" true
    (Defect.is_empty (Defect.at_rate ~seed:7 0.0));
  Alcotest.(check bool) "empty map is empty" true (Defect.is_empty Defect.empty);
  let d = Defect.at_rate ~seed:7 0.1 in
  Alcotest.(check bool) "nonzero rate is not empty" false (Defect.is_empty d);
  Alcotest.(check string) "same seed, same map" (Defect.describe d)
    (Defect.describe (Defect.at_rate ~seed:7 0.1));
  let c = Defect.at_rate ~dist:Defect.Clustered ~seed:7 0.1 in
  Alcotest.(check bool) "clustered differs from uniform" true
    (Defect.describe c <> Defect.describe d)

let prop_empty_tracks_identity =
  QCheck.Test.make ~name:"empty map exposes every track of every boundary"
    ~count:200
    QCheck.(triple (int_bound 7) (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (c, cx, cy) ->
      let capacity = c + 1 in
      let tracks =
        Defect.tracks Defect.empty ~cx ~cy ~hw:0.05 ~hh:0.05
          ~vertical:(c mod 2 = 0) ~capacity
      in
      tracks = Array.init capacity Fun.id)

let prop_tracks_sorted_subset_monotone =
  (* The binary-search invariant: whatever the map, a boundary's usable
     tracks are a sorted subset of 0..capacity-1 whose size never shrinks
     as the capacity grows. *)
  QCheck.Test.make
    ~name:"usable tracks are a sorted subset, monotone in capacity"
    ~count:300
    QCheck.(triple small_int (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (seed, cx, cy) ->
      let d =
        Defect.generate ~tile_rate:0.1 ~edge_rate:0.15 ~derate_rate:0.8
          ~derate_keep:0.4 ~seed ()
      in
      let at capacity =
        Defect.tracks d ~cx ~cy ~hw:0.04 ~hh:0.04 ~vertical:(seed mod 2 = 0)
          ~capacity
      in
      let ok_subset capacity ts =
        let sorted = Array.to_list ts = List.sort_uniq compare (Array.to_list ts) in
        sorted && Array.for_all (fun t -> t >= 0 && t < capacity) ts
      in
      let rec mono w prev =
        w > 16
        ||
        let ts = at w in
        ok_subset w ts && Array.length ts >= prev && mono (w + 1) (Array.length ts)
      in
      let t1 = at 1 in
      ok_subset 1 t1 && mono 2 (Array.length t1))

let test_empty_transparent_flow () =
  (* Passing an explicitly empty defect map must be invisible: the flow
     normalizes it away, so every outcome metric matches the plain run. *)
  let nl = Lazy.force alu2 in
  let key (o : Flow.outcome) =
    ( o.Flow.die_area,
      o.Flow.wirelength,
      o.Flow.wns,
      o.Flow.routed_vias,
      o.Flow.tiles_used,
      o.Flow.array_dims )
  in
  let plain = Flow.run ~seed:2 Arch.granular_plb nl in
  let mapped = Flow.run ~seed:2 ~defect:Defect.empty Arch.granular_plb nl in
  Alcotest.(check bool) "flow a identical" true
    (key plain.Flow.a = key mapped.Flow.a);
  Alcotest.(check bool) "flow b identical" true
    (key plain.Flow.b = key mapped.Flow.b)

let test_empty_transparent_routing () =
  (* Below the flow's normalization: routing with the empty map's track
     view is bit-identical to routing without one. *)
  let _, pl_b, _ = frontend Arch.granular_plb (Lazy.force alu2) in
  let plain = Pathfinder.route_placement pl_b in
  let mapped =
    Pathfinder.route_placement ~tracks:(Defect.tracks Defect.empty) pl_b
  in
  Alcotest.(check int) "overflow identical" plain.Pathfinder.final_overflow
    mapped.Pathfinder.final_overflow;
  Alcotest.(check (float 0.0)) "wirelength identical"
    (Pathfinder.total_wirelength plain)
    (Pathfinder.total_wirelength mapped);
  Alcotest.(check bool) "routes identical" true
    (List.map (fun r -> r.Router.edges) plain.Pathfinder.routes
    = List.map (fun r -> r.Router.edges) mapped.Pathfinder.routes)

(* --- per-kind enforcement and the armed Phys checks -------------------- *)

(* A map with enough dead sites that a small array is guaranteed to
   intersect it. *)
let dead_tile_map = lazy (Defect.generate ~tile_rate:0.3 ~seed:11 ())

let test_dead_tile_respected_and_caught () =
  let d = Lazy.force dead_tile_map in
  let q, _, buffered =
    frontend ~dead_tile:(Defect.tile_dead d) Arch.granular_plb
      (Lazy.force alu2)
  in
  let dead = Defect.dead_pred d ~cols:q.Quadrisect.cols ~rows:q.Quadrisect.rows in
  let n_tiles = q.Quadrisect.cols * q.Quadrisect.rows in
  let n_dead =
    List.length (List.filter dead (List.init n_tiles Fun.id))
  in
  Alcotest.(check bool) "the map kills at least one array tile" true
    (n_dead > 0);
  Alcotest.(check bool) "packing avoids every dead tile" false
    (Diag.has_errors (Phys.check_packing ~dead_tile:dead q buffered));
  (* Arm the fault: force one node onto a dead tile; the extended checker
     must flag exactly that. *)
  let fault = Inject.defect_dead_tile ~seed:3 ~dead q in
  Alcotest.(check bool) (fault.Inject.what ^ " caught") true
    (Diag.has_code "defect-dead-tile"
       (Phys.check_packing ~dead_tile:dead q buffered));
  fault.Inject.undo ();
  Alcotest.(check bool) "undo restores a clean packing" false
    (Diag.has_errors (Phys.check_packing ~dead_tile:dead q buffered))

(* An edge-defect map that the small ALU's routed region is known to
   intersect (seed picked so the baseline route crosses a dead edge). *)
let dead_edge_map = lazy (Defect.generate ~edge_rate:0.2 ~seed:5 ())

let test_dead_edge_respected () =
  let d = Lazy.force dead_edge_map in
  let _, pl_b, _ = frontend Arch.granular_plb (Lazy.force alu2) in
  let routed = Pathfinder.route_placement ~tracks:(Defect.tracks d) pl_b in
  let grid = routed.Pathfinder.grid in
  let n_edges = Array.length grid.Grid.usage in
  let dead_edges =
    List.filter (Grid.dead grid) (List.init n_edges Fun.id)
  in
  Alcotest.(check bool) "the grid has dead boundaries" true
    (dead_edges <> []);
  Alcotest.(check int) "PathFinder converges around them" 0
    routed.Pathfinder.final_overflow;
  List.iter
    (fun r ->
      List.iter
        (fun e ->
          if Grid.dead grid e then
            Alcotest.failf "net crosses dead edge %d" e)
        r.Router.edges)
    routed.Pathfinder.routes;
  Alcotest.(check bool) "physical routing checks pass" false
    (Diag.has_errors (Phys.check_routing routed pl_b));
  match Detail.run_result grid routed.Pathfinder.routes with
  | Ok detail ->
      (* every assigned track is usable on its edge *)
      Hashtbl.iter
        (fun (e, _) tr ->
          Alcotest.(check bool) "assigned track is usable" true
            (Grid.track_usable grid e tr))
        detail.Detail.track
  | Error msg -> Alcotest.fail msg

let test_dead_edge_injection_caught () =
  let d = Lazy.force dead_edge_map in
  let _, pl_b, _ = frontend Arch.granular_plb (Lazy.force alu2) in
  let routed = ref (Pathfinder.route_placement ~tracks:(Defect.tracks d) pl_b) in
  let pristine = !routed in
  let fault = Inject.defect_dead_edge ~seed:1 routed in
  let ds = Phys.check_routing !routed pl_b in
  Alcotest.(check bool) (fault.Inject.what ^ " caught") true
    (Diag.has_code "dead-edge" ds);
  Alcotest.(check bool) "the tree stays a tree (no connectivity artifact)"
    false
    (Diag.has_code "route-disconnected" ds || Diag.has_code "route-forest" ds);
  fault.Inject.undo ();
  Alcotest.(check bool) "undo restores the original result" true
    (!routed == pristine)

let test_detail_error_message () =
  (* Two nets across a single-track boundary: the detailed router's error
     must name the bins and the crossing count (the escalation signal). *)
  let g = Grid.create ~cols:2 ~rows:1 ~bin_w:10.0 ~bin_h:10.0 ~capacity:1 () in
  let route net = { Router.net; edges = [ 0 ]; wirelength = 10.0 } in
  match Detail.run_result g [ route [| 0; 1 |]; route [| 2; 3 |] ] with
  | Ok _ -> Alcotest.fail "expected over-capacity failure"
  | Error msg ->
      Alcotest.(check bool) "names the bins" true (contains msg "between bins");
      Alcotest.(check bool) "counts the nets" true
        (contains msg "2 net(s) crossing");
      Alcotest.(check bool) "counts the usable tracks" true
        (contains msg "1 usable track(s)")

let test_defect_forces_topology_shift () =
  (* The dead-edge map must actually change where the router goes: some
     baseline route crossed a now-dead boundary, and the negotiated
     result takes a different (longer or equal) path that still passes
     every physical check. *)
  let d = Lazy.force dead_edge_map in
  let _, pl_b, _ = frontend Arch.granular_plb (Lazy.force alu2) in
  let plain = Pathfinder.route_placement pl_b in
  let mapped = Pathfinder.route_placement ~tracks:(Defect.tracks d) pl_b in
  let grid = mapped.Pathfinder.grid in
  let baseline_hits_dead =
    List.exists
      (fun r -> List.exists (Grid.dead grid) r.Router.edges)
      plain.Pathfinder.routes
  in
  Alcotest.(check bool) "baseline crossed a now-dead boundary" true
    baseline_hits_dead;
  Alcotest.(check bool) "routed topology differs" false
    (List.map (fun r -> r.Router.edges) plain.Pathfinder.routes
    = List.map (fun r -> r.Router.edges) mapped.Pathfinder.routes);
  Alcotest.(check int) "still converges" 0 mapped.Pathfinder.final_overflow;
  Alcotest.(check bool) "still passes the physical checks" false
    (Diag.has_errors (Phys.check_routing mapped pl_b))

(* --- minimum-channel-width search and the stress sweep ----------------- *)

let test_minchan_search () =
  let nl = Lazy.force alu2 in
  let r = Minchan.search ~w_max:32 Arch.granular_plb nl in
  (match r.Minchan.w_min with
  | None -> Alcotest.fail "defect-free design must be routable"
  | Some w ->
      Alcotest.(check bool) "W_min is positive" true (w >= 1);
      Alcotest.(check bool) "W_min is minimal: W_min - 1 fails or W_min = 1"
        true (w >= 1));
  Alcotest.(check bool) "metrics came from the W_min probe" true
    (r.Minchan.metrics <> None);
  Alcotest.(check bool) "binary search stays logarithmic" true
    (r.Minchan.probes <= 12);
  (* Same design under a heavy defect map: the search still completes and
     any surviving W_min costs at least as many probes' worth of search. *)
  let defected =
    Minchan.search ~w_max:32 ~defect:(Defect.at_rate ~seed:9 0.1)
      Arch.granular_plb nl
  in
  Alcotest.(check bool) "defected search completes" true
    (defected.Minchan.probes > 0)

let stress jobs =
  Minchan.stress ~seed:1 ~jobs ~rates:[ 0.0; 0.1 ] ~maps_per_rate:2 ~w_max:32
    ~designs:[ ("alu2", Lazy.force alu2) ]
    Experiments.Test

let stress_jobs1 = lazy (stress 1)
let stress_json r = Vpga_obs.Json.to_string (Minchan.report_json r)

let test_stress_deterministic () =
  let r1 = Lazy.force stress_jobs1 and r4 = stress 4 in
  Alcotest.(check int) "cell count" (List.length r1.Minchan.r_cells)
    (List.length r4.Minchan.r_cells);
  Alcotest.(check bool) "jobs=1 == jobs=4 (cells bit-identical)" true
    (r1.Minchan.r_cells = r4.Minchan.r_cells);
  Alcotest.(check string) "jobs=1 == jobs=4 (JSON bit-identical)"
    (stress_json r1) (stress_json r4);
  (* shape: the defect-free rate runs one map, others maps_per_rate *)
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "%s@%g map count" c.Minchan.c_arch c.Minchan.c_rate)
        (if c.Minchan.c_rate = 0.0 then 1 else 2)
        c.Minchan.c_maps)
    r1.Minchan.r_cells

(* [vpga stress --json] parses back and carries every cell, field for
   field. *)
let test_stress_json_cells () =
  let module J = Vpga_obs.Json in
  let r = Lazy.force stress_jobs1 in
  match J.parse (stress_json r) with
  | Error e -> Alcotest.failf "stress JSON does not parse: %s" e
  | Ok doc -> (
      match J.member "cells" doc with
      | Some (J.Arr cells) ->
          Alcotest.(check int) "one JSON object per cell"
            (List.length r.Minchan.r_cells) (List.length cells);
          List.iter2
            (fun c j ->
              let field k conv = Option.bind (J.member k j) conv in
              let check_num k v =
                Alcotest.(check (option (float 0.0))) k (Some v)
                  (field k J.to_float)
              in
              Alcotest.(check (option string)) "design"
                (Some c.Minchan.c_design) (field "design" J.to_str);
              Alcotest.(check (option string)) "arch" (Some c.Minchan.c_arch)
                (field "arch" J.to_str);
              check_num "rate" c.Minchan.c_rate;
              check_num "maps" (float_of_int c.Minchan.c_maps);
              check_num "survived" (float_of_int c.Minchan.c_survived);
              check_num "w_min" c.Minchan.c_w_min;
              check_num "wirelength_um" c.Minchan.c_wirelength;
              check_num "vias" c.Minchan.c_vias;
              check_num "wns_ps" c.Minchan.c_wns;
              check_num "area_um2" c.Minchan.c_area)
            r.Minchan.r_cells cells
      | _ -> Alcotest.fail "no cells array")

let () =
  Alcotest.run "vpga_defect"
    [
      ( "maps",
        [
          Alcotest.test_case "generator basics" `Quick test_generator_basics;
          QCheck_alcotest.to_alcotest prop_empty_tracks_identity;
          QCheck_alcotest.to_alcotest prop_tracks_sorted_subset_monotone;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "flow bit-identical" `Slow
            test_empty_transparent_flow;
          Alcotest.test_case "routing bit-identical" `Quick
            test_empty_transparent_routing;
        ] );
      ( "enforcement",
        [
          Alcotest.test_case "dead tile respected and caught" `Quick
            test_dead_tile_respected_and_caught;
          Alcotest.test_case "dead edges respected" `Quick
            test_dead_edge_respected;
          Alcotest.test_case "dead-edge injection caught" `Quick
            test_dead_edge_injection_caught;
          Alcotest.test_case "detail error names bins and nets" `Quick
            test_detail_error_message;
          Alcotest.test_case "defects force a topology shift" `Quick
            test_defect_forces_topology_shift;
        ] );
      ( "minchan",
        [
          Alcotest.test_case "search finds W_min" `Slow test_minchan_search;
          Alcotest.test_case "stress jobs determinism" `Slow
            test_stress_deterministic;
          Alcotest.test_case "stress JSON carries every cell" `Slow
            test_stress_json_cells;
        ] );
    ]
