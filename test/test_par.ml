(* The domain pool (Vpga_par.Pool), the incremental wirelength cost model
   behind both annealers (Vpga_place.Wirecost), and the parallel-sweep
   determinism contract: Experiments.run_all must return the same rows
   whatever [jobs] is. *)

module Pool = Vpga_par.Pool
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Anneal = Vpga_place.Anneal
module Arch = Vpga_plb.Arch
module Compact = Vpga_mapper.Compact
open Vpga_flow

(* --- Pool ------------------------------------------------------------- *)

let test_results_in_submission_order () =
  (* Tasks finish out of order (earlier tasks sleep longer); results must
     still come back in submission order. *)
  let n = 12 in
  let tasks =
    List.init n (fun i ->
        fun () ->
          Unix.sleepf (0.002 *. float_of_int (n - i));
          i)
  in
  Alcotest.(check (list int))
    "ordered results" (List.init n Fun.id)
    (Pool.run ~jobs:4 tasks)

let test_more_jobs_than_tasks () =
  Alcotest.(check (list int))
    "2 tasks on 8 workers" [ 10; 20 ]
    (Pool.run ~jobs:8 [ (fun () -> 10); (fun () -> 20) ])

let test_sequential_jobs1 () =
  (* jobs = 1 must run inline: side effects happen in submission order. *)
  let log = ref [] in
  let tasks = List.init 5 (fun i -> fun () -> log := i :: !log; i) in
  let results = Pool.run ~jobs:1 tasks in
  Alcotest.(check (list int)) "results" [ 0; 1; 2; 3; 4 ] results;
  Alcotest.(check (list int)) "inline execution order" [ 4; 3; 2; 1; 0 ] !log

exception Boom of string

let test_exception_propagation () =
  let tasks =
    [
      (fun () -> 1);
      (fun () -> raise (Boom "worker 2 failed"));
      (fun () -> 3);
      (fun () -> 4);
    ]
  in
  match Pool.run ~jobs:3 tasks with
  | _ -> Alcotest.fail "worker exception was swallowed"
  | exception Boom msg ->
      Alcotest.(check string) "exception payload" "worker 2 failed" msg

let test_pool_reuse_and_shutdown () =
  let p = Pool.create ~jobs:3 () in
  let futs = List.init 20 (fun i -> Pool.submit p (fun () -> i * i)) in
  List.iteri
    (fun i fut -> Alcotest.(check int) "future value" (i * i) (Pool.await fut))
    futs;
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  match Pool.submit p (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown should fail"
  | exception Invalid_argument _ -> ()

let test_sibling_isolation () =
  (* Regression: a raising task must fail only its own future.  Siblings
     submitted around it still complete, and the pool keeps serving new
     work afterwards — shutdown would hang if the exception had killed a
     worker domain. *)
  let p = Pool.create ~jobs:2 () in
  let futs =
    List.init 10 (fun i ->
        Pool.submit p (fun () ->
            if i mod 3 = 1 then raise (Boom (string_of_int i)) else i))
  in
  List.iteri
    (fun i fut ->
      if i mod 3 = 1 then
        match Pool.await fut with
        | _ -> Alcotest.fail "task failure was swallowed"
        | exception Boom msg ->
            Alcotest.(check string) "own payload" (string_of_int i) msg
      else Alcotest.(check int) "sibling unaffected" i (Pool.await fut))
    futs;
  let more = List.init 4 (fun i -> Pool.submit p (fun () -> i * 10)) in
  Alcotest.(check (list int))
    "pool still serves" [ 0; 10; 20; 30 ]
    (List.map Pool.await more);
  Pool.shutdown p

let test_try_run_captures () =
  (* try_run: each failure lands in its own slot; siblings' results are
     never hidden.  Same contract inline (jobs=1) and pooled. *)
  let thunks =
    List.init 6 (fun i ->
        fun () -> if i mod 2 = 0 then i * 10 else raise (Boom (string_of_int i)))
  in
  List.iter
    (fun jobs ->
      let results = Pool.try_run ~jobs thunks in
      Alcotest.(check int) "all slots present" 6 (List.length results);
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check bool) "even slots succeed" true (i mod 2 = 0);
              Alcotest.(check int) "value" (i * 10) v
          | Error (Boom msg) ->
              Alcotest.(check string) "captured payload" (string_of_int i) msg
          | Error _ -> Alcotest.fail "wrong exception captured")
        results)
    [ 1; 4 ]

let test_bounded_queue_backpressure () =
  (* capacity 1, slow workers: submission must block rather than buffer,
     and everything still completes. *)
  let p = Pool.create ~capacity:1 ~jobs:2 () in
  let futs =
    List.init 8 (fun i ->
        Pool.submit p (fun () ->
            Unix.sleepf 0.002;
            i))
  in
  Alcotest.(check (list int))
    "all completed" (List.init 8 Fun.id)
    (List.map Pool.await futs);
  Pool.shutdown p

(* --- Incremental HPWL bounding boxes ---------------------------------- *)

let small_placement () =
  let nl = Vpga_designs.Alu.build ~width:4 () in
  let pl = Placement.create (Compact.run Arch.granular_plb nl) in
  Placement.scatter ~seed:3 pl;
  pl

let test_bbox_matches_scan () =
  let pl = small_placement () in
  let nets = Placement.nets_with_io pl in
  Array.iter
    (fun net ->
      let b = Placement.Bbox.of_net pl net in
      Alcotest.(check (float 1e-9))
        "bbox hpwl = scan hpwl" (Placement.net_hpwl pl net)
        (Placement.Bbox.hpwl b))
    nets

(* A netlist with the shapes the incremental cost model special-cases: a
   gate reading one signal on both pins (a node listed twice on one net)
   and nets wider than the small-net cutoff (cached bounding boxes). *)
let doubled_pin_placement () =
  let module Netlist = Vpga_netlist.Netlist in
  let module Kind = Vpga_netlist.Kind in
  let nl = Netlist.create ~name:"doubled" () in
  let ins = Array.init 4 (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)) in
  let x = Netlist.gate nl Kind.Xor2 [| ins.(0); ins.(1) |] in
  let sq = Netlist.gate nl Kind.And2 [| x; x |] in
  let fan =
    Array.init 6 (fun i ->
        let src = if i mod 2 = 0 then x else sq in
        Netlist.gate nl Kind.Or2 [| src; ins.(2 + (i mod 2)) |])
  in
  let y = Netlist.gate nl Kind.Nand2 [| sq; sq |] in
  Array.iteri
    (fun i g -> ignore (Netlist.output nl (Printf.sprintf "o%d" i) g))
    fan;
  ignore (Netlist.output nl "y" y);
  let pl = Placement.create nl in
  Placement.scatter ~seed:5 pl;
  pl

(* Drive [Wirecost] through random single moves, swaps in both
   collection orders (half of them between two movers sharing a net) and
   rejected proposals.  Every proposal's delta must equal the change of a
   fresh weighted recomputation, and the running total must track it.
   Exercises the rescan fallback: movers frequently sit alone on a bound,
   and half the single moves land exactly on another pin's coordinates
   (the multiplicity-count paths). *)
let wirecost_consistency pl =
  let module W = Vpga_place.Wirecost in
  let n_nodes = Array.length pl.Placement.x in
  let rng = Random.State.make [| 42 |] in
  let criticality = Array.init n_nodes (fun _ -> Random.State.float rng 1.0) in
  let m = W.model ~criticality pl in
  let st = W.state m pl in
  let nets = Placement.nets_with_io pl in
  let movable = pl.Placement.graph.Vpga_place.Hypergraph.node_of_vertex in
  let n_mov = Array.length movable in
  let is_movable = Array.make n_nodes false in
  Array.iter (fun id -> is_movable.(id) <- true) movable;
  let close what want got =
    let eps = 1e-9 *. Float.max 1.0 (Float.abs want) in
    Alcotest.(check (float eps)) what want got
  in
  close "initial total = fresh" (W.cost m pl) (W.total st);
  let doubled = ref 0 and shared = ref 0 in
  for step = 1 to 600 do
    let xs = pl.Placement.x and ys = pl.Placement.y in
    let ia = Random.State.int rng n_mov in
    let a = movable.(ia) in
    let restore =
      match Random.State.int rng 3 with
      | 0 ->
          (* A single move to a fresh point or onto another pin. *)
          let ox = xs.(a) and oy = ys.(a) in
          W.touch st a;
          if Random.State.bool rng then begin
            xs.(a) <- Random.State.float rng pl.Placement.die_w;
            ys.(a) <- Random.State.float rng pl.Placement.die_h
          end
          else begin
            let o = Random.State.int rng n_nodes in
            xs.(a) <- xs.(o);
            ys.(a) <- ys.(o)
          end;
          let pins net =
            Array.fold_left (fun k id -> if id = a then k + 1 else k) 0 net
          in
          if Array.exists (fun net -> pins net > 1) nets then incr doubled;
          fun () ->
            xs.(a) <- ox;
            ys.(a) <- oy
      | _ ->
          (* A swap, with a partner on one of [a]'s nets half the time. *)
          let b =
            let pick () =
              movable.((ia + 1 + Random.State.int rng (n_mov - 1)) mod n_mov)
            in
            if Random.State.bool rng then begin
              let cands =
                Array.to_list nets
                |> List.filter (fun net -> Array.mem a net)
                |> List.concat_map Array.to_list
                |> List.filter (fun id -> id <> a && is_movable.(id))
              in
              match cands with
              | [] -> pick ()
              | l -> List.nth l (Random.State.int rng (List.length l))
            end
            else pick ()
          in
          if Array.exists (fun net -> Array.mem a net && Array.mem b net) nets
          then incr shared;
          if Random.State.bool rng then W.touch_pair_registered st a b
          else W.touch_pair_ascending st a b;
          let ax = xs.(a) and ay = ys.(a) in
          xs.(a) <- xs.(b);
          ys.(a) <- ys.(b);
          xs.(b) <- ax;
          ys.(b) <- ay;
          fun () ->
            xs.(b) <- xs.(a);
            ys.(b) <- ys.(a);
            xs.(a) <- ax;
            ys.(a) <- ay
    in
    let before = W.total st in
    let d = W.delta st in
    close (Printf.sprintf "step %d: delta = fresh change" step)
      (W.cost m pl -. before) d;
    if Random.State.int rng 4 = 0 then restore () else W.commit st;
    close (Printf.sprintf "step %d: incremental total = fresh" step)
      (W.cost m pl) (W.total st)
  done;
  (!doubled, !shared)

let test_bbox_incremental_consistency () =
  let _, shared = wirecost_consistency (small_placement ()) in
  Alcotest.(check bool) "swaps of movers sharing a net" true (shared > 0);
  let doubled, shared = wirecost_consistency (doubled_pin_placement ()) in
  Alcotest.(check bool) "moves of a node listed twice on a net" true
    (doubled > 0);
  Alcotest.(check bool) "swaps sharing a net (doubled pins)" true (shared > 0)

let test_anneal_still_improves () =
  (* The incremental annealer on a scattered placement: cost must drop and
     its final cost must equal a fresh full recomputation. *)
  let pl = small_placement () in
  Global.place ~seed:7 pl;
  let before = Placement.hpwl pl in
  let stats = Anneal.refine ~iterations:20000 ~seed:11 pl in
  let after = Placement.hpwl pl in
  Alcotest.(check bool)
    (Printf.sprintf "anneal improves (%.0f -> %.0f)" before after)
    true (after <= before);
  Alcotest.(check bool) "accepted some moves" true (stats.Anneal.accepted > 0)

(* --- Parallel sweep determinism --------------------------------------- *)

let check_rows_identical r1 r2 =
  let check_outcome label (a : Flow.outcome) (b : Flow.outcome) =
    Alcotest.(check (float 0.0)) (label ^ " die area") a.Flow.die_area b.Flow.die_area;
    Alcotest.(check (float 0.0)) (label ^ " wns") a.Flow.wns b.Flow.wns;
    Alcotest.(check (float 0.0)) (label ^ " wirelength") a.Flow.wirelength b.Flow.wirelength;
    Alcotest.(check (float 0.0)) (label ^ " slack") a.Flow.avg_top10_slack b.Flow.avg_top10_slack;
    Alcotest.(check int) (label ^ " tiles") a.Flow.tiles_used b.Flow.tiles_used;
    Alcotest.(check bool) (label ^ " config histogram") true
      (a.Flow.config_histogram = b.Flow.config_histogram)
  in
  List.iter2
    (fun (r1 : Experiments.row) (r2 : Experiments.row) ->
      Alcotest.(check string) "design" r1.Experiments.name r2.Experiments.name;
      List.iter2
        (fun ((p1 : Flow.pair), tag) ((p2 : Flow.pair), _) ->
          check_outcome (r1.Experiments.name ^ "/" ^ tag ^ "/a") p1.Flow.a p2.Flow.a;
          check_outcome (r1.Experiments.name ^ "/" ^ tag ^ "/b") p1.Flow.b p2.Flow.b)
        [ (r1.Experiments.lut, "lut"); (r1.Experiments.granular, "granular") ]
        [ (r2.Experiments.lut, "lut"); (r2.Experiments.granular, "granular") ])
    r1 r2

let test_run_all_jobs_deterministic () =
  let sequential = Experiments.run_all ~seed:1 ~jobs:1 Experiments.Test in
  let parallel = Experiments.run_all ~seed:1 ~jobs:4 Experiments.Test in
  check_rows_identical sequential parallel

let () =
  Alcotest.run "vpga_par"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_results_in_submission_order;
          Alcotest.test_case "more jobs than tasks" `Quick test_more_jobs_than_tasks;
          Alcotest.test_case "jobs=1 inline" `Quick test_sequential_jobs1;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "reuse and shutdown" `Quick test_pool_reuse_and_shutdown;
          Alcotest.test_case "sibling isolation" `Quick test_sibling_isolation;
          Alcotest.test_case "try_run captures per task" `Quick
            test_try_run_captures;
          Alcotest.test_case "bounded-queue backpressure" `Quick
            test_bounded_queue_backpressure;
        ] );
      ( "incremental hpwl",
        [
          Alcotest.test_case "bbox = scan" `Quick test_bbox_matches_scan;
          Alcotest.test_case "random-move consistency" `Quick
            test_bbox_incremental_consistency;
          Alcotest.test_case "anneal improves" `Quick test_anneal_still_improves;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "run_all jobs=1 == jobs=4" `Slow
            test_run_all_jobs_deterministic;
        ] );
    ]
