(* The domain pool (Vpga_par.Pool), the incremental wirelength cost model
   behind both annealers (Vpga_place.Wirecost), and the parallel-sweep
   determinism contract: the sweep (Experiments.run_tasks) must return the
   same rows whatever [jobs] is. *)

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

let test_sibling_isolation () =
  (* A raising task fails only itself: every sibling still runs, inline
     and on worker domains alike, and the first failure in submission
     order is the one re-raised (a dead worker would strand the tasks it
     had not yet claimed). *)
  List.iter
    (fun jobs ->
      let ran = Array.make 10 false in
      let tasks =
        List.init 10 (fun i () ->
            ran.(i) <- true;
            if i mod 3 = 1 then raise (Boom (string_of_int i)) else i)
      in
      (match Pool.run ~jobs tasks with
      | _ -> Alcotest.fail "task failure was swallowed"
      | exception Boom msg ->
          Alcotest.(check string) "first failure's payload" "1" msg);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: every task ran" jobs)
        true
        (Array.for_all Fun.id ran))
    [ 1; 4 ]

let test_run_stats () =
  (* One busy slot per worker (min jobs n, also when jobs exceeds the
     task count), one wait sample per task, and the samples sum to the
     aggregate. *)
  List.iter
    (fun (jobs, n) ->
      let results, st =
        Pool.run_stats ~jobs
          (List.init n (fun i () ->
               Unix.sleepf 0.001;
               i))
      in
      let label = Printf.sprintf "jobs=%d n=%d" jobs n in
      Alcotest.(check (list int)) (label ^ " results") (List.init n Fun.id)
        results;
      Alcotest.(check int) (label ^ " tasks") n st.Pool.tasks;
      Alcotest.(check int) (label ^ " busy slots") (min jobs n)
        (Array.length st.Pool.busy_ns);
      Alcotest.(check int) (label ^ " wait samples") n
        (Array.length st.Pool.wait_samples_ns);
      Alcotest.(check bool) (label ^ " waits sum to queue_wait_ns") true
        (Array.fold_left Int64.add 0L st.Pool.wait_samples_ns
        = st.Pool.queue_wait_ns))
    [ (3, 9); (8, 2) ]

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
  let sweep jobs = Experiments.(rows (run_tasks ~seed:1 ~jobs Test)) in
  check_rows_identical (sweep 1) (sweep 4)

let () =
  Alcotest.run "vpga_par"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_results_in_submission_order;
          Alcotest.test_case "more jobs than tasks" `Quick test_more_jobs_than_tasks;
          Alcotest.test_case "jobs=1 inline" `Quick test_sequential_jobs1;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "sibling isolation" `Quick test_sibling_isolation;
          Alcotest.test_case "run_stats accounting" `Quick test_run_stats;
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
