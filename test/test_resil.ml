(* Tests for the resilience layer: the typed-failure / policy / recovery-log
   plumbing, the seeded fault-injection harness (every corruption must be
   caught by vpga_verify, with zero silent pass-throughs), the flow's
   retry-with-escalation ladders (routing capacity, anneal restarts), sweep
   fault isolation, and determinism under retries (a retried flow stays
   byte-identical whatever [jobs] is). *)

module Netlist = Vpga_netlist.Netlist
module Equiv = Vpga_netlist.Equiv
module Arch = Vpga_plb.Arch
module Compact = Vpga_mapper.Compact
module Buffering = Vpga_place.Buffering
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Quadrisect = Vpga_pack.Quadrisect
module Pathfinder = Vpga_route.Pathfinder
module Diag = Vpga_verify.Diag
module Lint = Vpga_verify.Lint
module Cec = Vpga_verify.Cec
module Phys = Vpga_verify.Phys
module Fail = Vpga_resil.Fail
module Policy = Vpga_resil.Policy
module Log = Vpga_resil.Log
module Retry = Vpga_resil.Retry
module Inject = Vpga_resil.Inject
module Flow = Vpga_flow.Flow
module Experiments = Vpga_flow.Experiments
open Vpga_designs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let has_diag code f =
  List.exists (fun (d : Diag.t) -> d.Diag.code = code) f.Fail.diags

(* --- policy / log / retry / fail plumbing ------------------------------ *)

let test_policy_names () =
  Alcotest.(check int) "strict is one attempt" 1 Policy.strict.Policy.max_attempts;
  Alcotest.(check bool) "default retries" true
    (Policy.default.Policy.max_attempts > 1)

let test_log_recorder () =
  let log = Log.create () in
  Log.record log (Log.Retry { stage = "s"; attempt = 1; reason = "r" });
  Log.record log (Log.Escalation { stage = "s"; what = "w" });
  Log.record log (Log.Degraded { stage = "s"; what = "d" });
  (match Log.events log with
  | [ Log.Retry { attempt = 1; _ }; Log.Escalation _; Log.Degraded _ ] -> ()
  | _ -> Alcotest.fail "events must come back oldest first");
  let s = Log.summary log in
  Alcotest.(check int) "retries" 1 s.Log.retries;
  Alcotest.(check int) "escalations" 1 s.Log.escalations;
  Alcotest.(check int) "degraded" 1 s.Log.degraded;
  Alcotest.(check int) "add" 2 (Log.add s s).Log.retries;
  Alcotest.(check (list string))
    "rendered trail"
    [ "retry s (attempt 1): r"; "escalate s: w"; "degrade s: d" ]
    (Log.strings log)

(* The ladder driver on stub attempts: the rung is an integer knob,
   escalated by one per retry. *)
let int_rung k () = (k + 1, Printf.sprintf "knob %d -> %d" k (k + 1))

let driver ?(max_attempts = 4) ?(next = int_rung) ~exhausted ~log attempt =
  Retry.run ~log ~stage:"st" ~design:"d" ~max_attempts ~next ~exhausted
    attempt 0

let never_exhausted _ () = Alcotest.fail "ladder must not be exhausted"

let test_ladder_success () =
  let log = Log.create () in
  let v =
    driver ~log ~exhausted:never_exhausted (fun attempt knob ->
        Alcotest.(check int) "attempt i runs rung i" attempt knob;
        if attempt < 2 then Error (Printf.sprintf "nope %d" attempt, ())
        else Ok (knob * 10))
  in
  Alcotest.(check int) "succeeds on attempt 2" 20 v;
  Alcotest.(check (list string))
    "one retry + escalation per failed attempt"
    [
      "retry st (attempt 1): nope 0";
      "escalate st: knob 0 -> 1";
      "retry st (attempt 2): nope 1";
      "escalate st: knob 1 -> 2";
    ]
    (Log.strings log)

let test_ladder_fatal () =
  let log = Log.create () in
  match
    driver ~log
      ~exhausted:(fun reason () ->
        Retry.Fatal (Diag.error "retries-exhausted" "%s" reason))
      (fun attempt _ -> Error (Printf.sprintf "always %d" attempt, ()))
  with
  | (_ : int) -> Alcotest.fail "exhaustion must raise"
  | exception Fail.Stage_failure f ->
      Alcotest.(check string) "stage" "st" f.Fail.stage;
      Alcotest.(check string) "design" "d" f.Fail.design;
      Alcotest.(check int) "attempts = max_attempts" 4 f.Fail.attempts;
      Alcotest.(check (list string))
        "typed diag carries the last reason"
        [ "error(retries-exhausted): always 3" ]
        (List.map Diag.to_string f.Fail.diags);
      Alcotest.(check (list string))
        "full event trail carried"
        [
          "retry st (attempt 1): always 0";
          "escalate st: knob 0 -> 1";
          "retry st (attempt 2): always 1";
          "escalate st: knob 1 -> 2";
          "retry st (attempt 3): always 2";
          "escalate st: knob 2 -> 3";
        ]
        f.Fail.events

let test_ladder_degrade () =
  let log = Log.create () in
  let v =
    driver ~log ~max_attempts:2
      ~exhausted:(fun reason () -> Retry.Degrade (reason ^ "; fallback", -1))
      (fun _ _ -> Error ("stuck", ()))
  in
  Alcotest.(check int) "fallback value" (-1) v;
  Alcotest.(check (list string))
    "retries, then one degrade"
    [
      "retry st (attempt 1): stuck";
      "escalate st: knob 0 -> 1";
      "degrade st: stuck; fallback";
    ]
    (Log.strings log)

let test_reseed () =
  Alcotest.(check int) "attempt 0 is the seed itself" 42
    (Retry.reseed ~seed:42 ~attempt:0);
  let s1 = Retry.reseed ~seed:42 ~attempt:1 in
  let s2 = Retry.reseed ~seed:42 ~attempt:2 in
  Alcotest.(check bool) "attempts step" true (s1 <> 42 && s2 <> 42 && s1 <> s2);
  Alcotest.(check bool) "stays in 30 bits" true
    (s1 >= 0 && s1 land 0x3FFFFFFF = s1)

let test_fail_adoption () =
  let f = Fail.of_exn ~stage:"s" ~design:"d" ~attempts:2 (Failure "boom") in
  Alcotest.(check bool) "Failure adopted" true (has_diag "stage-failed" f);
  let g = Fail.of_exn ~stage:"other" ~design:"x" ~attempts:9 (Fail.Stage_failure f) in
  Alcotest.(check string) "payload passes through" "s" g.Fail.stage;
  let h = Fail.of_exn ~stage:"s" ~design:"d" ~attempts:1 Exit in
  Alcotest.(check bool) "raw exception adopted" true (has_diag "stage-exception" h);
  Alcotest.(check bool) "message counts attempts" true
    (contains (Fail.to_string f) "after 2 attempts")

let test_fit_error_message () =
  (* Satellite: the fit guard must name the design, the dims it tried and
     the residual unplaced count — not just "design does not fit". *)
  let fe = { Quadrisect.design = "widget"; dims_tried = [ 4; 5; 7 ]; unplaced = 3 } in
  let msg = Quadrisect.fit_error_to_string fe in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in message") true (contains msg needle))
    [ "widget"; "3 item(s)"; "7x7"; "4x4, 5x5, 7x7" ]

(* --- fault injection: every corruption is caught ----------------------- *)

(* One packed + routed ALU shared by the physical injections (the same
   fixture shape test_verify uses). *)
let packed =
  lazy
    (let nl = Alu.build ~width:4 () in
     let arch = Arch.granular_plb in
     let buffered = Buffering.insert ~max_fanout:8 (Compact.run arch nl) in
     let pl = Placement.create buffered in
     Global.place ~seed:3 pl;
     let q = Quadrisect.legalize arch pl in
     let pl = Quadrisect.snap q pl in
     (buffered, pl, q))

let inject_seeds = [ 1; 2; 3; 4; 5 ]

let test_inject_netlist () =
  let reference = Alu.build ~width:2 () in
  let nl = Alu.build ~width:2 () in
  List.iter
    (fun seed ->
      let fault = Inject.netlist_flip ~seed nl in
      (* The SAT-based checker is complete, so any silent pass-through of a
         live-cone rewire here is a real verification hole. *)
      let caught =
        Diag.has_errors (Lint.run nl)
        ||
        match Cec.check reference nl with
        | Cec.Inequivalent _ -> true
        | Cec.Equivalent -> false
      in
      Alcotest.(check bool) (fault.Inject.what ^ " caught") true caught;
      fault.Inject.undo ();
      match Cec.check reference nl with
      | Cec.Equivalent -> ()
      | Cec.Inequivalent _ -> Alcotest.fail "undo must restore the netlist")
    inject_seeds

let test_inject_placement () =
  let _, pl, _ = Lazy.force packed in
  let clean () = not (Diag.has_errors (Phys.check_placement pl)) in
  Alcotest.(check bool) "fixture is clean" true (clean ());
  List.iter
    (fun seed ->
      let fault = Inject.placement_unplace ~seed pl in
      Alcotest.(check bool) (fault.Inject.what ^ " caught") true
        (Diag.has_code "unplaced" (Phys.check_placement pl));
      fault.Inject.undo ();
      Alcotest.(check bool) "undo restores" true (clean ());
      let fault = Inject.placement_offdie ~seed pl in
      Alcotest.(check bool) (fault.Inject.what ^ " caught") true
        (Diag.has_code "outside-die" (Phys.check_placement pl));
      fault.Inject.undo ();
      Alcotest.(check bool) "undo restores" true (clean ()))
    inject_seeds

let test_inject_packing () =
  let buffered, _, q = Lazy.force packed in
  let clean () = not (Diag.has_errors (Phys.check_packing q buffered)) in
  Alcotest.(check bool) "fixture is clean" true (clean ());
  List.iter
    (fun seed ->
      let fault = Inject.packing_uncover ~seed q in
      Alcotest.(check bool) (fault.Inject.what ^ " caught") true
        (Diag.has_code "uncovered" (Phys.check_packing q buffered));
      fault.Inject.undo ();
      Alcotest.(check bool) "undo restores" true (clean ());
      let fault = Inject.packing_overfill ~seed q buffered in
      Alcotest.(check bool) (fault.Inject.what ^ " caught") true
        (Diag.has_code "tile-overflow" (Phys.check_packing q buffered));
      fault.Inject.undo ();
      Alcotest.(check bool) "undo restores" true (clean ()))
    inject_seeds

let test_inject_routing () =
  let _, pl, _ = Lazy.force packed in
  let routed = ref (Pathfinder.route_placement pl) in
  let pristine = !routed in
  Alcotest.(check bool) "fixture routes cleanly" false
    (Diag.has_errors (Phys.check_routing !routed pl));
  List.iter
    (fun seed ->
      let fault = Inject.route_drop_edge ~seed routed in
      let ds = Phys.check_routing !routed pl in
      Alcotest.(check bool) (fault.Inject.what ^ " caught") true
        (Diag.has_code "route-disconnected" ds || Diag.has_code "route-forest" ds);
      fault.Inject.undo ();
      Alcotest.(check bool) (fault.Inject.what ^ " undone") true
        (!routed == pristine))
    inject_seeds

(* --- retry-with-escalation ladders ------------------------------------- *)

let test_route_escalation_heals () =
  (* Start the router at channel capacity 1: the first attempt overflows
     and the ladder must widen the channel until detailed routing succeeds
     (vias >= 0 proves the run healed rather than degraded). *)
  let nl = Alu.build ~width:2 () in
  let policy =
    { Policy.default with Policy.route_capacity = Some 1; max_attempts = 6 }
  in
  let log = Log.create () in
  let pair =
    Flow.run ~seed:3 ~anneal_iterations:1_000 ~policy ~log Arch.granular_plb nl
  in
  Alcotest.(check bool) "flow completes" true (pair.Flow.a.Flow.die_area > 0.0);
  Alcotest.(check bool) "detailed routing ran (flow a)" true
    (pair.Flow.a.Flow.routed_vias >= 0);
  Alcotest.(check bool) "detailed routing ran (flow b)" true
    (pair.Flow.b.Flow.routed_vias >= 0);
  Alcotest.(check (list string))
    "exact recovery trail"
    [
      "retry route:a (attempt 1): 132 unit(s) of channel overflow left \
       after 30 rip-up iteration(s)";
      "escalate route:a: channel capacity 1 -> 2, rip-up iterations 30 -> 40";
      "retry route:a (attempt 2): 44 unit(s) of channel overflow left after \
       40 rip-up iteration(s)";
      "escalate route:a: channel capacity 2 -> 3, rip-up iterations 40 -> 50";
      "retry route:b (attempt 1): 97 unit(s) of channel overflow left after \
       30 rip-up iteration(s)";
      "escalate route:b: channel capacity 1 -> 2, rip-up iterations 30 -> 40";
      "retry route:b (attempt 2): 17 unit(s) of channel overflow left after \
       40 rip-up iteration(s)";
      "escalate route:b: channel capacity 2 -> 3, rip-up iterations 40 -> 50";
      "retry route:b (attempt 3): 1 unit(s) of channel overflow left after \
       50 rip-up iteration(s)";
      "escalate route:b: channel capacity 3 -> 5, rip-up iterations 50 -> 60";
    ]
    (Log.strings log)

let test_route_degrade () =
  (* Capacity 1 and two attempts: one escalation cannot buy enough
     channel, so each route stage retries once and then degrades
     (detailed routing skipped, vias = -1) instead of failing the flow. *)
  let nl = Alu.build ~width:2 () in
  let policy =
    { Policy.default with Policy.route_capacity = Some 1; max_attempts = 2 }
  in
  let log = Log.create () in
  let pair =
    Flow.run ~seed:3 ~anneal_iterations:1_000 ~policy ~log Arch.granular_plb nl
  in
  Alcotest.(check int) "flow a degraded" (-1) pair.Flow.a.Flow.routed_vias;
  Alcotest.(check int) "flow b degraded" (-1) pair.Flow.b.Flow.routed_vias;
  Alcotest.(check (list string))
    "exact recovery trail"
    [
      "retry route:a (attempt 1): 132 unit(s) of channel overflow left \
       after 30 rip-up iteration(s)";
      "escalate route:a: channel capacity 1 -> 2, rip-up iterations 30 -> 40";
      "degrade route:a: 44 unit(s) of channel overflow left after 40 \
       rip-up iteration(s); detailed routing skipped";
      "retry route:b (attempt 1): 97 unit(s) of channel overflow left after \
       30 rip-up iteration(s)";
      "escalate route:b: channel capacity 1 -> 2, rip-up iterations 30 -> 40";
      "degrade route:b: 17 unit(s) of channel overflow left after 40 \
       rip-up iteration(s); detailed routing skipped";
    ]
    (Log.strings log)

let test_anneal_restart () =
  (* An absurd starting temperature turns the annealer into a random walk
     whose final cost exceeds its starting cost; the policy must restore
     the pre-anneal placement and restart cooler (1e9 * 1e-9 = 1.0). *)
  let nl = Alu.build ~width:2 () in
  let policy =
    {
      Policy.default with
      Policy.anneal_t_start = Some 1e9;
      anneal_cooling = 1e-9;
      max_attempts = 3;
    }
  in
  let log = Log.create () in
  let pair =
    Flow.run ~seed:3 ~anneal_iterations:2_000 ~policy ~log Arch.granular_plb nl
  in
  Alcotest.(check bool) "flow completes" true (pair.Flow.a.Flow.die_area > 0.0);
  Alcotest.(check (list string))
    "exact recovery trail"
    [
      "retry place:anneal (attempt 1): annealing cost diverged (4648 -> 6966)";
      "escalate place:anneal: restart with derived reseed at t_start 1";
    ]
    (Log.strings log)

(* --- sweep fault isolation --------------------------------------------- *)

let test_sweep_isolation () =
  (* One design is corrupted (an undriven flop drives a primary output):
     its two tasks must come back as typed failure records while the
     healthy design's tasks complete. *)
  let good = Alu.build ~width:2 () in
  let bad = Alu.build ~width:2 () in
  ignore (Netlist.output bad "bad_q" (Netlist.dff bad));
  let reports =
    Experiments.run_tasks ~seed:1 ~jobs:2
      ~designs:[ ("Good", good); ("Bad", bad) ]
      Experiments.Test
  in
  Alcotest.(check int) "2 designs x 2 archs" 4 (List.length reports);
  List.iter
    (fun (r : Experiments.task_report) ->
      match (r.Experiments.t_design, r.Experiments.t_result) with
      | "Good", Ok pair ->
          Alcotest.(check bool) "healthy task completed" true
            (pair.Flow.a.Flow.die_area > 0.0)
      | "Good", Error f ->
          Alcotest.fail ("healthy task failed: " ^ Fail.to_string f)
      | "Bad", Error f ->
          Alcotest.(check bool) "failure names a verify stage" true
            (contains f.Fail.stage "verify:");
          Alcotest.(check bool) "failure carries diagnostics" true
            (f.Fail.diags <> [])
      | "Bad", Ok _ -> Alcotest.fail "corrupted design passed verification"
      | d, _ -> Alcotest.fail ("unexpected design " ^ d))
    reports

(* --- determinism under retries ----------------------------------------- *)

let check_outcomes_identical label (a : Flow.outcome) (b : Flow.outcome) =
  Alcotest.(check (float 0.0)) (label ^ " die area") a.Flow.die_area b.Flow.die_area;
  Alcotest.(check (float 0.0)) (label ^ " wns") a.Flow.wns b.Flow.wns;
  Alcotest.(check (float 0.0)) (label ^ " wirelength") a.Flow.wirelength b.Flow.wirelength;
  Alcotest.(check (float 0.0)) (label ^ " slack") a.Flow.avg_top10_slack b.Flow.avg_top10_slack;
  Alcotest.(check int) (label ^ " tiles") a.Flow.tiles_used b.Flow.tiles_used;
  Alcotest.(check int) (label ^ " vias") a.Flow.routed_vias b.Flow.routed_vias;
  Alcotest.(check bool) (label ^ " config histogram") true
    (a.Flow.config_histogram = b.Flow.config_histogram)

let test_determinism_under_retries () =
  (* Force both survivable ladders — routing escalations (capacity 1) and
     anneal restarts (absurd t_start) — and require the sweep to stay
     byte-identical between jobs=1 and jobs=4, recovery counters included. *)
  let policy =
    {
      Policy.route_capacity = Some 1;
      max_attempts = 6;
      anneal_t_start = Some 1e9;
      anneal_cooling = 1e-9;
    }
  in
  let designs =
    [ ("ALU2", Alu.build ~width:2 ()); ("ALU4", Alu.build ~width:4 ()) ]
  in
  let sweep jobs =
    Experiments.run_tasks ~seed:1 ~jobs ~policy ~designs Experiments.Test
  in
  let sequential = sweep 1 in
  let parallel = sweep 4 in
  List.iter2
    (fun (r1 : Experiments.task_report) (r2 : Experiments.task_report) ->
      Alcotest.(check string) "design" r1.Experiments.t_design r2.Experiments.t_design;
      let label = r1.Experiments.t_design ^ "/" ^ r1.Experiments.t_arch.Arch.name in
      (match (r1.Experiments.t_result, r2.Experiments.t_result) with
      | Ok p1, Ok p2 ->
          check_outcomes_identical (label ^ "/a") p1.Flow.a p2.Flow.a;
          check_outcomes_identical (label ^ "/b") p1.Flow.b p2.Flow.b
      | _ -> Alcotest.fail (label ^ ": forced sweep must still complete"));
      let s1 = r1.Experiments.t_recovery and s2 = r2.Experiments.t_recovery in
      Alcotest.(check int) (label ^ " retries") s1.Log.retries s2.Log.retries;
      Alcotest.(check int) (label ^ " escalations") s1.Log.escalations s2.Log.escalations;
      Alcotest.(check int) (label ^ " degraded") s1.Log.degraded s2.Log.degraded)
    sequential parallel;
  (* The comparison is only meaningful if retries actually happened. *)
  let total = Experiments.recovery sequential in
  Alcotest.(check bool) "ladders were exercised" true (total.Log.retries >= 2);
  Alcotest.(check bool) "escalations recorded" true (total.Log.escalations >= 1)

let () =
  Alcotest.run "vpga_resil"
    [
      ( "plumbing",
        [
          Alcotest.test_case "policy names" `Quick test_policy_names;
          Alcotest.test_case "log recorder" `Quick test_log_recorder;
          Alcotest.test_case "ladder success" `Quick test_ladder_success;
          Alcotest.test_case "ladder fatal exhaustion" `Quick test_ladder_fatal;
          Alcotest.test_case "ladder degrade" `Quick test_ladder_degrade;
          Alcotest.test_case "reseed" `Quick test_reseed;
          Alcotest.test_case "failure adoption" `Quick test_fail_adoption;
          Alcotest.test_case "fit-error message" `Quick test_fit_error_message;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "netlist flip" `Quick test_inject_netlist;
          Alcotest.test_case "placement" `Quick test_inject_placement;
          Alcotest.test_case "packing" `Quick test_inject_packing;
          Alcotest.test_case "routing" `Quick test_inject_routing;
        ] );
      ( "escalation",
        [
          Alcotest.test_case "route capacity heals" `Quick
            test_route_escalation_heals;
          Alcotest.test_case "route degrade" `Quick test_route_degrade;
          Alcotest.test_case "anneal restart" `Quick test_anneal_restart;
        ] );
      ( "isolation",
        [ Alcotest.test_case "one bad design" `Quick test_sweep_isolation ] );
      ( "determinism",
        [
          Alcotest.test_case "retried sweep jobs=1 == jobs=4" `Slow
            test_determinism_under_retries;
        ] );
    ]
