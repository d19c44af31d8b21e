module Netlist = Vpga_netlist.Netlist
module Equiv = Vpga_netlist.Equiv
module Stats = Vpga_netlist.Stats
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact
module Placement = Vpga_place.Placement
module Anneal = Vpga_place.Anneal
module Quadrisect = Vpga_pack.Quadrisect
module Pathfinder = Vpga_route.Pathfinder
module Grid = Vpga_route.Grid
module Detail = Vpga_route.Detail
module Sta = Vpga_timing.Sta
module Power = Vpga_timing.Power
module Lint = Vpga_verify.Lint
module Ownership = Vpga_analysis.Ownership
module Cec = Vpga_verify.Cec
module Phys = Vpga_verify.Phys
module Diag = Vpga_verify.Diag
module Policy = Vpga_resil.Policy
module Retry = Vpga_resil.Retry
module Trace = Vpga_obs.Trace
module Attr = Vpga_obs.Span
module Cache = Vpga_cache.Cache

type kind = Flow_a | Flow_b

type verify = Off | Fast | Formal

type outcome = {
  design : string;
  arch : Arch.t;
  kind : kind;
  die_area : float;
  cell_area : float;
  gate_count : float;
  avg_top10_slack : float;
  wns : float;
  wirelength : float;
  array_dims : (int * int) option;
  tiles_used : int;
  compaction_gain : float;
  config_histogram : (Config.t * int) list;
  displacement : float;
  displacement_tiles : float;
  power_uw : float;  (* total power estimate, uW *)
  routed_vias : int;  (* detailed-routing via count *)
}

type pair = { a : outcome; b : outcome }

let check_equivalence reference candidate =
  (* Compared before simulating: both equivalence checkers reject a
     changed interface with [Invalid_argument]. *)
  let ((ri, ro, rf) as r) = Netlist.interface reference
  and ((ci, co, cf) as c) = Netlist.interface candidate in
  if r <> c then
    [
      Diag.error "interface-changed"
        "stage changed the interface of design %s: source %d PI / %d PO / \
         %d flop(s), candidate %d PI / %d PO / %d flop(s)"
        (Netlist.design_name reference) ri ro rf ci co cf;
    ]
  else
    match
      Equiv.check ~vectors:24 ~sequence_length:6 ~seed:2024 reference candidate
    with
    | Equiv.Equivalent -> []
    | Equiv.Mismatch { cycle; output; _ } ->
        [
          Diag.error "sim-mismatch"
            "flow stage broke design %s (cycle %d, output %d)"
            (Netlist.design_name reference) cycle output;
        ]

(* The paper's 0.5 ns target clock period, ps. *)
let period = 500.0

let run ?(seed = 1) ?anneal_iterations ?(refine = true)
    ?(use_criticality = true) ?(jobs = 1) ?(verify = Fast)
    ?(policy = Policy.default) ?log ?(trace = Trace.null)
    ?trace_labels:_ ?(cache = Cache.none) arch nl =
  (* Every stage key is built in [Stagekey] from the digests of the
     stage's actual inputs, so a cache hit is exactly a rerun of the same
     deterministic computation. *)
  let s =
    Stage.create ~log ~trace ~cache arch nl
      ~opts:
        {
          Stagekey.seed;
          anneal_iterations;
          use_criticality;
          verify = (match verify with Off -> 0 | Fast -> 1 | Formal -> 2);
          policy;
          defect = None;
        }
  in
  let { Stage.design; opts; _ } = s in
  let span ?attrs name f = Stage.span ?attrs s name f in
  let vfast = verify <> Off in
  (* Every verification gate hands its checker's diagnostics to
     [Stage.check]: their errors fail the stage as they are. *)
  let check = Stage.check s in
  (* A front-end gate: structural well-formedness stays live as a per-run
     spot check; functional equivalence against the source — the
     randomized simulation pre-filter, then at [Formal] the SAT proof —
     dominates the span and is cached.  Returns the candidate's digest
     for the downstream keys. *)
  let gate stage candidate =
    let d = Stage.digest candidate in
    span stage (fun () ->
        if vfast then begin
          check stage (Lint.structure candidate);
          Stage.memo s stage
            (fun () ->
              Stagekey.verify_gate ~stage ~source:(Lazy.force s.Stage.d_nl)
                ~candidate:(Lazy.force d) opts)
            (fun () ->
              check stage (check_equivalence nl candidate);
              if verify = Formal then check stage (Cec.prove nl candidate))
        end);
    d
  in
  let phys stage diags =
    if vfast then span stage (fun () -> check stage (diags ()))
  in
  let body () =
  span "verify:input" (fun () ->
      if vfast then check "verify:input" (Lint.run nl));
  let gate_count = Stats.gate_count nl in
  (* Front-end: map, compact, buffer, each gated against the source. *)
  let mapped =
    Stage.run s "map"
      (fun () ->
        Stagekey.map ~nl:(Lazy.force s.Stage.d_nl)
          ~arch:(Lazy.force s.Stage.d_arch) opts)
      (fun () -> Techmap.map arch nl)
  in
  ignore (gate "verify:techmap" mapped);
  let compacted, compaction_gain =
    span "compact" (fun () ->
        let compacted = Stage.compact s in
        let before = Techmap.cell_area mapped in
        ( compacted,
          if before <= 0.0 then 0.0
          else 1.0 -. (Techmap.cell_area compacted /. before) ))
  in
  let d_compacted = gate "verify:compact" compacted in
  let buffered, cell_area, config_histogram =
    span "buffer" (fun () ->
        let buffered = Stage.buffer s compacted d_compacted in
        ( buffered,
          Techmap.cell_area buffered,
          Compact.config_histogram buffered ))
  in
  let d_buffered = gate "verify:buffer" buffered in
  Trace.set trace "flow.gate_count" gate_count;
  Trace.set trace "flow.cells" (float_of_int (Netlist.size buffered));
  (* Placement (shared by both flows). *)
  let pl =
    span "place:global" (fun () -> Stage.place_global s buffered d_buffered)
  in
  let d_pl_global = Stage.placement_hex s pl in
  (* Criticality from a pre-route timing estimate. *)
  let crit =
    span "sta:pre" (fun () ->
        if use_criticality then Sta.criticality (Sta.run ~period buffered)
        else Array.make (Netlist.size buffered) 0.0)
  in
  let iterations =
    match anneal_iterations with
    | Some i -> Some i
    | None -> Some (min 400_000 (40 * Netlist.size buffered))
  in
  (* Annealing with divergence detection: if a walk ends above its
     starting cost, restore the pre-anneal placement and restart with a
     derived reseed at a cooler temperature; attempt 0 reproduces the
     policy-free flow exactly.  Exhaustion is survivable — the pre-anneal
     (global) placement is already legal, so the flow continues on it. *)
  span "place:anneal" (fun () ->
      let stage = "place:anneal" in
      Stage.memo_coords s stage
        (fun () ->
          Stagekey.place_anneal ~buffered:(Lazy.force d_buffered)
            ~pl:d_pl_global opts)
        pl
      @@ fun () ->
      Stage.ladder s ~stage ~max_attempts:policy.Policy.max_attempts
        ~next:(fun t_start () ->
          let t' =
            match t_start with
            | Some t -> t *. policy.Policy.anneal_cooling
            | None -> 1.0 (* restart well below the adaptive default *)
          in
          ( Some t',
            Printf.sprintf "restart with derived reseed at t_start %.3g" t' ))
        ~exhausted:(fun reason () ->
          Retry.Degrade (reason ^ "; keeping the pre-anneal placement", ()))
        (fun attempt t_start ->
          let sx = Array.copy pl.Placement.x
          and sy = Array.copy pl.Placement.y in
          let stats =
            Anneal.refine ?iterations ~criticality:crit ?t_start
              ~seed:(Retry.reseed ~seed:(seed + 1) ~attempt)
              pl
          in
          if stats.Anneal.final_cost <= stats.Anneal.initial_cost then Ok ()
          else begin
            Array.blit sx 0 pl.Placement.x 0 (Array.length sx);
            Array.blit sy 0 pl.Placement.y 0 (Array.length sy);
            Error
              ( Printf.sprintf "annealing cost diverged (%.0f -> %.0f)"
                  stats.Anneal.initial_cost stats.Anneal.final_cost,
                () )
          end)
        policy.Policy.anneal_t_start);
  phys "verify:placement(a)" (fun () -> Phys.check_placement pl);
  let d_pl = Stage.placement_hex s pl in
  let activities =
    Stage.run s "power:activities"
      (fun () -> Stagekey.activities ~buffered:(Lazy.force d_buffered) opts)
      (fun () -> Power.activities ~seed:(seed + 7) buffered)
  in
  (* Global + detailed routing under the escalation ladder, cached as
     one entry per placement: leftover channel overflow or a
     track-assignment conflict buys the next attempt a channel x1.5 wider
     (at least one track more) and 10 more rip-up iterations.  Exhaustion
     with overflow degrades (detailed routing is skipped, vias = -1);
     exhaustion on a track conflict is fatal. *)
  let route tag pl d_pl =
    let stage = "route:" ^ tag in
    Stage.run s stage
      (fun () ->
        Stagekey.route ~tag ~buffered:(Lazy.force d_buffered) ~pl:d_pl opts)
    @@ fun () ->
    Stage.ladder s ~stage ~max_attempts:policy.Policy.max_attempts
      ~next:(fun (_, iters) (routed, _) ->
        let base = routed.Pathfinder.grid.Grid.capacity in
        let cap =
          max (base + 1) (int_of_float (ceil (float_of_int base *. 1.5)))
        in
        let iters' = iters + 10 in
        ( (Some cap, iters'),
          Printf.sprintf "channel capacity %d -> %d, rip-up iterations %d -> %d"
            base cap iters iters' ))
      ~exhausted:(fun reason (routed, conflict) ->
        if conflict then Retry.Fatal (Diag.error "track-overflow" "%s" reason)
        else Retry.Degrade (reason ^ "; detailed routing skipped", (routed, -1)))
      (fun _ (capacity, max_iterations) ->
        let routed = Pathfinder.route_placement ?capacity ~max_iterations pl in
        if routed.Pathfinder.final_overflow > 0 then
          Error
            ( Printf.sprintf
                "%d unit(s) of channel overflow left after %d rip-up \
                 iteration(s)"
                routed.Pathfinder.final_overflow routed.Pathfinder.iterations,
              (routed, false) )
        else
          match
            span "route:detail" (fun () ->
                Detail.run_result routed.Pathfinder.grid
                  routed.Pathfinder.routes)
          with
          | Ok d ->
              phys
                (Printf.sprintf "verify:tracks(%s)" tag)
                (fun () -> Phys.check_tracks d routed.Pathfinder.routes);
              Ok (routed, d.Detail.total_vias)
          | Error reason -> Error (reason, (routed, true)))
      (policy.Policy.route_capacity, 30)
  in
  (* Route, check and time one flow's placement; the outcome's physical
     fields are flow a's (die = the placement's own die), which flow b
     overrides with its array's. *)
  let back_end kind tag pl d_pl =
    let routed, vias = route tag pl d_pl in
    phys
      (Printf.sprintf "verify:routing(%s)" tag)
      (fun () -> Phys.check_routing routed pl);
    let wire, sta =
      span ("sta:" ^ tag) (fun () ->
          let wire = Pathfinder.wire_loads routed in
          (wire, Sta.run ~period ~wire buffered))
    in
    let power =
      span ("power:" ^ tag) (fun () ->
          Power.estimate ~period ~wire ~activities buffered)
    in
    {
      design;
      arch;
      kind;
      die_area = pl.Placement.die_w *. pl.Placement.die_h;
      cell_area;
      gate_count;
      avg_top10_slack = Sta.average_top_slack sta 10;
      wns = sta.Sta.wns;
      wirelength = Pathfinder.total_wirelength routed;
      array_dims = None;
      tiles_used = 0;
      compaction_gain;
      config_histogram;
      displacement = 0.0;
      displacement_tiles = 0.0;
      power_uw = power.Power.total_uw;
      routed_vias = vias;
    }
  in
  (* ---- Flow a: ASIC-style ---- *)
  let outcome_a = back_end Flow_a "a" pl d_pl in
  (* ---- Flow b: pack into the PLB array ---- *)
  let q =
    span "pack:quadrisect" (fun () ->
        Stage.pack s ~stage:"pack:quadrisect" ~key:Stagekey.quadrisect
          ~criticality:(Some crit) d_buffered pl d_pl)
  in
  phys "verify:packing" (fun () -> Phys.check_packing q buffered);
  let pl_b = span "pack:snap" (fun () -> Quadrisect.snap q pl) in
  (* The paper's packing <-> physical-synthesis iteration: refine tile
     assignments under the criticality-weighted wirelength cost. *)
  if refine then begin
    (* Region grid: a fixed function of the array dims (never of [jobs],
       which only bounds worker domains), so refinement is reproducible
       at any parallelism.  Small arrays stay on the single-region
       reference walk. *)
    let regions =
      if min q.Quadrisect.cols q.Quadrisect.rows >= 12 then 2 else 1
    in
    (* Static ownership proof on this packing and region grid before the
       walks run: a decomposition bug surfaces as a structured diagnostic
       here instead of a silent cross-region race. *)
    phys "verify:regions" (fun () ->
        (Ownership.check ~regions q).Ownership.diags);
    span "pack:refine" (fun () ->
        (* [Refine.run] mutates exactly the tile assignment and the
           snapped coordinates, so that triple is the cached value. *)
        let stage = "pack:refine" in
        let tiles, rx, ry =
          Stage.memo s stage
            (fun () ->
              Stagekey.refine ~buffered:(Lazy.force d_buffered)
                ~q:(Stagekey.quad_hex q) opts)
            (fun () ->
              (try
                 ignore
                   (Vpga_pack.Refine.run ~criticality:crit ~seed:(seed + 2)
                      ~iterations:(min 400_000 (60 * Netlist.size buffered))
                      ~jobs ~regions q pl_b)
               with Vpga_pack.Refine.Infeasible msg ->
                 Stage.fail s stage [ Diag.error "pack-infeasible" "%s" msg ]);
              (q.Quadrisect.tile_of_node, pl_b.Placement.x, pl_b.Placement.y))
        in
        Stage.revive tiles q.Quadrisect.tile_of_node;
        Stage.revive rx pl_b.Placement.x;
        Stage.revive ry pl_b.Placement.y)
  end;
  phys "verify:placement(b)" (fun () -> Phys.check_placement pl_b);
  let outcome_b =
    {
      (back_end Flow_b "b" pl_b (Stage.placement_hex s pl_b)) with
      die_area = Quadrisect.array_area q;
      array_dims = Some (q.Quadrisect.cols, q.Quadrisect.rows);
      tiles_used = q.Quadrisect.tiles_used;
      displacement = q.Quadrisect.displacement;
      displacement_tiles = q.Quadrisect.mean_displacement_tiles;
    }
  in
  { a = outcome_a; b = outcome_b }
  in
  Fun.protect
    ~finally:(fun () -> Stage.recovery_instants s)
    (fun () ->
      span "flow"
        ~attrs:
          [
            ("design", Attr.Str design);
            ("arch", Attr.Str arch.Arch.name);
            ("seed", Attr.Int seed);
          ]
        body)
