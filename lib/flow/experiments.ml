module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Packer = Vpga_plb.Packer
module Full_adder = Vpga_plb.Full_adder
module S3 = Vpga_logic.S3
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact
open Vpga_designs

type scale = Test | Paper

let designs scale =
  match scale with
  | Test ->
      [
        ("ALU", Alu.build ~width:8 ());
        ("Firewire", Firewire.build ~data_bits:16 ());
        ("FPU", Fpu.build ~exp_bits:5 ~mant_bits:8 ());
        ("Network switch", Netswitch.build ~ports:4 ~width:8 ());
      ]
  | Paper ->
      [
        ("ALU", Alu.build ~width:32 ());
        ("Firewire", Firewire.build ~data_bits:32 ());
        ("FPU", Fpu.build ~exp_bits:8 ~mant_bits:24 ());
        ("Network switch", Netswitch.build ~ports:8 ~width:48 ());
      ]

type row = { name : string; lut : Flow.pair; granular : Flow.pair }

type task_report = {
  t_design : string;
  t_arch : Arch.t;
  t_result : (Flow.pair, Vpga_resil.Fail.t) result;
  t_recovery : Vpga_resil.Log.summary;
  t_trace : Vpga_obs.Trace.t;
}

(* Each (design, arch) flow run is an independent task with its own RNG
   seed derived from the task identity — never from a shared Random.State
   or from submission order — so the sweep's results do not depend on how
   many workers execute it or in what order tasks complete. *)
let task_seed ~seed name arch =
  let mix h k = (h * 65599) + k in
  let h = ref (mix 0 seed) in
  String.iter (fun c -> h := mix !h (Char.code c)) name;
  String.iter (fun c -> h := mix !h (Char.code c)) arch.Arch.name;
  !h land 0x3FFFFFFF

let run_tasks_with_stats ?(seed = 1) ?jobs ?verify ?policy ?(traced = false)
    ?cache ?designs:ds scale =
  (* Populate every shared lazy table from this domain before workers
     race for them (Lazy.force is not domain-safe in OCaml 5). *)
  Config.prewarm ();
  let ds = match ds with Some ds -> ds | None -> designs scale in
  let specs =
    List.concat_map
      (fun (name, nl) ->
        List.map
          (fun arch -> (name, nl, arch))
          [ Arch.lut_plb; Arch.granular_plb ])
      ds
  in
  let tasks =
    List.mapi
      (fun i (name, nl, arch) () ->
        let result, log, trace =
          Stage.isolate ~traced ~tid:i ~label:(name ^ "/" ^ arch.Arch.name)
            ~stage:"flow" ~design:name (fun ~log ~trace ->
              Flow.run ~seed:(task_seed ~seed name arch) ?verify ?policy
                ?cache ~log ~trace arch nl)
        in
        {
          t_design = name;
          t_arch = arch;
          t_result = result;
          t_recovery = Vpga_resil.Log.summary log;
          t_trace = trace;
        })
      specs
  in
  Vpga_par.Pool.run_stats ?jobs tasks

let run_tasks ?seed ?jobs ?verify ?policy ?traced ?cache ?designs scale =
  fst
    (run_tasks_with_stats ?seed ?jobs ?verify ?policy ?traced ?cache ?designs
       scale)

let recovery reports =
  List.fold_left
    (fun acc r -> Vpga_resil.Log.add acc r.t_recovery)
    Vpga_resil.Log.zero reports

(* Rows for the table renderers; re-raises the first per-task failure
   (in task order), so callers that cannot render a partial sweep keep
   the fail-fast contract. *)
let rows reports =
  (match
     List.find_opt (fun r -> Result.is_error r.t_result) reports
   with
  | Some { t_result = Error f; _ } -> Vpga_resil.Fail.raise_ f
  | Some _ | None -> ());
  let rec pair_up = function
    | [] -> []
    | a :: b :: rest when a.t_design = b.t_design ->
        {
          name = a.t_design;
          lut = Result.get_ok a.t_result;
          granular = Result.get_ok b.t_result;
        }
        :: pair_up rest
    | _ -> assert false
  in
  pair_up reports

type headline = {
  datapath_area_reduction : float;
  fpu_area_reduction : float;
  packing_overhead_reduction : float;
  firewire_reversal : bool;
  slack_improvement : float;
  degradation_reduction : float;
  displacement_reduction : float;
}

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let is_datapath r = r.name <> "Firewire"

let headlines rows =
  let datapath = List.filter is_datapath rows in
  let area_saving r =
    1.0 -. (r.granular.Flow.b.Flow.die_area /. r.lut.Flow.b.Flow.die_area)
  in
  (* Overhead of packing into the regular array, um^2 of die given up going
     from flow a to flow b. *)
  let overhead pair = pair.Flow.b.Flow.die_area -. pair.Flow.a.Flow.die_area in
  let overhead_saving r =
    let lut_ov = overhead r.lut and g_ov = overhead r.granular in
    if lut_ov <= 0.0 then 0.0 else 1.0 -. (g_ov /. lut_ov)
  in
  let slack_gain r =
    let l = r.lut.Flow.b.Flow.avg_top10_slack in
    let g = r.granular.Flow.b.Flow.avg_top10_slack in
    if l = 0.0 then 0.0 else (g -. l) /. Float.abs l
  in
  let degradation pair =
    pair.Flow.a.Flow.avg_top10_slack -. pair.Flow.b.Flow.avg_top10_slack
  in
  let degradation_saving r =
    let l = degradation r.lut and g = degradation r.granular in
    if l <= 0.0 then 0.0 else 1.0 -. (g /. l)
  in
  let fpu = List.find_opt (fun r -> r.name = "FPU") rows in
  let firewire = List.find_opt (fun r -> r.name = "Firewire") rows in
  {
    datapath_area_reduction = mean (List.map area_saving datapath);
    fpu_area_reduction =
      (match fpu with Some r -> area_saving r | None -> 0.0);
    packing_overhead_reduction = mean (List.map overhead_saving datapath);
    firewire_reversal =
      (match firewire with
      | Some r ->
          r.granular.Flow.b.Flow.die_area > r.lut.Flow.b.Flow.die_area
      | None -> false);
    slack_improvement = mean (List.map slack_gain datapath);
    degradation_reduction = mean (List.map degradation_saving datapath);
    displacement_reduction =
      (let saving r =
         let l = r.lut.Flow.b.Flow.displacement in
         if l <= 0.0 then 0.0
         else 1.0 -. (r.granular.Flow.b.Flow.displacement /. l)
       in
       mean (List.map saving datapath));
  }

let s3_census () = S3.census ()

let full_adder_tiles () =
  List.map (fun arch -> (arch.Arch.name, Full_adder.tiles_needed arch)) Arch.all

let config_delays () =
  let load = 10.0 in
  List.map
    (fun c -> (c, Config.delay c ~load, Config.cell_area c))
    Config.all

let compaction_table scale =
  List.concat_map
    (fun (name, nl) ->
      List.map
        (fun arch ->
          let before = Techmap.cell_area (Techmap.map arch nl) in
          let after = Techmap.cell_area (Compact.run arch nl) in
          (name, arch.Arch.name, before, after, 1.0 -. (after /. before)))
        Arch.all)
    (designs scale)

let config_distribution rows =
  List.map
    (fun r -> (r.name, r.granular.Flow.b.Flow.config_histogram))
    rows

let firewire_remedy ?(seed = 1) scale =
  let nl =
    match List.assoc_opt "Firewire" (designs scale) with
    | Some nl -> nl
    | None -> assert false
  in
  List.map
    (fun arch ->
      let p = Flow.run ~seed arch nl in
      (arch.Arch.name, p.Flow.b.Flow.die_area, p.Flow.b.Flow.avg_top10_slack))
    [ Arch.lut_plb; Arch.granular_plb; Arch.granular_2ff ]

let ablation ?(seed = 1) scale =
  let nl =
    match List.assoc_opt "ALU" (designs scale) with
    | Some nl -> nl
    | None -> assert false
  in
  let arch = Arch.granular_plb in
  let run ~refine ~use_criticality =
    (Flow.run ~seed ~refine ~use_criticality arch nl).Flow.b
  in
  [
    ("full flow", run ~refine:true ~use_criticality:true);
    ("no packing refinement", run ~refine:false ~use_criticality:true);
    ("no criticality weighting", run ~refine:true ~use_criticality:false);
    ("neither", run ~refine:false ~use_criticality:false);
  ]

(* E13: configuration-via accounting — the VPGA's customization cost. *)
let via_table scale =
  List.concat_map
    (fun (name, nl) ->
      List.map
        (fun arch ->
          let compacted = Compact.run arch nl in
          let used =
            List.fold_left
              (fun acc (c, n) -> acc + (n * Config.via_count c))
              0
              (Compact.config_histogram compacted)
          in
          (name, arch.Arch.name, used))
        Arch.all)
    (designs scale)

(* E14: the paper's closing future-work item — regular vs custom routing
   for the VPGA fabric.  Same packed design and routed topology, two
   extraction models: ASIC-style custom metal vs switched regular tracks. *)
let routing_styles ?(seed = 1) scale =
  let module Pathfinder = Vpga_route.Pathfinder in
  let module Sta = Vpga_timing.Sta in
  let arch = Arch.granular_plb in
  let opts =
    {
      Stagekey.seed;
      anneal_iterations = None;
      use_criticality = false;
      verify = 0;
      policy = Vpga_resil.Policy.default;
      defect = None;
    }
  in
  List.map
    (fun (name, nl) ->
      let buffered, _, pl_b =
        Stage.packed
          (Stage.create ~opts ~log:None ~trace:Vpga_obs.Trace.null
             ~cache:Vpga_cache.Cache.none arch nl)
      in
      let routed = Pathfinder.route_placement pl_b in
      let slack wire =
        Sta.average_top_slack (Sta.run ~wire buffered) 10
      in
      ( name,
        slack (Pathfinder.wire_loads routed),
        slack (Pathfinder.wire_loads_regular routed) ))
    (designs scale)
