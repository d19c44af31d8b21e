(* Minimum-channel-width search and the congestion-stress sweep.

   The 2004 paper routes both fabrics on a fixed flawless grid; this
   driver asks the robustness question instead: per (design, arch,
   defect map), what is the smallest channel capacity W_min that still
   routes ([Pathfinder.final_overflow = 0] and a conflict-free detailed
   track assignment)?  A defect-rate sweep over seeded maps then yields
   the routability-vs-area-vs-delay Pareto per architecture: W_min,
   wirelength, vias and critical path at each defect rate, plus the
   survival rate (fraction of seeded maps still routable at W <= w_max).

   Search invariant: the usable-track count of every boundary is
   monotone in the channel capacity (dead edges stay dead, derated
   boundaries expose [ceil (keep * W)] tracks — see [Defect.tracks]), so
   routability is monotone in W and an exponential ascent plus bisection
   finds W_min in O(log w_max) probes.  Every probe routes the same
   snapped packing, so the search isolates the routing question from the
   placement one. *)

module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Quadrisect = Vpga_pack.Quadrisect
module Pathfinder = Vpga_route.Pathfinder
module Detail = Vpga_route.Detail
module Sta = Vpga_timing.Sta
module Fail = Vpga_resil.Fail
module Policy = Vpga_resil.Policy
module Defect = Vpga_resil.Defect
module Trace = Vpga_obs.Trace
module Attr = Vpga_obs.Span
module Pool = Vpga_par.Pool
module Cache = Vpga_cache.Cache

type metrics = {
  wirelength : float;  (* um, at W_min *)
  vias : int;  (* detailed-routing vias at W_min *)
  wns : float;  (* ps, at W_min *)
}

type search_result = {
  w_min : int option;  (* None: unroutable even at w_max *)
  probes : int;
  array_cols : int;
  array_rows : int;
  array_area : float;  (* um^2 *)
  metrics : metrics option;  (* Some iff [w_min] is Some *)
}

let search ?(seed = 1) ?(period = 500.0) ?(policy = Policy.default)
    ?(w_max = 64) ?(max_iterations = 30) ?log ?(trace = Trace.null)
    ?(defect = Defect.empty) ?(cache = Cache.none) arch nl =
  if w_max < 1 then invalid_arg "Minchan.search: w_max < 1";
  (* The defect-free stages feed the same keys {!Flow.run} builds —
     identical computes — so a stress sweep shares its front-end with a
     paper sweep, and the defect maps of every rate share one
     (design, arch) front-end. *)
  let s =
    Stage.create ~log ~trace ~cache arch nl
      ~opts:
        {
          Stagekey.seed;
          period;
          anneal_iterations = None;
          use_criticality = false;
          verify = 0;
          policy;
          defect = Some defect;
        }
  in
  let tracks = Option.map Defect.tracks s.Stage.opts.Stagekey.defect in
  let span ?attrs name f = Stage.span ?attrs s name f in
  (* Shared front-end, run once per search.  Legalization walks the
     policy's relaxation ladder, so an unfittable probe fails as a typed
     [Stage_failure] instead of killing sibling tasks. *)
  let buffered, q, pl_b = span "minchan:frontend" (fun () -> Stage.packed s) in
  (* One probe per capacity, memoized twice over: the per-search table
     (the bisection revisits endpoints, the metrics pass reuses the
     W_min artifacts) in front of the shared cache (identical searches —
     a warm rerun — skip the routing).  The probe counter and
     trajectory samples record {e requested} probes, before the shared
     cache, so a search's [probes] count is identical cold and warm. *)
  let probe_table = Hashtbl.create 8 in
  let probes = ref 0 in
  let d_plb = Stage.placement_hex s pl_b in
  let probe w =
    match Hashtbl.find_opt probe_table w with
    | Some r -> r
    | None ->
        let r =
          span ~attrs:[ ("w", Attr.Int w) ] "minchan:probe" @@ fun () ->
          incr probes;
          Trace.emit "minchan.probes" 1.0;
          (* Search-trajectory series: which capacity each probe tried,
             and whether it routed (1.0) or not (0.0). *)
          Trace.emit_sample "minchan.probe_w" (float_of_int w);
          let r =
            Stage.memo s "minchan:probe"
              (fun () ->
                Stagekey.minchan_probe ~plb:d_plb ~w ~max_iterations s.Stage.opts)
              (fun () ->
                let routed =
                  Pathfinder.route_placement ~capacity:w ~max_iterations
                    ?tracks pl_b
                in
                if routed.Pathfinder.final_overflow > 0 then (routed, None)
                else
                  match
                    Detail.run_result routed.Pathfinder.grid
                      routed.Pathfinder.routes
                  with
                  | Ok d -> (routed, Some d)
                  | Error _ -> (routed, None))
          in
          Trace.emit_sample "minchan.probe_ok"
            (if snd r <> None then 1.0 else 0.0);
          r
        in
        Hashtbl.add probe_table w r;
        r
  in
  let routable w = snd (probe w) <> None in
  (* Exponential ascent to the first routable capacity, then bisection
     on [lo unroutable, hi routable]. *)
  let w_min =
    let rec ascend w =
      let w = min w w_max in
      if routable w then Some w
      else if w >= w_max then None
      else ascend (2 * w)
    in
    match ascend 1 with
    | None -> None
    | Some hi ->
        let rec bisect lo hi =
          (* invariant: lo unroutable (or 0), hi routable *)
          if hi - lo <= 1 then hi
          else begin
            let mid = (lo + hi) / 2 in
            if routable mid then bisect lo mid else bisect mid hi
          end
        in
        Some (bisect (hi / 2) hi)
  in
  let metrics =
    match w_min with
    | None -> None
    | Some w ->
        let routed, detail = probe w in
        let d = match detail with Some d -> d | None -> assert false in
        let sta =
          span "minchan:sta" (fun () ->
              Sta.run ~period ~wire:(Pathfinder.wire_loads routed) buffered)
        in
        Some
          {
            wirelength = Pathfinder.total_wirelength routed;
            vias = d.Detail.total_vias;
            wns = sta.Sta.wns;
          }
  in
  (match w_min with
  | Some w -> Trace.set trace "minchan.w_min" (float_of_int w)
  | None -> ());
  {
    w_min;
    probes = !probes;
    array_cols = q.Quadrisect.cols;
    array_rows = q.Quadrisect.rows;
    array_area = Quadrisect.array_area q;
    metrics;
  }

(* --- the stress sweep --- *)

type point = {
  p_design : string;
  p_arch : Arch.t;
  p_rate : float;
  p_map_seed : int;  (* the defect map's generator seed *)
  p_defect : Defect.t;
  p_result : (search_result, Fail.t) result;
  p_trace : Trace.t;
}

type cell = {
  c_design : string;
  c_arch : string;
  c_rate : float;
  c_maps : int;
  c_survived : int;  (* maps with a W_min <= w_max *)
  c_w_min : float;  (* means over survivors; 0 when none survived *)
  c_wirelength : float;
  c_vias : float;
  c_wns : float;
  c_area : float;
}

type report = {
  r_seed : int;
  r_w_max : int;
  r_rates : float list;
  r_maps_per_rate : int;
  r_points : point list;
  r_cells : cell list;
}

(* Defect-map seed from the task identity alone (never submission order
   or worker count): [Experiments.task_seed] mixed on with the rate and
   map index.  Its 30-bit mask changes nothing — the mixing is
   arithmetic mod 2^63, so the final mask sees the same residue. *)
let map_seed ~seed name arch rate k =
  let mix h v = (h * 65599) + v in
  mix (mix (Experiments.task_seed ~seed name arch) (int_of_float (rate *. 1e6))) k
  land 0x3FFFFFFF

let survivors points =
  List.filter_map
    (fun p ->
      match p.p_result with
      | Ok ({ w_min = Some _; _ } as r) -> Some r
      | Ok _ | Error _ -> None)
    points

let cell_of ~design ~arch ~rate points =
  let surv = survivors points in
  let n = List.length surv in
  let mean f =
    if n = 0 then 0.0
    else List.fold_left (fun a r -> a +. f r) 0.0 surv /. float_of_int n
  in
  let metric f =
    mean (fun r -> match r.metrics with Some m -> f m | None -> 0.0)
  in
  {
    c_design = design;
    c_arch = arch.Arch.name;
    c_rate = rate;
    c_maps = List.length points;
    c_survived = n;
    c_w_min =
      mean (fun r -> match r.w_min with Some w -> float_of_int w | None -> 0.0);
    c_wirelength = metric (fun m -> m.wirelength);
    c_vias = metric (fun m -> float_of_int m.vias);
    c_wns = metric (fun m -> m.wns);
    c_area = mean (fun r -> r.array_area);
  }

let stress ?(seed = 1) ?jobs ?(policy = Policy.default)
    ?(dist = Defect.Uniform) ?(rates = [ 0.0; 0.02; 0.05; 0.10 ])
    ?(maps_per_rate = 3) ?(w_max = 64) ?(traced = false) ?cache ?designs:ds
    scale =
  (* Populate every shared lazy table from this domain before workers
     race for them (Lazy.force is not domain-safe in OCaml 5). *)
  Config.prewarm ();
  let ds = match ds with Some ds -> ds | None -> Experiments.designs scale in
  let specs =
    List.concat_map
      (fun (name, nl) ->
        List.concat_map
          (fun arch ->
            List.concat_map
              (fun rate ->
                (* The defect-free point needs exactly one map. *)
                let maps = if rate <= 0.0 then 1 else maps_per_rate in
                List.init maps (fun k -> (name, nl, arch, rate, k)))
              rates)
          [ Arch.lut_plb; Arch.granular_plb ])
      ds
  in
  let tasks =
    List.mapi
      (fun i (name, nl, arch, rate, k) () ->
        (* Fault isolation: one probe exhausting its ladder becomes its
           own failure record; sibling probes never see it. *)
        let ms = map_seed ~seed name arch rate k in
        let defect = Defect.at_rate ~dist ~seed:ms rate in
        let result, _, trace =
          Stage.isolate ~traced ~tid:i
            ~label:(Printf.sprintf "%s/%s@%.3g#%d" name arch.Arch.name rate k)
            ~stage:"stress" ~design:name (fun ~log ~trace ->
              search ~seed:(Experiments.task_seed ~seed name arch) ~policy
                ~w_max ~log ~trace ~defect ?cache arch nl)
        in
        {
          p_design = name;
          p_arch = arch;
          p_rate = rate;
          p_map_seed = ms;
          p_defect = defect;
          p_result = result;
          p_trace = trace;
        })
      specs
  in
  let points = Pool.run ?jobs tasks in
  (* Aggregate in spec order: one Pareto cell per (design, arch, rate). *)
  let cells =
    List.concat_map
      (fun (name, _) ->
        List.concat_map
          (fun arch ->
            List.map
              (fun rate ->
                let mine =
                  List.filter
                    (fun p ->
                      p.p_design = name
                      && p.p_arch.Arch.name = arch.Arch.name
                      && p.p_rate = rate)
                    points
                in
                cell_of ~design:name ~arch ~rate mine)
              rates)
          [ Arch.lut_plb; Arch.granular_plb ])
      ds
  in
  {
    r_seed = seed;
    r_w_max = w_max;
    r_rates = rates;
    r_maps_per_rate = maps_per_rate;
    r_points = points;
    r_cells = cells;
  }

(* --- rendering --- *)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>stress sweep: seed %d, w_max %d, %d map(s) per nonzero rate@,@,"
    r.r_seed r.r_w_max r.r_maps_per_rate;
  Format.fprintf ppf "%-16s %-14s %6s %5s %9s %6s %10s %6s %9s %12s@,"
    "design" "arch" "rate" "maps" "survival" "W_min" "wire(um)" "vias"
    "wns(ps)" "area(um^2)";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-16s %-14s %6.3f %5d %8.0f%% " c.c_design c.c_arch
        c.c_rate c.c_maps
        (100.0 *. float_of_int c.c_survived /. float_of_int (max 1 c.c_maps));
      if c.c_survived = 0 then Format.fprintf ppf "%6s %10s %6s %9s %12s@," "-" "-" "-" "-" "-"
      else
        Format.fprintf ppf "%6.1f %10.0f %6.0f %9.1f %12.0f@," c.c_w_min
          c.c_wirelength c.c_vias c.c_wns c.c_area)
    r.r_cells;
  let failed =
    List.length (List.filter (fun p -> Result.is_error p.p_result) r.r_points)
  in
  if failed > 0 then
    Format.fprintf ppf "@,%d probe task(s) failed before routing:@," failed;
  List.iter
    (fun p ->
      match p.p_result with
      | Error f ->
          Format.fprintf ppf "  %-16s %-14s rate %.3f: %s@," p.p_design
            p.p_arch.Arch.name p.p_rate (Fail.to_string f)
      | Ok _ -> ())
    r.r_points;
  Format.fprintf ppf "@]"

let report_json r =
  let module J = Vpga_obs.Json in
  let int n = J.Num (float_of_int n) in
  let cell c =
    J.Obj
      [
        ("design", J.Str c.c_design);
        ("arch", J.Str c.c_arch);
        ("rate", J.Num c.c_rate);
        ("maps", int c.c_maps);
        ("survived", int c.c_survived);
        ( "survival",
          J.Num (float_of_int c.c_survived /. float_of_int (max 1 c.c_maps)) );
        ("w_min", J.Num c.c_w_min);
        ("wirelength_um", J.Num c.c_wirelength);
        ("vias", J.Num c.c_vias);
        ("wns_ps", J.Num c.c_wns);
        ("area_um2", J.Num c.c_area);
      ]
  in
  J.Obj
    [
      ("seed", int r.r_seed);
      ("w_max", int r.r_w_max);
      ("maps_per_rate", int r.r_maps_per_rate);
      ("rates", J.Arr (List.map (fun f -> J.Num f) r.r_rates));
      ("cells", J.Arr (List.map cell r.r_cells));
    ]
