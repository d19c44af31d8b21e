module Placement = Vpga_place.Placement

type result = {
  grid : Grid.t;
  routes : Router.route list;
  iterations : int;
  final_overflow : int;
}

(* Synthetic-technology wire parasitics (see DESIGN.md): mid-layer metal. *)
let cap_per_um = 0.2 (* fF/um *)
let res_per_um = 0.00008 (* kOhm/um = ps/fF/um *)
let local_wire_um = 15.0 (* same-bin nets still have some local wire *)

let route_placement ?capacity ?tracks ?(max_iterations = 30) pl =
  let grid = Grid.of_placement ?capacity ?tracks pl in
  let nets = Placement.nets_with_io pl in
  (* Each net's pin bins, sorted and deduplicated once for every pass. *)
  let pins_of net =
    Array.to_list net
    |> List.map (fun id ->
           Grid.bin_of grid ~x:pl.Placement.x.(id) ~y:pl.Placement.y.(id))
    |> List.sort_uniq Int.compare
  in
  let net_list =
    Array.to_list nets |> List.map (fun net -> (net, pins_of net))
  in
  let current = Array.make (Array.length nets) [] in
  let route_pass ~pres_fac =
    List.iteri
      (fun i (_, pins) ->
        Router.uncommit grid current.(i);
        match Router.route_net grid ~pres_fac ~pins with
        | Some edges ->
            Router.commit grid edges;
            current.(i) <- edges
        | None -> assert false (* grids are connected *))
      net_list
  in
  let rec negotiate iter pres_fac =
    route_pass ~pres_fac;
    let ov = Grid.overflow grid in
    (* Convergence series: overflow after each rip-up/re-route pass. *)
    Vpga_obs.Trace.emit_sample "route.overflow_iter" (float_of_int ov);
    if ov = 0 || iter >= max_iterations then (iter, ov)
    else begin
      (* accumulate history on congested edges *)
      Array.iteri
        (fun e u ->
          let cap = Grid.cap grid e in
          if u > cap then
            grid.Grid.history.(e) <-
              grid.Grid.history.(e) +. (0.4 *. float_of_int (u - cap)))
        grid.Grid.usage;
      negotiate (iter + 1) (pres_fac *. 1.8)
    end
  in
  let iterations, final_overflow = negotiate 1 0.5 in
  (* Ambient-trace counters (no-op when tracing is off); accumulate
     across the escalation policy's repeated routing attempts. *)
  Vpga_obs.Trace.emit "route.ripup_iterations" (float_of_int iterations);
  Vpga_obs.Trace.emit "route.overflow" (float_of_int final_overflow);
  Vpga_obs.Trace.emit "route.nets" (float_of_int (List.length net_list));
  let routes =
    List.mapi
      (fun i (net, _) ->
        let edges = current.(i) in
        {
          Router.net;
          edges;
          wirelength = Router.wirelength_of grid edges;
        })
      net_list
  in
  List.iter
    (fun rt ->
      Vpga_obs.Trace.emit_observe "route.net_wirelength_um" rt.Router.wirelength)
    routes;
  { grid; routes; iterations; final_overflow }

let total_wirelength r =
  List.fold_left (fun acc rt -> acc +. rt.Router.wirelength) 0.0 r.routes

let wire_loads_with ~extra_per_edge r =
  let tbl = Hashtbl.create (List.length r.routes) in
  List.iter
    (fun rt ->
      let driver = rt.Router.net.(0) in
      let len = max local_wire_um rt.Router.wirelength in
      let hops = float_of_int (List.length rt.Router.edges) in
      let er, ec = extra_per_edge in
      Hashtbl.replace tbl driver
        ( (len *. cap_per_um) +. (hops *. ec),
          (len *. res_per_um) +. (hops *. er) ))
    r.routes;
  fun driver ->
    match Hashtbl.find_opt tbl driver with
    | Some p -> p
    | None -> (local_wire_um *. cap_per_um, local_wire_um *. res_per_um)

let wire_loads r = wire_loads_with ~extra_per_edge:(0.0, 0.0) r

(* Regular routing: each bin crossing passes a programmable switch adding
   0.35 ps/fF of resistance and 1.2 fF of capacitance. *)
let wire_loads_regular r = wire_loads_with ~extra_per_edge:(0.35, 1.2) r
