module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Simulate = Vpga_netlist.Simulate
module Cell = Vpga_cells.Cell
module Characterize = Vpga_cells.Characterize
module Config = Vpga_plb.Config

(* Lane 0 of the word simulator: one stimulus per cycle, drawn in the same
   order as the bool API would take it. *)
let activities ?(cycles = 256) ~seed nl =
  let n = Netlist.size nl in
  let rng = Random.State.make [| seed |] in
  let sim = Simulate.create nl in
  Simulate.reset sim;
  let pi = Array.make (List.length (Netlist.inputs nl)) 0 in
  let toggles = Array.make n 0 in
  let prev = Array.make n 0 in
  for cycle = 1 to cycles do
    for i = 0 to Array.length pi - 1 do
      pi.(i) <- Bool.to_int (Random.State.bool rng)
    done;
    Simulate.step_words sim pi;
    for id = 0 to n - 1 do
      let v = Simulate.word sim id land 1 in
      if cycle > 1 then toggles.(id) <- toggles.(id) + (v lxor prev.(id));
      prev.(id) <- v
    done
  done;
  Array.map (fun t -> float_of_int t /. float_of_int (max 1 (cycles - 1))) toggles

type report = { dynamic_uw : float; leakage_uw : float; total_uw : float }

(* Synthetic-technology constants (see DESIGN.md). *)
let leakage_uw_per_um2 = 0.004
let internal_cap_factor = 1.5

let node_area n =
  match n.Netlist.kind with
  | Kind.Dff -> (Characterize.find "dff").Cell.area
  | Kind.Mapped { cell; _ } -> (
      match Config.of_cell_name cell with
      | Some c -> Config.cell_area c
      | None -> (Characterize.find cell).Cell.area)
  | Kind.Buf | Kind.Inv -> (Characterize.find "inv").Cell.area
  | _ -> 0.0

let estimate ?(period = 500.0) ?(vdd = 1.8) ?(wire = fun _ -> (0.0, 0.0))
    ~activities nl =
  let n = Netlist.size nl in
  if Array.length activities <> n then
    invalid_arg "Power.estimate: activity vector size mismatch";
  let fanout = Netlist.fanout nl in
  let freq_ghz = 1000.0 /. period in
  (* per node: switched cap = sink pins + wire + internal *)
  let dynamic = ref 0.0 in
  let leakage = ref 0.0 in
  for id = 0 to n - 1 do
    let node = Netlist.node nl id in
    let sink_cap =
      Array.fold_left
        (fun acc s -> acc +. Sta.pin_cap (Netlist.node nl s))
        0.0 fanout.(id)
    in
    let wire_cap, _ = wire id in
    let internal =
      internal_cap_factor *. Sta.pin_cap node
    in
    let cap_ff = sink_cap +. wire_cap +. internal in
    (* 0.5 * a * C * V^2 * f; fF * V^2 * GHz = uW *)
    dynamic := !dynamic +. (0.5 *. activities.(id) *. cap_ff *. vdd *. vdd *. freq_ghz);
    leakage := !leakage +. (leakage_uw_per_um2 *. node_area node)
  done;
  { dynamic_uw = !dynamic; leakage_uw = !leakage; total_uw = !dynamic +. !leakage }
