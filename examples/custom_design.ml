(* Bring your own RTL: build a custom design with the word-level kit (a
   4-tap moving-average filter), verify it by simulation, and map it onto
   the granular VPGA.

     dune exec examples/custom_design.exe *)

open Vpga_core.Vpga

let width = 8

(* y = (x + x1 + x2 + x3) / 4 over a sliding window of the last 4 samples. *)
let build () =
  let nl = Netlist.create ~name:"movavg4" () in
  let x = Wordgen.input_bus nl "x" width in
  let x1 = Wordgen.register_bus nl x in
  let x2 = Wordgen.register_bus nl x1 in
  let x3 = Wordgen.register_bus nl x2 in
  (* widen to 10 bits before summing *)
  let widen bus =
    let zero = Netlist.gate nl (Kind.Const false) [||] in
    Array.append bus [| zero; zero |]
  in
  let s01, _ = Wordgen.ripple_adder nl (widen x) (widen x1) in
  let s23, _ = Wordgen.ripple_adder nl (widen x2) (widen x3) in
  let total, _ = Wordgen.ripple_adder nl s01 s23 in
  (* divide by 4 = drop two low bits *)
  let y = Array.sub total 2 width in
  Wordgen.output_bus nl "y" (Wordgen.register_bus nl y);
  nl

let () =
  let nl = build () in
  Format.printf "Design: %a@." Netlist.pp_stats nl;
  (* Check behaviour against a software model for a pulse input. *)
  let sim = Simulate.create nl in
  Simulate.reset sim;
  let bits v = Array.init width (fun i -> (v lsr i) land 1 = 1) in
  let samples = [ 100; 100; 100; 100; 0; 0; 0; 0; 200; 200; 200; 200; 0 ] in
  let window = ref [ 0; 0; 0; 0 ] in
  List.iteri
    (fun t v ->
      let po = Simulate.step sim (bits v) in
      let out = ref 0 in
      Array.iteri (fun i b -> if b then out := !out lor (1 lsl i)) po;
      (* output register lags the window by one cycle *)
      if t >= 1 then begin
        let expect = List.fold_left ( + ) 0 !window / 4 in
        assert (!out = expect land 0xFF)
      end;
      window := v :: List.filteri (fun i _ -> i < 3) !window)
    samples;
  Format.printf "Simulation against the software model: ok@.";
  (* Map onto the granular VPGA. *)
  let pair = Flow.run ~seed:1 Arch.granular_plb nl in
  Format.printf
    "Granular VPGA: %s PLB array, die %.0f um^2, top-10 slack %.1f ps@."
    (match pair.Flow.b.Flow.array_dims with
    | Some (c, r) -> Printf.sprintf "%dx%d" c r
    | None -> "-")
    pair.Flow.b.Flow.die_area pair.Flow.b.Flow.avg_top10_slack
