(* Quickstart: build a small design, push it through the full VPGA flow on
   both PLB architectures, and print what the paper's Tables 1/2 would show
   for it.

     dune exec examples/quickstart.exe *)

open Vpga_core.Vpga

let () =
  (* An 8-bit ALU: a small datapath-dominated design. *)
  let design = Alu.build ~width:8 () in
  Format.printf "Design: %a@." Netlist.pp_stats design;

  (* Run flow a (ASIC-style) and flow b (packed PLB array) on both PLBs. *)
  let lut = Flow.run ~seed:1 Arch.lut_plb design in
  let granular = Flow.run ~seed:1 Arch.granular_plb design in

  let show name (pair : Flow.pair) =
    let o b = if b then pair.Flow.b else pair.Flow.a in
    Format.printf
      "%-14s flow a: die %8.0f um^2, top-10 slack %7.1f ps@." name
      (o false).Flow.die_area (o false).Flow.avg_top10_slack;
    Format.printf
      "%-14s flow b: die %8.0f um^2, top-10 slack %7.1f ps  (PLB array %s)@."
      name (o true).Flow.die_area (o true).Flow.avg_top10_slack
      (match (o true).Flow.array_dims with
      | Some (c, r) -> Printf.sprintf "%dx%d" c r
      | None -> "-")
  in
  show "LUT-based PLB" lut;
  show "granular PLB" granular;
  Format.printf "@.Granular vs LUT (flow b): %.1f%% smaller die, %.1f ps more slack@."
    (100.0 *. (1.0 -. (granular.Flow.b.Flow.die_area /. lut.Flow.b.Flow.die_area)))
    (granular.Flow.b.Flow.avg_top10_slack -. lut.Flow.b.Flow.avg_top10_slack)
