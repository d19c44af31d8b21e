(* A deeper look at one datapath design (the FPU) going through the flow:
   compaction gain, configuration histogram, placement/routing statistics,
   and the flow-a vs flow-b comparison on both PLB architectures.

     dune exec examples/datapath_flow.exe *)

open Vpga_core.Vpga

let () =
  let design = Fpu.build ~exp_bits:6 ~mant_bits:12 () in
  Format.printf "Design: %a@." Netlist.pp_stats design;
  List.iter
    (fun arch ->
      Format.printf "@.=== %s ===@." arch.Arch.name;
      (* Stage-by-stage, the flow's front end: *)
      let mapped = Techmap.map arch design in
      let compacted = Compact.run arch design in
      Format.printf "technology mapping: %6.0f um^2 of component cells@."
        (Techmap.cell_area mapped);
      Format.printf "after compaction:   %6.0f um^2 (%.1f%% saved; paper ~15%%)@."
        (Techmap.cell_area compacted)
        (100.0 *. (1.0 -. Techmap.cell_area compacted /. Techmap.cell_area mapped));
      Format.printf "configurations:";
      List.iter
        (fun (c, n) -> Format.printf " %s:%d" (Config.name c) n)
        (Compact.config_histogram compacted);
      Format.printf "@.";
      (* And the two flows: *)
      let pair = Flow.run ~seed:1 arch design in
      let show (o : Flow.outcome) =
        Format.printf
          "  flow %s: die %8.0f um^2, wire %7.0f um, top-10 slack %8.1f ps%s@."
          (match o.Flow.kind with Flow.Flow_a -> "a" | Flow.Flow_b -> "b")
          o.Flow.die_area o.Flow.wirelength o.Flow.avg_top10_slack
          (match o.Flow.array_dims with
          | Some (c, r) ->
              Printf.sprintf "  [PLB array %dx%d, %d tiles used, displacement %.0f um]"
                c r o.Flow.tiles_used o.Flow.displacement
          | None -> "")
      in
      show pair.Flow.a;
      show pair.Flow.b)
    Arch.all
