(* Export the flow's output artifacts: structural Verilog of the mapped
   netlist, a DEF-flavoured placement dump and an SVG rendering of the PLB
   array — the open equivalents of the paper's "GDSII description of the
   layout in the form of a regular array of PLBs".

     dune exec examples/export_layout.exe
     (writes alu8.v / alu8.def / alu8.svg into the current directory) *)

open Vpga_core.Vpga

let () =
  let design = Alu.build ~width:8 () in
  let arch = Arch.granular_plb in
  (* Front-end + placement + packing, step by step. *)
  let compacted = Compact.run arch design in
  let buffered = Buffering.insert ~max_fanout:8 compacted in
  let pl = Placement.create buffered in
  Global_place.place ~seed:1 pl;
  ignore (Anneal.refine ~iterations:40000 ~seed:2 pl);
  let q = Quadrisect.legalize arch pl in
  let pl = Quadrisect.snap q pl in
  ignore (Refine.run ~iterations:40000 ~seed:3 q pl);
  (* Routed + detailed. *)
  let routed = Pathfinder.route_placement pl in
  let detail = Detail.run routed.Pathfinder.grid routed.Pathfinder.routes in
  Format.printf
    "%s on %s: %dx%d PLB array, %.0f um of wire, %d tracks deep, %d vias@."
    (Netlist.design_name design) arch.Arch.name q.Quadrisect.cols
    q.Quadrisect.rows
    (Pathfinder.total_wirelength routed)
    (detail.Detail.max_track + 1) detail.Detail.total_vias;
  (* Artifacts. *)
  Export.write_file "alu8.v" (Export.verilog buffered);
  Export.write_file "alu8.def" (Export.def_ ~packing:q pl);
  Export.write_file "alu8.svg" (Export.svg q pl);
  Format.printf "wrote alu8.v, alu8.def, alu8.svg@."
