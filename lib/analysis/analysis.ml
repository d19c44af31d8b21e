(* The pass manager: runs the dataflow-based netlist analyses in a fixed
   order, collects their [Pass.report]s, and optionally runs the
   CEC-gated simplifier on top. *)

module Netlist = Vpga_netlist.Netlist
module Diag = Vpga_verify.Diag

type t = {
  reports : Pass.report list;
  simplified : (Netlist.t * Simplify.stats * Diag.t list) option;
}

let pass_names = [ "constprop"; "xprop"; "redundancy"; "fanout" ]

let run ?passes ?fanout_threshold ?(simplify = false) nl =
  let wanted name =
    match passes with None -> true | Some ps -> List.mem name ps
  in
  let reports =
    List.filter_map
      (fun (name, f) -> if wanted name then Some (f nl) else None)
      [
        ("constprop", Constprop.run);
        ("xprop", Xprop.run);
        ("redundancy", Redund.run);
        ("fanout", Fanout.run ?threshold:fanout_threshold);
      ]
  in
  let simplified = if simplify then Some (Simplify.checked nl) else None in
  { reports; simplified }

let diags t =
  List.concat_map (fun (r : Pass.report) -> r.Pass.diags) t.reports
  @ match t.simplified with None -> [] | Some (_, _, ds) -> ds

let counters t =
  List.concat_map (fun (r : Pass.report) -> r.Pass.counters) t.reports

let pp fmt t =
  List.iter
    (fun (r : Pass.report) ->
      Format.fprintf fmt "@[<v 2>pass %s:@," r.Pass.name;
      if r.Pass.diags = [] then Format.fprintf fmt "clean@,"
      else
        List.iter (fun d -> Format.fprintf fmt "%a@," Diag.pp d) r.Pass.diags;
      List.iter
        (fun (k, v) -> Format.fprintf fmt "%s = %g@," k v)
        r.Pass.counters;
      Format.fprintf fmt "@]@,")
    t.reports;
  match t.simplified with
  | None -> ()
  | Some (_, stats, ds) ->
      Format.fprintf fmt "@[<v 2>simplify:@,";
      List.iter (fun d -> Format.fprintf fmt "%a@," Diag.pp d) ds;
      Format.fprintf fmt "rewrites = %d@]@," (Simplify.total stats)
