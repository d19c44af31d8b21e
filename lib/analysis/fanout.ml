(* Fanout and logic-depth shape of the netlist: power-of-two histograms
   plus a high-fanout-net detector.  High-fanout nets are the routing
   stress generator's raw material (ROADMAP item 5) and the reason the
   flow runs fanout buffering — surfacing them *before* buffering shows
   what the buffer pass is about to pay for. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Levelize = Vpga_netlist.Levelize
module Diag = Vpga_verify.Diag

type result = {
  fanout : int array;  (* per-node reader count *)
  fanout_histogram : (int * int) list;  (* (bucket upper bound, nets) *)
  high_fanout : int list;  (* driver ids with fanout > [threshold] *)
  max_fanout : int;
  depth : int;  (* combinational depth; -1 when a loop prevents levelizing *)
  depth_histogram : (int * int) list;  (* (bucket upper bound, nodes) *)
}

(* Power-of-two buckets: a value lands in the smallest (1, 2, 4, ...) not
   below it.  Returns (bound, count) pairs for non-empty buckets. *)
let histogram values =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      if v > 0 then begin
        let b = ref 1 in
        while !b < v do
          b := 2 * !b
        done;
        Hashtbl.replace tbl !b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl !b))
      end)
    values;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* A net driving more sinks than this is reported as high-fanout. *)
let threshold = 8

let analyze nl =
  let fanout = Array.map Array.length (Netlist.fanout nl) in
  let n = Netlist.size nl in
  let high = ref [] and max_fanout = ref 0 in
  for i = n - 1 downto 0 do
    (* Only real signal drivers: outputs drive nothing, and an input or
       flop with huge fanout is just as much a routing problem as a gate. *)
    if (Netlist.node nl i).Netlist.kind <> Kind.Output then begin
      if fanout.(i) > !max_fanout then max_fanout := fanout.(i);
      if fanout.(i) > threshold then high := i :: !high
    end
  done;
  let depth, depth_histogram =
    match Levelize.run nl with
    | lv -> (lv.Levelize.depth, histogram lv.Levelize.level)
    | exception Levelize.Combinational_cycle _ -> (-1, [])
  in
  {
    fanout;
    fanout_histogram = histogram fanout;
    high_fanout = !high;
    max_fanout = !max_fanout;
    depth;
    depth_histogram;
  }

let pp_histogram fmt h =
  Format.fprintf fmt "%s"
    (String.concat ", "
       (List.map (fun (b, c) -> Printf.sprintf "<=%d: %d" b c) h))

let run nl =
  let r = analyze nl in
  let diags = ref [] in
  if r.high_fanout <> [] then
    diags :=
      Diag.warning ~nodes:r.high_fanout "high-fanout"
        "%d net(s) drive more than %d sink(s) (max %d)"
        (List.length r.high_fanout) threshold r.max_fanout
      :: !diags;
  diags :=
    Diag.info "fanout-histogram" "%a" pp_histogram r.fanout_histogram
    :: !diags;
  if r.depth >= 0 then
    diags :=
      Diag.info "logic-depth" "depth %d; levels %a" r.depth pp_histogram
        r.depth_histogram
      :: !diags
  else
    diags :=
      Diag.warning "depth-unavailable"
        "combinational loop prevents logic-depth analysis"
      :: !diags;
  Pass.make "fanout" !diags
    [
      ("analysis.high_fanout_nets", float_of_int (List.length r.high_fanout));
      ("analysis.max_fanout", float_of_int r.max_fanout);
      ("analysis.logic_depth", float_of_int r.depth);
    ]
