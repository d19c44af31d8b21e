(* Netlist lint: static well-formedness checks.  [structure] is the
   cheap structural block (arity, undriven pins, missing outputs) that the
   flow's front-end gates run on every candidate; [run] starts with it.

   - combinational loops, found as non-trivial SCCs of the combinational
     edge graph (flop D pins are sequential boundaries and cut the graph);
   - undriven pins: dangling fanin ids, unconnected flop D inputs;
   - arity mismatches between a node's kind and its fanin list;
   - dead logic: nodes from which no primary output is reachable, even
     through flop boundaries (the output-unreachable cone);
   - unused primary inputs (a warning-level special case of dead logic);
   - duplicate primary input / output names;
   - missing primary outputs.

   Every finding is a structured {!Diag.t} carrying the offending node ids,
   so callers can map a report back to netlist provenance. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Dataflow = Vpga_dataflow.Dataflow

let in_range nl f = f >= 0 && f < Netlist.size nl

(* Combinational fanins: a flop's D edge is a sequential boundary.  Dangling
   ids are dropped here (reported by [structure]). *)
let comb_fanins nl n =
  match n.Netlist.kind with
  | Kind.Dff -> [||]
  | _ -> Array.of_list (List.filter (in_range nl) (Array.to_list n.Netlist.fanins))

(* Combinational loops are the cyclic SCCs of the combinational edge graph.
   The iterative Tarjan traversal itself now lives in {!Dataflow} (shared
   with the analysis passes); the successor function here reproduces the
   historical edge set exactly, so reported components and their order are
   unchanged. *)
let combinational_sccs nl =
  Dataflow.cyclic_sccs ~n:(Netlist.size nl)
    ~succ:(fun v -> comb_fanins nl (Netlist.node nl v))

(* Nodes from which some primary output is reachable, traversing fanins from
   the POs and crossing flop D edges (a flop that only feeds flops feeding a
   PO is alive). *)
let live_cone nl =
  Dataflow.reachable ~n:(Netlist.size nl) ~roots:(Netlist.outputs nl)
    ~next:(fun i -> (Netlist.node nl i).Netlist.fanins)

let duplicates names =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (id, name) ->
      if Hashtbl.mem seen name then Some (id, name)
      else begin
        Hashtbl.add seen name id;
        None
      end)
    names

let io_names nl ids =
  List.map
    (fun i ->
      (i, Option.value ~default:(Printf.sprintf "<anon%d>" i)
            (Netlist.node nl i).Netlist.name))
    ids

(* Structural well-formedness: arity, dangling / undriven pins and
   missing outputs, in node order.  Every diagnostic is an error. *)
let structure nl =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  for i = 0 to Netlist.size nl - 1 do
    let node = Netlist.node nl i in
    if
      Array.length node.Netlist.fanins <> Kind.arity node.Netlist.kind
      && node.Netlist.kind <> Kind.Output
    then
      add
        (Diag.error ~nodes:[ i ] "arity-mismatch"
           "node %d (%s): has %d fanins, kind expects %d" i
           (Kind.name node.Netlist.kind)
           (Array.length node.Netlist.fanins)
           (Kind.arity node.Netlist.kind));
    Array.iteri
      (fun k f ->
        if not (in_range nl f) then
          if node.Netlist.kind = Kind.Dff && f < 0 then
            add
              (Diag.error ~nodes:[ i ] "undriven-pin"
                 "flop %d: D input is unconnected" i)
          else
            add
              (Diag.error ~nodes:[ i ] "undriven-pin"
                 "node %d (%s): fanin %d references missing driver %d" i
                 (Kind.name node.Netlist.kind) k f))
      node.Netlist.fanins
  done;
  if Netlist.outputs nl = [] then
    add (Diag.error "no-outputs" "netlist has no primary outputs");
  List.rev !diags

let run nl =
  let n = Netlist.size nl in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Interface checks. *)
  List.iter
    (fun (id, name) ->
      add
        (Diag.error ~nodes:[ id ] "dup-name"
           "duplicate primary input name %S" name))
    (duplicates (io_names nl (Netlist.inputs nl)));
  List.iter
    (fun (id, name) ->
      add
        (Diag.error ~nodes:[ id ] "dup-name"
           "duplicate primary output name %S" name))
    (duplicates (io_names nl (Netlist.outputs nl)));
  (* Combinational loops. *)
  List.iter
    (fun comp ->
      add
        (Diag.error ~nodes:comp "comb-loop"
           "combinational loop through %d node(s)" (List.length comp)))
    (combinational_sccs nl);
  (* Dead logic: output-unreachable cones. *)
  let live = live_cone nl in
  let dead_gates = ref [] and dead_inputs = ref [] in
  for i = n - 1 downto 0 do
    if not live.(i) then
      match (Netlist.node nl i).Netlist.kind with
      | Kind.Input -> dead_inputs := i :: !dead_inputs
      | Kind.Output -> ()
      | _ -> dead_gates := i :: !dead_gates
  done;
  if !dead_gates <> [] then
    add
      (Diag.warning ~nodes:!dead_gates "dead-logic"
         "%d node(s) reach no primary output" (List.length !dead_gates));
  if !dead_inputs <> [] then
    add
      (Diag.warning ~nodes:!dead_inputs "unused-input"
         "%d primary input(s) reach no primary output"
         (List.length !dead_inputs));
  Diag.sort (structure nl @ List.rev !diags)
