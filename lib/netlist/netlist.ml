type node = { id : int; kind : Kind.t; fanins : int array; name : string option }

type t = {
  dname : string;
  mutable arr : node option array;
  mutable count : int;
  mutable input_ids : int list; (* reversed *)
  mutable output_ids : int list; (* reversed *)
  mutable flop_ids : int list; (* reversed *)
}

let create ?(name = "design") () =
  { dname = name; arr = Array.make 64 None; count = 0;
    input_ids = []; output_ids = []; flop_ids = [] }

let design_name t = t.dname

let size t = t.count

let ensure t =
  if t.count >= Array.length t.arr then begin
    let arr = Array.make (2 * Array.length t.arr) None in
    Array.blit t.arr 0 arr 0 t.count;
    t.arr <- arr
  end

let push t node =
  ensure t;
  t.arr.(t.count) <- Some node;
  t.count <- t.count + 1;
  node.id

let node t i =
  if i < 0 || i >= t.count then invalid_arg "Netlist.node: id out of range";
  match t.arr.(i) with
  | Some n -> n
  | None -> assert false

let nodes t = Array.init t.count (fun i -> node t i)

let input t name =
  let id = push t { id = t.count; kind = Input; fanins = [||]; name = Some name } in
  t.input_ids <- id :: t.input_ids;
  id

let check_fanins t fanins ~seq =
  Array.iter
    (fun f ->
      if f < 0 || (f >= t.count && not seq) then
        invalid_arg "Netlist.gate: fanin id out of range")
    fanins

let gate ?name t kind fanins =
  (match kind with
  | Kind.Input -> invalid_arg "Netlist.gate: use Netlist.input"
  | Kind.Output -> invalid_arg "Netlist.gate: use Netlist.output"
  | _ -> ());
  if Array.length fanins <> Kind.arity kind then
    invalid_arg
      (Printf.sprintf "Netlist.gate: %s expects %d fanins, got %d"
         (Kind.name kind) (Kind.arity kind) (Array.length fanins));
  let seq = Kind.is_sequential kind in
  check_fanins t fanins ~seq;
  let id = push t { id = t.count; kind; fanins = Array.copy fanins; name } in
  if seq then t.flop_ids <- id :: t.flop_ids;
  id

let dff ?name t =
  let id = push t { id = t.count; kind = Kind.Dff; fanins = [| -1 |]; name } in
  t.flop_ids <- id :: t.flop_ids;
  id

let connect t ~flop ~d =
  let n = node t flop in
  if not (Kind.is_sequential n.kind) then
    invalid_arg "Netlist.connect: not a flop";
  if d < 0 || d >= t.count then invalid_arg "Netlist.connect: bad driver";
  n.fanins.(0) <- d

let output t name src =
  if src < 0 || src >= t.count then invalid_arg "Netlist.output: bad source";
  let id =
    push t { id = t.count; kind = Output; fanins = [| src |]; name = Some name }
  in
  t.output_ids <- id :: t.output_ids;
  id

let inputs t = List.rev t.input_ids
let outputs t = List.rev t.output_ids
let flops t = List.rev t.flop_ids

let interface t =
  (List.length t.input_ids, List.length t.output_ids, List.length t.flop_ids)

let fanout t =
  let deg = Array.make t.count 0 in
  for i = 0 to t.count - 1 do
    Array.iter (fun f -> if f >= 0 then deg.(f) <- deg.(f) + 1) (node t i).fanins
  done;
  let out = Array.init t.count (fun i -> Array.make deg.(i) (-1)) in
  let fill = Array.make t.count 0 in
  for i = 0 to t.count - 1 do
    Array.iter
      (fun f ->
        if f >= 0 then begin
          out.(f).(fill.(f)) <- i;
          fill.(f) <- fill.(f) + 1
        end)
      (node t i).fanins
  done;
  out

let map_combinational ?name t f =
  let dst = create ?name:(Some (Option.value ~default:t.dname name)) () in
  let map = Array.make t.count (-1) in
  (* Inputs first, preserving order. *)
  List.iter
    (fun i ->
      let n = node t i in
      map.(i) <- input dst (Option.value ~default:(Printf.sprintf "pi%d" i) n.name))
    (inputs t);
  (* Flops next, unconnected, so combinational feedback paths resolve. *)
  List.iter (fun i -> map.(i) <- dff ?name:(node t i).name dst) (flops t);
  (* Combinational nodes in id order (ids are topological for comb edges). *)
  for i = 0 to t.count - 1 do
    let n = node t i in
    match n.kind with
    | Kind.Input | Kind.Dff | Kind.Output -> ()
    | _ ->
        let fi = Array.map (fun j -> map.(j)) n.fanins in
        if Array.exists (fun j -> j < 0) fi then
          invalid_arg "Netlist.map_combinational: fanin not yet translated";
        map.(i) <- f dst n fi
  done;
  (* Reconnect flop D pins and emit outputs. *)
  List.iter
    (fun i ->
      let d = (node t i).fanins.(0) in
      if d < 0 then invalid_arg "Netlist.map_combinational: unconnected flop";
      connect dst ~flop:map.(i) ~d:map.(d))
    (flops t);
  List.iter
    (fun o ->
      let n = node t o in
      ignore
        (output dst
           (Option.value ~default:(Printf.sprintf "po%d" o) n.name)
           map.(n.fanins.(0))))
    (outputs t);
  dst

let pp_stats ppf t =
  let kinds = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      let k = Kind.name n.kind in
      Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
    (nodes t);
  Format.fprintf ppf "%s: %d nodes (%d PI, %d PO, %d FF)@." t.dname t.count
    (List.length (inputs t)) (List.length (outputs t)) (List.length (flops t));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
  |> List.iter (fun (k, v) -> Format.fprintf ppf "  %-8s %6d@." k v)
