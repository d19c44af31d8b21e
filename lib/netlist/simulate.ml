(* The netlist is compiled once into flat arrays; evaluation walks them in
   topological order, one machine word per node.  Bit [l] of every word is
   lane [l]: an independent stimulus. *)
type t = {
  order : int array;  (* combinational nodes (not inputs, not flops), topological *)
  tt : int array;  (* per node: truth table over its fanins *)
  arity : int array;  (* per node: fanin count *)
  fanin_off : int array;  (* per node: offset of its fanins in [fanin] *)
  fanin : int array;  (* the fanins of [order], concatenated *)
  pis : int array;  (* primary-input node ids, {!Netlist.inputs} order *)
  pos : int array;  (* primary-output node ids, {!Netlist.outputs} order *)
  flops : int array;  (* flop (Q) node ids *)
  ds : int array;  (* per flop: its D driver *)
  values : int array;  (* per node: most recent value word *)
  state : int array;  (* per flop: the word its Q holds this cycle *)
}

let lanes = Sys.int_size - 1

let create nl =
  let topo = Levelize.run nl in
  let n = Netlist.size nl in
  let node = Netlist.node nl in
  let order =
    List.filter
      (fun i ->
        match (node i).Netlist.kind with
        | Kind.Input | Kind.Dff -> false
        | _ -> true)
      (Array.to_list topo.Levelize.order)
  in
  let tt = Array.make n 0 and arity = Array.make n 0 in
  let fanin_off = Array.make n 0 and off = ref 0 in
  List.iter
    (fun i ->
      let { Netlist.kind; fanins; _ } = node i in
      let f = Kind.fn (if kind = Kind.Output then Kind.Buf else kind) in
      let k = Array.length fanins in
      if k <> Vpga_logic.Bfun.arity f then invalid_arg "Simulate: arity";
      tt.(i) <- Vpga_logic.Bfun.table f;
      arity.(i) <- k;
      fanin_off.(i) <- !off;
      off := !off + k)
    order;
  let flops = Array.of_list (Netlist.flops nl) in
  {
    order = Array.of_list order;
    tt; arity; fanin_off;
    fanin = Array.concat (List.map (fun i -> (node i).Netlist.fanins) order);
    pis = Array.of_list (Netlist.inputs nl);
    pos = Array.of_list (Netlist.outputs nl);
    flops;
    ds = Array.map (fun i -> (node i).Netlist.fanins.(0)) flops;
    values = Array.make n 0;
    state = Array.make (Array.length flops) 0;
  }

let reset sim = Array.fill sim.state 0 (Array.length sim.state) 0

(* A node's word is its truth table evaluated as a mux tree: Shannon
   expansion on the highest input down to the constant leaves (bit [m] of
   the table, as all-zeros or all-ones).  Unrolled per arity and
   branch-free, so the cost does not depend on the table; integer
   arguments only, so nothing is allocated. *)
let[@inline] mux s h l = (s land h) lor (lnot s land l)
let[@inline] leaf tt m = -((tt lsr m) land 1)
let[@inline] ev1 x0 tt = mux x0 (leaf tt 1) (leaf tt 0)
let[@inline] ev2 x0 x1 tt = mux x1 (ev1 x0 (tt lsr 2)) (ev1 x0 tt)
let[@inline] ev3 x0 x1 x2 tt = mux x2 (ev2 x0 x1 (tt lsr 4)) (ev2 x0 x1 tt)

let[@inline] ev4 x0 x1 x2 x3 tt =
  mux x3 (ev3 x0 x1 x2 (tt lsr 8)) (ev3 x0 x1 x2 tt)

let eval_node values fanin base tt = function
  | 0 -> leaf tt 0
  | 1 -> ev1 values.(fanin.(base)) tt
  | 2 -> ev2 values.(fanin.(base)) values.(fanin.(base + 1)) tt
  | 3 ->
      ev3 values.(fanin.(base)) values.(fanin.(base + 1))
        values.(fanin.(base + 2)) tt
  | k ->
      let x0 = values.(fanin.(base)) and x1 = values.(fanin.(base + 1)) in
      let x2 = values.(fanin.(base + 2)) and x3 = values.(fanin.(base + 3)) in
      if k = 4 then ev4 x0 x1 x2 x3 tt
      else
        mux values.(fanin.(base + 4))
          (ev4 x0 x1 x2 x3 (tt lsr 16))
          (ev4 x0 x1 x2 x3 tt)

let eval_words sim pi =
  if Array.length pi <> Array.length sim.pis then
    invalid_arg "Simulate: wrong number of primary inputs";
  let { order; tt; arity; fanin_off; fanin; pis; flops; values; state; _ } =
    sim
  in
  for k = 0 to Array.length pis - 1 do values.(pis.(k)) <- pi.(k) done;
  for k = 0 to Array.length flops - 1 do values.(flops.(k)) <- state.(k) done;
  for j = 0 to Array.length order - 1 do
    let i = order.(j) in
    values.(i) <- eval_node values fanin fanin_off.(i) tt.(i) arity.(i)
  done

let step_words sim pi =
  eval_words sim pi;
  for k = 0 to Array.length sim.ds - 1 do
    sim.state.(k) <- sim.values.(sim.ds.(k))
  done

let word sim i = sim.values.(i)
let output_word sim k = sim.values.(sim.pos.(k))

(* The bool API: lane 0 of the word kernel. *)

let po_bits sim = Array.map (fun o -> sim.values.(o) land 1 = 1) sim.pos

let eval_comb sim pi =
  eval_words sim (Array.map Bool.to_int pi);
  po_bits sim

let step sim pi =
  step_words sim (Array.map Bool.to_int pi);
  po_bits sim

let value sim i = sim.values.(i) land 1 = 1

let run nl vectors =
  let sim = create nl in
  reset sim;
  List.map (step sim) vectors
