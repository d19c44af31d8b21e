(* Tseitin encoding of an AIG cone into CNF.

   Only the cone of the requested roots is encoded, over variables
   0..k-1 numbered in the order a depth-first walk from the roots first
   reaches each node: the roots first, and each AND node before its
   fanins.  A CNF therefore costs its cone, not the whole AIG, and the
   solver's first decision falls on a root.  The node -> variable map lives
   in a caller-owned stamped [scratch], grown with the AIG and never
   cleared; each [t] carries its own variable -> node map, through which
   {!pi_values} reads a model back. *)

module Aig = Vpga_aig.Aig

(* [var_of.(node)] is valid only while [seen.(node)] holds the current
   encoding's stamp, so a stale entry never matches.  [nodes] and [stack]
   are the walk's buffers: the cone in variable order and the DFS stack. *)
type scratch = {
  mutable stamp : int;
  mutable seen : int array;
  mutable var_of : int array;
  mutable nodes : int array;
  mutable stack : int array;
}

let scratch () =
  { stamp = 0; seen = [||]; var_of = [||]; nodes = [||]; stack = [||] }

(* [nodes.(v)] is the AIG node of variable [v]; [nvars] = its length. *)
type t = { nvars : int; clauses : int array list; nodes : int array }

(* Size the scratch for an AIG of [n] nodes, doubling so that a caller
   encoding a growing AIG reallocates O(log n) times. *)
let reserve s n =
  if Array.length s.seen < n then begin
    let cap = max n (2 * Array.length s.seen) in
    s.seen <- Array.make cap 0;
    s.var_of <- Array.make cap 0;
    s.nodes <- Array.make cap 0;
    (* Each visit pushes two fanins, and there are at most two roots. *)
    s.stack <- Array.make ((2 * cap) + 2) 0
  end

(* The cone of [roots] in DFS discovery order: marks it in [s] and returns
   its size k, with [s.nodes.(0..k-1)] holding its nodes. *)
let walk (s : scratch) aig roots =
  reserve s (Aig.size aig);
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp in
  let sp = ref 0 in
  List.iter
    (fun l ->
      s.stack.(!sp) <- Aig.node_of l;
      incr sp)
    (List.rev roots);
  let k = ref 0 in
  while !sp > 0 do
    decr sp;
    let id = s.stack.(!sp) in
    if s.seen.(id) <> stamp then begin
      s.seen.(id) <- stamp;
      s.var_of.(id) <- !k;
      s.nodes.(!k) <- id;
      incr k;
      if (not (Aig.is_const id)) && not (Aig.is_pi aig id) then begin
        let f0, f1 = Aig.fanins aig id in
        s.stack.(!sp) <- Aig.node_of f1;
        s.stack.(!sp + 1) <- Aig.node_of f0;
        sp := !sp + 2
      end
    end
  done;
  !k

(* The local literal of AIG literal [l], whose node must be in the cone
   just walked. *)
let lit s l = (2 * s.var_of.(Aig.node_of l)) lor (l land 1)

(* Defining clauses of the cone just walked, [k] nodes, under the AIG's
   AND semantics (no root asserted): node 0 is constant false, and an AND
   node c gets c -> a, c -> b and a AND b -> c.  The last-visited node's
   clauses come first. *)
let cone_clauses (s : scratch) aig k =
  let acc = ref [] in
  for v = 0 to k - 1 do
    let id = s.nodes.(v) in
    if Aig.is_const id then acc := [| (2 * v) lor 1 |] :: !acc
    else if not (Aig.is_pi aig id) then begin
      let f0, f1 = Aig.fanins aig id in
      let c = 2 * v and a = lit s f0 and b = lit s f1 in
      acc :=
        [| c lxor 1; a |] :: [| c lxor 1; b |]
        :: [| c; a lxor 1; b lxor 1 |] :: !acc
    end
  done;
  !acc

(* CNF whose models are exactly the assignments of the cone of [root] with
   [root] asserted true. *)
let of_cone s aig root =
  let k = walk s aig [ root ] in
  {
    nvars = k;
    clauses = [| lit s root |] :: cone_clauses s aig k;
    nodes = Array.sub s.nodes 0 k;
  }

(* CNF whose models are exactly the cone assignments under which literals
   [p] and [q] differ: both cones plus the inequality clauses (p or q) and
   (not p or not q).  Used by the SAT sweeper to test a candidate merge
   without materializing an XOR in the AIG. *)
let of_inequiv s aig p q =
  let k = walk s aig [ p; q ] in
  let p = lit s p and q = lit s q in
  {
    nvars = k;
    clauses = [| p; q |] :: [| p lxor 1; q lxor 1 |] :: cone_clauses s aig k;
    nodes = Array.sub s.nodes 0 k;
  }

(* The values [model] (a {!Sat} model of [t]) gives [aig]'s primary inputs,
   by PI index; a PI outside the cone reads [false], as an unassigned
   variable does. *)
let pi_values t aig model =
  let pat = Array.make (Aig.num_pis aig) false in
  Array.iteri
    (fun v id ->
      if Aig.is_pi aig id then pat.(Aig.pi_index aig id) <- model.(v))
    t.nodes;
  pat
