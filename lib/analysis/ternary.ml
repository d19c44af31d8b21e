module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind

type v = Bot | C0 | C1 | Def | Und

let equal (a : v) (b : v) = a = b

let join a b =
  if a = b then a
  else
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Und, _ | _, Und -> Und
    | Def, _ | _, Def -> Def
    | _ -> Def (* C0 join C1 *)

let of_bool b = if b then C1 else C0

let const = function C0 -> Some false | C1 -> Some true | _ -> None

let to_string = function
  | Bot -> "bot"
  | C0 -> "0"
  | C1 -> "1"
  | Def -> "def"
  | Und -> "X"

(* Enumerate every two-valued completion of the unknown arguments.  The
   recursion depth is the argument count (<= 5), so at most 32 calls of
   [Kind.eval]; [args] is scribbled on and restored by the caller's
   copy. *)
let eval kind (vs : v array) =
  if Array.exists (fun x -> x = Bot) vs then Bot
  else begin
    let n = Array.length vs in
    let args = Array.make n false in
    let unknown = ref [] in
    for i = n - 1 downto 0 do
      match vs.(i) with
      | C0 -> args.(i) <- false
      | C1 -> args.(i) <- true
      | _ -> unknown := i :: !unknown
    done;
    let rec sweep seen = function
      | [] ->
          let b = Kind.eval kind args in
          (match seen with
          | None -> Some (Some b)
          | Some (Some b') when b' = b -> seen
          | Some _ -> Some None (* completions disagree: not a constant *))
      | i :: rest -> (
          args.(i) <- false;
          match sweep seen rest with
          | Some None -> Some None
          | seen ->
              args.(i) <- true;
              sweep seen rest)
    in
    match sweep None !unknown with
    | Some (Some b) -> of_bool b (* every completion agrees: masked *)
    | _ ->
        if List.exists (fun i -> vs.(i) = Und) !unknown then Und else Def
  end

let in_range nl f = f >= 0 && f < Netlist.size nl

(* Chaotic iteration with a deterministic FIFO worklist: every node starts
   at [Bot] and is queued in id order; a node whose value changes re-queues
   its fanouts in {!Netlist.fanout} order.  The lattice is finite and the
   transfer monotone, so the loop ends at the least fixed point; the
   relaxation bound turns a non-monotone transfer into a loud failure
   instead of a hang. *)
let values ~flop_init nl =
  let n = Netlist.size nl in
  let values = Array.make n Bot in
  let transfer (node : Netlist.node) =
    match node.Netlist.kind with
    | Kind.Input -> Def
    | Kind.Const b -> of_bool b
    | Kind.Output ->
        let f = node.Netlist.fanins.(0) in
        if in_range nl f then values.(f) else Und
    | Kind.Dff ->
        let d =
          if Array.length node.Netlist.fanins = 1 then node.Netlist.fanins.(0)
          else -1
        in
        join flop_init (if in_range nl d then values.(d) else Und)
    | k ->
        if Array.length node.Netlist.fanins <> Kind.arity k then Und
        else
          eval k
            (Array.map
               (fun f -> if in_range nl f then values.(f) else Und)
               node.Netlist.fanins)
  in
  let fanout = Netlist.fanout nl in
  let max_steps = max 10_000 (64 * n) in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let push i =
    if not queued.(i) then begin
      queued.(i) <- true;
      Queue.add i queue
    end
  in
  for i = 0 to n - 1 do
    push i
  done;
  let steps = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    queued.(i) <- false;
    incr steps;
    if !steps > max_steps then
      failwith "Ternary.values: no fixed point within the relaxation bound";
    let v = transfer (Netlist.node nl i) in
    if not (equal v values.(i)) then begin
      values.(i) <- v;
      Array.iter (fun j -> if in_range nl j then push j) fanout.(i)
    end
  done;
  values
