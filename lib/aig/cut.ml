module Bfun = Vpga_logic.Bfun

type t = { leaves : int array; tt : Bfun.t }

let trivial id = { leaves = [| id |]; tt = Bfun.var ~arity:1 0 }

let leaf_count c = Array.length c.leaves

(* Table of [tt] (over the ascending [leaves]) re-expressed over the
   ascending superset [union.(off) .. union.(off + m - 1)].  The arrays
   here and in [merge_into] are typed [int array]: untyped, their
   comparisons compile to polymorphic compare calls. *)
let expand tt (leaves : int array) (union : int array) off m =
  let nl = Array.length leaves in
  let out = ref 0 in
  for minterm = 0 to (1 lsl m) - 1 do
    let sub = ref 0 and p = ref 0 in
    for i = 0 to nl - 1 do
      while union.(off + !p) <> leaves.(i) do
        incr p
      done;
      if (minterm lsr !p) land 1 = 1 then sub := !sub lor (1 lsl i)
    done;
    if (tt lsr !sub) land 1 = 1 then out := !out lor (1 lsl minterm)
  done;
  !out

(* Merge the ascending leaf sets [a] and [b] into [dst.(off) ..]; the
   union's size, or -1 once it would exceed [k]. *)
let merge_into ~k (a : int array) (b : int array) (dst : int array) off =
  let la = Array.length a and lb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  while !n >= 0 && (!i < la || !j < lb) do
    if !n = k then n := -1
    else begin
      let x =
        if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
          let x = a.(!i) in
          incr i;
          x
        end
        else if !i >= la || b.(!j) < a.(!i) then begin
          let x = b.(!j) in
          incr j;
          x
        end
        else begin
          let x = a.(!i) in
          incr i;
          incr j;
          x
        end
      in
      dst.(off + !n) <- x;
      incr n
    end
  done;
  !n

(* Per-node candidate scratch: candidate [c]'s leaves are
   [cand.(c * k) ..] ([cand_len.(c)] of them), it came from the fanin cut
   pair [(cand_a.(c), cand_b.(c))], and [cand_keep.(c)] marks it chosen. *)
type scratch = {
  cand : int array;
  cand_len : int array;
  cand_a : t array;
  cand_b : t array;
  cand_keep : bool array;
}

let rec same_leaves s ~k d c m i =
  i >= m
  || (s.cand.((d * k) + i) = s.cand.((c * k) + i)
     && same_leaves s ~k d c m (i + 1))

(* Whether candidate [c] (size [m]) repeats one of candidates [0 .. d],
   newest first. *)
let rec seen_before s ~k c m d =
  d >= 0
  && ((s.cand_len.(d) = m && same_leaves s ~k d c m 0)
     || seen_before s ~k c m (d - 1))

(* Record the new merged leaf sets of [c0] with each cut of [c1s] after the
   [found] candidates so far; returns the new count.  A leaf set already
   found keeps its first pair. *)
let rec merge_each s ~k c0 c1s found =
  match c1s with
  | [] -> found
  | c1 :: rest ->
      let m = merge_into ~k c0.leaves c1.leaves s.cand (found * k) in
      if m >= 0 && not (seen_before s ~k found m (found - 1)) then begin
        s.cand_len.(found) <- m;
        s.cand_a.(found) <- c0;
        s.cand_b.(found) <- c1;
        merge_each s ~k c0 rest (found + 1)
      end
      else merge_each s ~k c0 rest found

let rec merge_all s ~k c0s c1s found =
  match c0s with
  | [] -> found
  | c0 :: rest -> merge_all s ~k rest c1s (merge_each s ~k c0 c1s found)

(* The function of candidate [c] (size [m]): the AND of its pair's
   functions, each complemented per its fanin edge, over the union. *)
let cut_of s ~k c m pol0 pol1 =
  let off = c * k in
  let c0 = s.cand_a.(c) and c1 = s.cand_b.(c) in
  let mask = (1 lsl (1 lsl m)) - 1 in
  let t0 = expand (Bfun.table c0.tt) c0.leaves s.cand off m in
  let t1 = expand (Bfun.table c1.tt) c1.leaves s.cand off m in
  let t0 = if pol0 then lnot t0 land mask else t0 in
  let t1 = if pol1 then lnot t1 land mask else t1 in
  { leaves = Array.sub s.cand off m; tt = Bfun.make ~arity:m (t0 land t1) }

let enumerate aig ~k ~max_cuts =
  if max_cuts < 0 then invalid_arg "Cut.enumerate: max_cuts < 0";
  let n = Aig.size aig in
  let cuts = Array.make n [] in
  cuts.(0) <- [ trivial 0 ];
  (* Fanin cut lists hold at most [max_cuts + 1] cuts each. *)
  let pairs = (max_cuts + 1) * (max_cuts + 1) in
  let dummy = trivial 0 in
  let s =
    {
      cand = Array.make (pairs * k) 0;
      cand_len = Array.make pairs 0;
      cand_a = Array.make pairs dummy;
      cand_b = Array.make pairs dummy;
      cand_keep = Array.make pairs false;
    }
  in
  for id = 1 to n - 1 do
    if Aig.is_pi aig id then cuts.(id) <- [ trivial id ]
    else begin
      let l0, l1 = Aig.fanins aig id in
      let pol0 = Aig.is_complement l0 and pol1 = Aig.is_complement l1 in
      let found =
        merge_all s ~k cuts.(Aig.node_of l0) cuts.(Aig.node_of l1) 0
      in
      (* Larger cuts first: they swallow more logic per supernode, which is
         what the area-oriented cover wants; the fanin pair cut and the
         trivial cut keep the small end covered.  Within a size the most
         recently found comes first.  Mark the first [max_cuts] in that
         order, then build the list back to front, computing functions for
         the kept cuts only. *)
      Array.fill s.cand_keep 0 found false;
      let room = ref max_cuts in
      for size = k downto 0 do
        for c = found - 1 downto 0 do
          if !room > 0 && s.cand_len.(c) = size then begin
            s.cand_keep.(c) <- true;
            decr room
          end
        done
      done;
      let kept = ref [] in
      for size = 0 to k do
        for c = 0 to found - 1 do
          if s.cand_keep.(c) && s.cand_len.(c) = size then
            kept := cut_of s ~k c size pol0 pol1 :: !kept
        done
      done;
      cuts.(id) <- trivial id :: !kept
    end
  done;
  (* Ambient-trace counters (no-op when tracing is off). *)
  Vpga_obs.Trace.emit "cuts.nodes" (float_of_int n);
  Vpga_obs.Trace.emit "cuts.enumerated"
    (float_of_int (Array.fold_left (fun acc l -> acc + List.length l) 0 cuts));
  cuts
