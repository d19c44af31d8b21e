type result = { side : bool array; cut : int }

let cut_size nets side =
  let cut = ref 0 in
  for e = 0 to Array.length nets - 1 do
    let net = nets.(e) in
    let l = ref false and r = ref false in
    for i = 0 to Array.length net - 1 do
      if side.(net.(i)) then r := true else l := true
    done;
    if !l && !r then incr cut
  done;
  !cut

(* The FM state of one [run].  Per-net side counts are flat:
   [count.(2 * e + s)] is net [e]'s pin count on side [s] (0 = left).
   Gain buckets are doubly linked lists indexed by gain offset, rebuilt per
   pass. *)
type state = {
  nets : int array array;
  areas : float array;
  max_side : float;
  side : bool array;
  inc_start : int array;  (** vertex [v]'s nets: [inc.(inc_start.(v) ..)] *)
  inc : int array;
  count : int array;
  area_of : float array;  (** total area per side *)
  max_deg : int;
  heads : int array;
  mutable top : int;  (** no bucket above [top] holds a vertex *)
  nxt : int array;
  prv : int array;
  gain : int array;
  in_bucket : bool array;
  moves : int array;  (** this pass's moved vertices, in order *)
}

let[@inline] side_idx st v = if st.side.(v) then 1 else 0

(* Side areas, summed in vertex order. *)
let recompute_areas st =
  st.area_of.(0) <- 0.0;
  st.area_of.(1) <- 0.0;
  for v = 0 to Array.length st.areas - 1 do
    let s = side_idx st v in
    st.area_of.(s) <- st.area_of.(s) +. st.areas.(v)
  done

let recount st =
  for e = 0 to Array.length st.nets - 1 do
    let net = st.nets.(e) in
    st.count.(2 * e) <- 0;
    st.count.((2 * e) + 1) <- 0;
    for i = 0 to Array.length net - 1 do
      let c = (2 * e) + side_idx st net.(i) in
      st.count.(c) <- st.count.(c) + 1
    done
  done

let compute_gain st v =
  let from = side_idx st v in
  let dest = 1 - from in
  let g = ref 0 in
  for i = st.inc_start.(v) to st.inc_start.(v + 1) - 1 do
    let e = st.inc.(i) in
    if st.count.((2 * e) + from) = 1 then incr g;
    if st.count.((2 * e) + dest) = 0 then decr g
  done;
  !g

let[@inline] slot st g = g + st.max_deg

let[@inline] bucket_insert st v =
  let s = slot st st.gain.(v) in
  st.nxt.(v) <- st.heads.(s);
  st.prv.(v) <- -1;
  if st.heads.(s) >= 0 then st.prv.(st.heads.(s)) <- v;
  st.heads.(s) <- v;
  if s > st.top then st.top <- s;
  st.in_bucket.(v) <- true

let[@inline] bucket_remove st v =
  if st.in_bucket.(v) then begin
    let s = slot st st.gain.(v) in
    if st.prv.(v) >= 0 then st.nxt.(st.prv.(v)) <- st.nxt.(v)
    else st.heads.(s) <- st.nxt.(v);
    if st.nxt.(v) >= 0 then st.prv.(st.nxt.(v)) <- st.prv.(v);
    st.in_bucket.(v) <- false
  end

let[@inline] update_gain st v delta =
  if st.in_bucket.(v) then begin
    bucket_remove st v;
    st.gain.(v) <- st.gain.(v) + delta;
    bucket_insert st v
  end
  else st.gain.(v) <- st.gain.(v) + delta

(* Highest-gain movable vertex that keeps balance, or -1: buckets from the
   top, each from its head. *)
let pick st =
  while st.top >= 0 && st.heads.(st.top) < 0 do
    st.top <- st.top - 1
  done;
  let found = ref (-1) and s = ref st.top in
  while !found < 0 && !s >= 0 do
    let v = ref st.heads.(!s) in
    while !found < 0 && !v >= 0 do
      let u = !v in
      if st.area_of.(1 - side_idx st u) +. st.areas.(u) <= st.max_side then
        found := u
      else v := st.nxt.(u)
    done;
    decr s
  done;
  !found

(* Add [delta] to the gain of every other bucketed member of [net]; with
   [only >= 0], only of those on side [only]. *)
let bump st net v only delta =
  for i = 0 to Array.length net - 1 do
    let u = net.(i) in
    if u <> v && st.in_bucket.(u) && (only < 0 || side_idx st u = only) then
      update_gain st u delta
  done

(* Move [v] to the other side, updating gains (standard FM) and areas. *)
let move st v =
  let from = side_idx st v in
  let dest = 1 - from in
  for i = st.inc_start.(v) to st.inc_start.(v + 1) - 1 do
    let e = st.inc.(i) in
    let net = st.nets.(e) in
    let cf = (2 * e) + from and cd = (2 * e) + dest in
    (* before the move *)
    if st.count.(cd) = 0 then bump st net v (-1) 1
    else if st.count.(cd) = 1 then bump st net v dest (-1);
    st.count.(cf) <- st.count.(cf) - 1;
    st.count.(cd) <- st.count.(cd) + 1;
    (* after the move *)
    if st.count.(cf) = 0 then bump st net v (-1) (-1)
    else if st.count.(cf) = 1 then bump st net v from 1
  done;
  st.area_of.(from) <- st.area_of.(from) -. st.areas.(v);
  st.area_of.(dest) <- st.area_of.(dest) +. st.areas.(v);
  st.side.(v) <- not st.side.(v)

(* One FM pass: move vertices greedily until none fits, then roll back to
   the best prefix; returns that prefix's cut. *)
let pass st =
  let n = Array.length st.side in
  recount st;
  Array.fill st.heads 0 (Array.length st.heads) (-1);
  st.top <- -1;
  for v = 0 to n - 1 do
    st.gain.(v) <- compute_gain st v;
    st.in_bucket.(v) <- false
  done;
  for v = 0 to n - 1 do
    bucket_insert st v
  done;
  let cur_cut = ref (cut_size st.nets st.side) in
  let best_prefix = ref 0 and best_prefix_cut = ref !cur_cut in
  let n_moves = ref 0 in
  let v = ref (pick st) in
  while !v >= 0 do
    let u = !v in
    bucket_remove st u;
    cur_cut := !cur_cut - st.gain.(u);
    move st u;
    st.moves.(!n_moves) <- u;
    incr n_moves;
    if !cur_cut < !best_prefix_cut then begin
      best_prefix_cut := !cur_cut;
      best_prefix := !n_moves
    end;
    v := pick st
  done;
  (* roll back moves beyond the best prefix *)
  for i = !best_prefix to !n_moves - 1 do
    let u = st.moves.(i) in
    st.side.(u) <- not st.side.(u)
  done;
  recompute_areas st;
  !best_prefix_cut

let run ?(passes = 8) ?(balance = 0.55) ~seed ~nets ~areas n =
  let rng = Random.State.make [| seed |] in
  let total_area = Array.fold_left ( +. ) 0.0 areas in
  (* Allow at least one largest-cell of slack, or no move is ever legal.
     [max] is [Stdlib.max] typed to floats: the polymorphic one boxes
     every area. *)
  let max (a : float) b = if a >= b then a else b in
  let max_cell = Array.fold_left max 0.0 areas in
  let max_side = max (balance *. total_area) ((total_area /. 2.0) +. max_cell) in
  (* incidence, each vertex's nets ascending (a net once per pin) *)
  let inc_start = Array.make (n + 1) 0 in
  Array.iter
    (fun net ->
      Array.iter (fun v -> inc_start.(v + 1) <- inc_start.(v + 1) + 1) net)
    nets;
  let max_deg = ref 1 in
  for v = 0 to n - 1 do
    if inc_start.(v + 1) > !max_deg then max_deg := inc_start.(v + 1);
    inc_start.(v + 1) <- inc_start.(v + 1) + inc_start.(v)
  done;
  let inc = Array.make inc_start.(n) 0 in
  let fill = Array.sub inc_start 0 n in
  Array.iteri
    (fun e net ->
      Array.iter
        (fun v ->
          inc.(fill.(v)) <- e;
          fill.(v) <- fill.(v) + 1)
        net)
    nets;
  (* random balanced initial partition: shuffle, greedily fill left to half *)
  let side = Array.make n false in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let acc = ref 0.0 in
  Array.iter
    (fun v ->
      if !acc > total_area /. 2.0 then side.(v) <- true
      else acc := !acc +. areas.(v))
    order;
  let st =
    {
      nets;
      areas;
      max_side;
      side;
      inc_start;
      inc;
      count = Array.make (2 * Array.length nets) 0;
      area_of = [| 0.0; 0.0 |];
      max_deg = !max_deg;
      heads = Array.make ((2 * !max_deg) + 1) (-1);
      top = -1;
      nxt = Array.make n (-1);
      prv = Array.make n (-1);
      gain = Array.make n 0;
      in_bucket = Array.make n false;
      moves = Array.make n 0;
    }
  in
  recompute_areas st;
  let best_cut = ref (cut_size nets side) in
  let remaining = ref passes in
  while !remaining > 0 do
    let c = pass st in
    if c < !best_cut then begin
      best_cut := c;
      decr remaining
    end
    else remaining := 0
  done;
  { side; cut = cut_size nets side }
