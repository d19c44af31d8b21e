module Bbox = Placement.Bbox

(* Nets at or below this pin count always rescan: with 2-4 pins a mover
   holds a bound alone so often that Bbox's rescan fallback fires
   constantly, and a direct scan is cheaper than bookkeeping plus the
   exception. *)
let small_cutoff = 4

type model = {
  nets : int array array;
  weight : float array;
  incident : int array array; (* per node: incident net ids, ascending *)
  small : bool array;
  scratch : int; (* touched-net capacity: 2 * max node degree *)
}

let model ?criticality (pl : Placement.t) =
  let nets = Placement.nets_with_io pl in
  let n_nodes = Array.length pl.Placement.x in
  (* Net weights: critical nets count more. *)
  let crit id = match criticality with None -> 0.0 | Some c -> c.(id) in
  let weight =
    Array.map
      (fun net ->
        1.0 +. (3.0 *. Array.fold_left (fun a id -> max a (crit id)) 0.0 net))
      nets
  in
  (* Incidence: node id -> net ids.  Nets are visited in id order, so every
     array is ascending and a node listed twice on one net appears twice,
     adjacently. *)
  let deg = Array.make n_nodes 0 in
  Array.iter
    (fun net -> Array.iter (fun id -> deg.(id) <- deg.(id) + 1) net)
    nets;
  let incident = Array.init n_nodes (fun id -> Array.make deg.(id) 0) in
  let fill = Array.make n_nodes 0 in
  Array.iteri
    (fun e net ->
      Array.iter
        (fun id ->
          incident.(id).(fill.(id)) <- e;
          fill.(id) <- fill.(id) + 1)
        net)
    nets;
  {
    nets;
    weight;
    incident;
    small = Array.map (fun net -> Array.length net <= small_cutoff) nets;
    scratch = 2 * Array.fold_left max 1 deg;
  }

let cost m pl =
  let tot = ref 0.0 in
  Array.iteri
    (fun e net -> tot := !tot +. (m.weight.(e) *. Placement.net_hpwl pl net))
    m.nets;
  !tot

(* All-float record: stored flat, so updating a field never allocates. *)
type scalars = {
  mutable total : float;
  mutable d : float; (* cost change of the pending proposal *)
  mutable temp : float;
  mutable alpha : float;
}

type state = {
  m : model;
  view : Placement.t;
  net_cost : float array;
  bbs : Bbox.b array;
  (* Per-proposal scratch: touched nets, moved-pin count per net, which
     mover touched it (bit 1 = first, bit 2 = second), tentative cost. *)
  touched : int array;
  pins : int array;
  which : int array;
  tentative : float array;
  (* The movers' old and new coordinates in {!Bbox.shift}'s layout: the
     first mover at 0..3, the second at 4..7. *)
  mv : float array;
  mutable n : int;
  mutable a : int;
  mutable b : int; (* -1: single mover *)
  f : scalars;
}

let state m view =
  let n_nets = Array.length m.nets in
  let net_cost = Array.make (max 1 n_nets) 0.0 in
  let bbs = Array.make (max 1 n_nets) Bbox.dummy in
  for e = 0 to n_nets - 1 do
    net_cost.(e) <-
      (if m.small.(e) then m.weight.(e) *. Placement.net_hpwl view m.nets.(e)
       else begin
         let b = Bbox.of_net view m.nets.(e) in
         bbs.(e) <- b;
         m.weight.(e) *. Bbox.hpwl b
       end)
  done;
  {
    m;
    view;
    net_cost;
    bbs;
    touched = Array.make m.scratch 0;
    pins = Array.make m.scratch 0;
    which = Array.make m.scratch 0;
    tentative = Array.make m.scratch 0.0;
    mv = Array.make 8 0.0;
    n = 0;
    a = -1;
    b = -1;
    f =
      {
        total = Array.fold_left ( +. ) 0.0 net_cost;
        d = 0.0;
        temp = 0.0;
        alpha = 1.0;
      };
  }

let total st = st.f.total
let temperature st = st.f.temp

(* Record [id] as mover [k] (0 = first, 4 = second) at its current,
   pre-move coordinates. *)
let[@inline] stage st id k =
  st.mv.(k) <- st.view.Placement.x.(id);
  st.mv.(k + 1) <- st.view.Placement.y.(id)

(* Append net [e] with mover bit [which], or coalesce it into the last
   slot when that already holds [e]. *)
let[@inline] push st e which =
  let k = st.n in
  if k > 0 && st.touched.(k - 1) = e then begin
    st.pins.(k - 1) <- st.pins.(k - 1) + 1;
    st.which.(k - 1) <- st.which.(k - 1) lor which
  end
  else begin
    st.touched.(k) <- e;
    st.pins.(k) <- 1;
    st.which.(k) <- which;
    st.n <- k + 1
  end

let touch st a =
  stage st a 0;
  st.a <- a;
  st.b <- -1;
  st.n <- 0;
  let inc = st.m.incident.(a) in
  for i = 0 to Array.length inc - 1 do
    push st inc.(i) 1
  done

let touch_pair_registered st a b =
  touch st a;
  stage st b 4;
  st.b <- b;
  (* [a]'s nets occupy [0, na) in ascending order; walk them with a merge
     pointer so a net both movers share coalesces into [a]'s slot, while
     [b]'s other nets are appended in its own (ascending) order. *)
  let na = st.n in
  let p = ref 0 in
  let inc = st.m.incident.(b) in
  for i = 0 to Array.length inc - 1 do
    let e = inc.(i) in
    while !p < na && st.touched.(!p) < e do
      incr p
    done;
    if !p < na && st.touched.(!p) = e then begin
      st.pins.(!p) <- st.pins.(!p) + 1;
      st.which.(!p) <- st.which.(!p) lor 2
    end
    else push st e 2
  done

let touch_pair_ascending st a b =
  stage st a 0;
  stage st b 4;
  st.a <- a;
  st.b <- b;
  st.n <- 0;
  let ia = st.m.incident.(a) and ib = st.m.incident.(b) in
  let na = Array.length ia and nb = Array.length ib in
  let i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && ia.(!i) <= ib.(!j)) then begin
      push st ia.(!i) 1;
      incr i
    end
    else begin
      push st ib.(!j) 2;
      incr j
    end
  done

(* Offset into [mv] of the one mover on a single-pin touched net. *)
let[@inline] mover_of st i = if st.which.(i) land 1 <> 0 then 0 else 4

(* The one shift-or-rescan rule: a net rescans when it is small, when more
   than one of its pins moved, or when the cached box cannot absorb the
   move ([Bbox.Rescan]); otherwise its box shifts in O(1).  Folds the
   change in touched order: the order decides the float rounding. *)
let evaluate st =
  let m = st.m and v = st.view and mv = st.mv in
  mv.(2) <- v.Placement.x.(st.a);
  mv.(3) <- v.Placement.y.(st.a);
  if st.b >= 0 then begin
    mv.(6) <- v.Placement.x.(st.b);
    mv.(7) <- v.Placement.y.(st.b)
  end;
  let d = ref 0.0 in
  for i = 0 to st.n - 1 do
    let e = st.touched.(i) in
    let w =
      if m.small.(e) || st.pins.(i) > 1 then Placement.net_hpwl v m.nets.(e)
      else
        match Bbox.shift_hpwl st.bbs.(e) mv (mover_of st i) with
        | w -> w
        | exception Bbox.Rescan -> Placement.net_hpwl v m.nets.(e)
    in
    let c = m.weight.(e) *. w in
    st.tentative.(i) <- c;
    d := !d +. (c -. st.net_cost.(e))
  done;
  st.f.d <- !d

let delta st =
  evaluate st;
  st.f.d

let metropolis st rng =
  evaluate st;
  let d = st.f.d and t = st.f.temp in
  (* [max 1e-9 t], spelled out so the comparison is a float one. *)
  let t = if 1e-9 >= t then 1e-9 else t in
  d <= 0.0 || Random.State.float rng 1.0 < exp (-.d /. t)

let commit st =
  let m = st.m and v = st.view in
  for i = 0 to st.n - 1 do
    let e = st.touched.(i) in
    if not m.small.(e) then begin
      if st.pins.(i) > 1 then st.bbs.(e) <- Bbox.of_net v m.nets.(e)
      else
        match Bbox.shift st.bbs.(e) st.mv (mover_of st i) with
        | () -> ()
        | exception Bbox.Rescan -> st.bbs.(e) <- Bbox.of_net v m.nets.(e)
    end;
    st.net_cost.(e) <- st.tentative.(i)
  done;
  st.f.total <- st.f.total +. st.f.d

let schedule ?(t_start = 0.0) st ~iterations =
  let t_start =
    if t_start > 0.0 then t_start
    else max 1.0 (st.f.total /. float_of_int (max 1 (Array.length st.m.nets)))
  in
  let t_end = t_start /. 1000.0 in
  st.f.temp <- t_start;
  st.f.alpha <- exp (log (t_end /. t_start) /. float_of_int (max 1 iterations))

let cool st = st.f.temp <- st.f.temp *. st.f.alpha
