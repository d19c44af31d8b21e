type route = { net : int array; edges : int list; wirelength : float }

(* Dead boundaries are priced huge-but-finite rather than removed: the
   search stays connected (no pin is ever unreachable through the grid
   graph), and any route forced across a dead edge surfaces as overflow —
   the signal the negotiation loop, the retry ladder and the
   minimum-channel-width search all key on.  The constant must dominate
   the congestion term, which grows like pres_fac ~ 1.8^iterations. *)
let dead_edge_penalty = 1e15

(* [len] is the edge's length over the longer bin side. *)
let[@inline] cost grid ~pres_fac ~len e =
  let cap = Array.length grid.Grid.tracks.(e) in
  if cap = 0 then len *. dead_edge_penalty
  else
    let u = grid.Grid.usage.(e) in
    let congestion =
      if u < cap then 1.0 else 1.0 +. (float_of_int (u + 1 - cap) *. pres_fac)
    in
    len *. (1.0 +. grid.Grid.history.(e)) *. congestion

(* Per-domain search scratch, grown on demand and never refilled.  A bin's
   [dist]/[via_*] entries are valid only while [seen] holds the current
   search's stamp (otherwise [dist] reads as infinity); [tree] and [pin]
   hold the current net's stamp for bins in the tree and pin bins.  Stamps
   come from one per-domain counter, so a stale entry never matches. *)
type scratch = {
  mutable stamp : int;
  mutable dist : float array;
  mutable via_bin : int array;
  mutable via_edge : int array;
  mutable seen : int array;
  mutable tree : int array;
  mutable pin : int array;
  mutable tree_bins : int array;  (* the net's tree bins, in join order *)
  mutable heap_cost : float array;
  mutable heap_bin : int array;
  mutable heap_size : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        stamp = 0;
        dist = [||];
        via_bin = [||];
        via_edge = [||];
        seen = [||];
        tree = [||];
        pin = [||];
        tree_bins = [||];
        heap_cost = [||];
        heap_bin = [||];
        heap_size = 0;
      })

let scratch n_bins =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.dist < n_bins then begin
    s.dist <- Array.make n_bins infinity;
    s.via_bin <- Array.make n_bins (-1);
    s.via_edge <- Array.make n_bins (-1);
    s.seen <- Array.make n_bins 0;
    s.tree <- Array.make n_bins 0;
    s.pin <- Array.make n_bins 0;
    s.tree_bins <- Array.make n_bins 0
  end;
  s

let next_stamp s =
  s.stamp <- s.stamp + 1;
  s.stamp

(* Binary min-heap over parallel arrays, ordered by (cost, bin) — the total
   order of a [Set] of [(float, int)] pairs.  No entry is ever pushed twice
   (a bin is pushed only at a strictly lower cost than before), so pops
   come out in exactly the order the set would yield them.  [push s b]
   enters [b] at its current [dist], so no float crosses a call. *)
let[@inline] before c1 b1 c2 b2 =
  match Float.compare c1 c2 with 0 -> b1 < b2 | c -> c < 0

let push s b =
  let c = s.dist.(b) in
  let n = s.heap_size in
  if n = Array.length s.heap_bin then begin
    let cap = max 64 (2 * n) in
    let hc = Array.make cap 0.0 and hb = Array.make cap 0 in
    Array.blit s.heap_cost 0 hc 0 n;
    Array.blit s.heap_bin 0 hb 0 n;
    s.heap_cost <- hc;
    s.heap_bin <- hb
  end;
  s.heap_size <- n + 1;
  let i = ref n in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before c b s.heap_cost.(p) s.heap_bin.(p)
  do
    let p = (!i - 1) / 2 in
    s.heap_cost.(!i) <- s.heap_cost.(p);
    s.heap_bin.(!i) <- s.heap_bin.(p);
    i := p
  done;
  s.heap_cost.(!i) <- c;
  s.heap_bin.(!i) <- b

(* Remove the root; the caller reads it first. *)
let pop s =
  let n = s.heap_size - 1 in
  s.heap_size <- n;
  let c = s.heap_cost.(n) and b = s.heap_bin.(n) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let r = l + 1 in
      let m =
        if
          r < n
          && before s.heap_cost.(r) s.heap_bin.(r) s.heap_cost.(l)
               s.heap_bin.(l)
        then r
        else l
      in
      if before s.heap_cost.(m) s.heap_bin.(m) c b then begin
        s.heap_cost.(!i) <- s.heap_cost.(m);
        s.heap_bin.(!i) <- s.heap_bin.(m);
        i := m
      end
      else sifting := false
    end
  done;
  if n > 0 then begin
    s.heap_cost.(!i) <- c;
    s.heap_bin.(!i) <- b
  end

let[@inline] relax s grid ~pres_fac ~search d b e nb len =
  let nd = d +. cost grid ~pres_fac ~len e in
  let old = if s.seen.(nb) = search then s.dist.(nb) else infinity in
  if nd < old then begin
    s.seen.(nb) <- search;
    s.dist.(nb) <- nd;
    s.via_bin.(nb) <- b;
    s.via_edge.(nb) <- e;
    push s nb
  end

(* Strictly ascending and below [n_bins]. *)
let rec ascending_below n_bins = function
  | a :: (b :: _ as rest) -> a < b && ascending_below n_bins rest
  | [ p ] -> p < n_bins
  | [] -> true

let route_net grid ~pres_fac ~pins =
  let cols = grid.Grid.cols and rows = grid.Grid.rows in
  let n_bins = cols * rows in
  match pins with
  | [] -> invalid_arg "Router.route_net: no pins"
  | first :: _ when first < 0 || not (ascending_below n_bins pins) ->
      invalid_arg "Router.route_net: pins must be ascending, distinct grid bins"
  | [ _ ] -> Some []
  | first :: rest ->
      let longer = max grid.Grid.bin_w grid.Grid.bin_h in
      let len_h = grid.Grid.bin_w /. longer
      and len_v = grid.Grid.bin_h /. longer in
      let s = scratch n_bins in
      let net = next_stamp s in
      List.iter (fun p -> s.pin.(p) <- net) rest;
      s.tree.(first) <- net;
      s.tree_bins.(0) <- first;
      let n_tree = ref 1 in
      let remaining = ref (List.length rest) in
      let tree_edges = ref [] and ok = ref true in
      while !remaining > 0 && !ok do
        (* Dijkstra from the whole tree to the nearest remaining pin. *)
        let search = next_stamp s in
        s.heap_size <- 0;
        for i = 0 to !n_tree - 1 do
          let b = s.tree_bins.(i) in
          s.seen.(b) <- search;
          s.dist.(b) <- 0.0;
          push s b
        done;
        let found = ref (-1) in
        while !found < 0 && s.heap_size > 0 do
          let d = s.heap_cost.(0) and b = s.heap_bin.(0) in
          pop s;
          if d <= s.dist.(b) then begin
            if s.pin.(b) = net && s.tree.(b) <> net then found := b
            else begin
              (* [Grid.iter_neighbors]' order, inline: a closure would
                 box [d]. *)
              let c = b mod cols and r = b / cols in
              if r < rows - 1 then
                relax s grid ~pres_fac ~search d b (Grid.v_edge grid c r)
                  (b + cols) len_v;
              if r > 0 then
                relax s grid ~pres_fac ~search d b
                  (Grid.v_edge grid c (r - 1))
                  (b - cols) len_v;
              if c < cols - 1 then
                relax s grid ~pres_fac ~search d b (Grid.h_edge grid c r)
                  (b + 1) len_h;
              if c > 0 then
                relax s grid ~pres_fac ~search d b
                  (Grid.h_edge grid (c - 1) r)
                  (b - 1) len_h
            end
          end
        done;
        if !found < 0 then ok := false
        else begin
          (* Back-trace into the tree, adding edges. *)
          let b = ref !found in
          while s.tree.(!b) <> net do
            s.tree.(!b) <- net;
            s.tree_bins.(!n_tree) <- !b;
            incr n_tree;
            if s.pin.(!b) = net then decr remaining;
            tree_edges := s.via_edge.(!b) :: !tree_edges;
            b := s.via_bin.(!b)
          done
        end
      done;
      if !ok then Some !tree_edges else None

let commit grid edges =
  List.iter (fun e -> grid.Grid.usage.(e) <- grid.Grid.usage.(e) + 1) edges

let uncommit grid edges =
  List.iter (fun e -> grid.Grid.usage.(e) <- grid.Grid.usage.(e) - 1) edges

let wirelength_of grid edges =
  List.fold_left (fun acc e -> acc +. Grid.edge_length grid e) 0.0 edges
