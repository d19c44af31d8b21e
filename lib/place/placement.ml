module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind

type t = {
  graph : Hypergraph.t;
  die_w : float;
  die_h : float;
  x : float array;
  y : float array;
}

let die_of_area ?(utilization = 0.7) area =
  let side = sqrt (area /. utilization) in
  (side, side)

let nets_with_io_of nl =
  let fanout = Netlist.fanout nl in
  let nets = ref [] in
  Array.iteri
    (fun id sinks ->
      let node = Netlist.node nl id in
      let drives =
        match node.Netlist.kind with
        | Kind.Output -> false (* output pads drive nothing *)
        | Kind.Const _ -> false (* constants are tie-offs, not wires *)
        | _ -> Array.length sinks > 0
      in
      if drives then nets := Array.append [| id |] sinks :: !nets)
    fanout;
  Array.of_list !nets

let create ?utilization nl =
  let graph = Hypergraph.build nl in
  let die_w, die_h = die_of_area ?utilization (Hypergraph.total_area graph) in
  let n = Netlist.size nl in
  let x = Array.make n (die_w /. 2.0) and y = Array.make n (die_h /. 2.0) in
  let spread ids x0 =
    let k = List.length ids in
    List.iteri
      (fun i id ->
        x.(id) <- x0;
        y.(id) <- die_h *. (float_of_int (i + 1) /. float_of_int (k + 1)))
      ids
  in
  spread (Netlist.inputs nl) 0.0;
  spread (Netlist.outputs nl) die_w;
  { graph; die_w; die_h; x; y }

let net_hpwl t net =
  (* Bounds in a float array (min_x, max_x, min_y, max_y): element writes
     stay unboxed, where float refs would allocate on every update — this
     scan is the annealer's and the refiner's rescan primitive. *)
  let b = [| infinity; neg_infinity; infinity; neg_infinity |] in
  let xs = t.x and ys = t.y in
  for i = 0 to Array.length net - 1 do
    let id = net.(i) in
    let x = xs.(id) and y = ys.(id) in
    if x < b.(0) then b.(0) <- x;
    if x > b.(1) then b.(1) <- x;
    if y < b.(2) then b.(2) <- y;
    if y > b.(3) then b.(3) <- y
  done;
  b.(1) -. b.(0) +. (b.(3) -. b.(2))

let nets_with_io t = nets_with_io_of t.graph.Hypergraph.nl

let hpwl ?nets t =
  let nets = match nets with Some n -> n | None -> nets_with_io t in
  Array.fold_left (fun acc net -> acc +. net_hpwl t net) 0.0 nets

(* Cached per-net bounding boxes with boundary multiplicity, for incremental
   HPWL maintenance (the annealer's hot path).  [n_*] counts the pins sitting
   exactly on each boundary: while a bound has multiplicity > 1, a pin can
   leave it without a rescan.  Every field is a float, counts included, so
   the record is stored flat and no field read or write allocates. *)
module Bbox = struct
  type b = {
    mutable min_x : float;
    mutable max_x : float;
    mutable min_y : float;
    mutable max_y : float;
    mutable n_min_x : float;
    mutable n_max_x : float;
    mutable n_min_y : float;
    mutable n_max_y : float;
  }

  let of_net t net =
    let b =
      {
        min_x = infinity;
        max_x = neg_infinity;
        min_y = infinity;
        max_y = neg_infinity;
        n_min_x = 0.0;
        n_max_x = 0.0;
        n_min_y = 0.0;
        n_max_y = 0.0;
      }
    in
    for i = 0 to Array.length net - 1 do
      let x = t.x.(net.(i)) and y = t.y.(net.(i)) in
      if x < b.min_x then begin b.min_x <- x; b.n_min_x <- 1.0 end
      else if x = b.min_x then b.n_min_x <- b.n_min_x +. 1.0;
      if x > b.max_x then begin b.max_x <- x; b.n_max_x <- 1.0 end
      else if x = b.max_x then b.n_max_x <- b.n_max_x +. 1.0;
      if y < b.min_y then begin b.min_y <- y; b.n_min_y <- 1.0 end
      else if y = b.min_y then b.n_min_y <- b.n_min_y +. 1.0;
      if y > b.max_y then begin b.max_y <- y; b.n_max_y <- 1.0 end
      else if y = b.max_y then b.n_max_y <- b.n_max_y +. 1.0
    done;
    b

  let hpwl b = b.max_x -. b.min_x +. (b.max_y -. b.min_y)

  (* Shared placeholder for slots whose net is tracked by rescan instead of
     incrementally (e.g. the annealer's small-net cutoff).  Never mutated. *)
  let dummy =
    {
      min_x = 0.0;
      max_x = 0.0;
      min_y = 0.0;
      max_y = 0.0;
      n_min_x = 0.0;
      n_max_x = 0.0;
      n_min_y = 0.0;
      n_max_y = 0.0;
    }

  exception Rescan

  (* One coordinate axis, min side: pin moved [o] -> [n] (n <> o) against
     bound [bound] held by [count] pins.  The new bound is [min n bound];
     this returns the new count, or raises [Rescan] when the pin was alone
     on the bound and moved off it inward (the cached record can't tell
     where the next pin is).  The helpers are inlined and typed [float]
     so every comparison is a float one and nothing is boxed. *)
  let[@inline] min_count (bound : float) count ~(o : float) ~n =
    if n < bound then 1.0
    else if o = bound then if count > 1.0 then count -. 1.0 else raise Rescan
    else if n = bound then count +. 1.0
    else count

  let[@inline] max_count (bound : float) count ~(o : float) ~n =
    if n > bound then 1.0
    else if o = bound then if count > 1.0 then count -. 1.0 else raise Rescan
    else if n = bound then count +. 1.0
    else count

  (* In-place update of [b] for one pin moved from (mv.(k), mv.(k+1)) to
     (mv.(k+2), mv.(k+3)).  Raises [Rescan] when the cached record is
     insufficient; the caller must rebuild with [of_net] (coordinate
     arrays already hold the new position).  [b] may be left partially
     updated on raise — callers always rebuild it in that case. *)
  let shift b (mv : float array) k =
    let ox = mv.(k) and oy = mv.(k + 1) in
    let nx = mv.(k + 2) and ny = mv.(k + 3) in
    if nx <> ox then begin
      let cn = min_count b.min_x b.n_min_x ~o:ox ~n:nx in
      let cx = max_count b.max_x b.n_max_x ~o:ox ~n:nx in
      if nx < b.min_x then b.min_x <- nx;
      if nx > b.max_x then b.max_x <- nx;
      b.n_min_x <- cn;
      b.n_max_x <- cx
    end;
    if ny <> oy then begin
      let cn = min_count b.min_y b.n_min_y ~o:oy ~n:ny in
      let cx = max_count b.max_y b.n_max_y ~o:oy ~n:ny in
      if ny < b.min_y then b.min_y <- ny;
      if ny > b.max_y then b.max_y <- ny;
      b.n_min_y <- cn;
      b.n_max_y <- cx
    end

  (* Allocation-free tentative evaluation: the HPWL after the move, or
     [Rescan].  One branch per bound, mirroring [min_count]/[max_count]. *)
  let[@inline] min_bound (bound : float) count (o : float) n =
    if n <= bound then n
    else if o > bound then bound
    else if count > 1.0 then bound
    else raise Rescan

  let[@inline] max_bound (bound : float) count (o : float) n =
    if n >= bound then n
    else if o < bound then bound
    else if count > 1.0 then bound
    else raise Rescan

  let shift_hpwl b (mv : float array) k =
    let ox = mv.(k) and oy = mv.(k + 1) in
    let nx = mv.(k + 2) and ny = mv.(k + 3) in
    let min_x = if nx = ox then b.min_x else min_bound b.min_x b.n_min_x ox nx in
    let max_x = if nx = ox then b.max_x else max_bound b.max_x b.n_max_x ox nx in
    let min_y = if ny = oy then b.min_y else min_bound b.min_y b.n_min_y oy ny in
    let max_y = if ny = oy then b.max_y else max_bound b.max_y b.n_max_y oy ny in
    max_x -. min_x +. (max_y -. min_y)
end

let scatter ~seed t =
  let rng = Random.State.make [| seed |] in
  Array.iter
    (fun id ->
      t.x.(id) <- Random.State.float rng t.die_w;
      t.y.(id) <- Random.State.float rng t.die_h)
    t.graph.Hypergraph.node_of_vertex
