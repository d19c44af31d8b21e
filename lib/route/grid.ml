type t = {
  cols : int;
  rows : int;
  bin_w : float;
  bin_h : float;
  capacity : int;
  usage : int array;
  history : float array;
  tracks : int array array;
}

type track_fn =
  cx:float ->
  cy:float ->
  hw:float ->
  hh:float ->
  vertical:bool ->
  capacity:int ->
  int array

(* Edge layout: horizontal edges first ((cols-1) * rows of them, edge c,r =
   r*(cols-1)+c between bins (c,r) and (c+1,r)), then vertical edges
   (cols * (rows-1), edge c,r = base + r*cols+c between (c,r) and (c,r+1)). *)

let num_h t = (t.cols - 1) * t.rows
let num_edges t = num_h t + (t.cols * (t.rows - 1))
let num_bins t = t.cols * t.rows

let create ?tracks ~cols ~rows ~bin_w ~bin_h ~capacity () =
  if cols < 1 || rows < 1 then invalid_arg "Grid.create: empty grid";
  let t =
    {
      cols;
      rows;
      bin_w;
      bin_h;
      capacity;
      usage = [||];
      history = [||];
      tracks = [||];
    }
  in
  let e = num_edges t in
  let n = max 1 e in
  let track_arrays =
    match tracks with
    | None ->
        (* Healthy fabric: every edge shares one full-track array, so the
           per-edge representation costs one word per edge and the arrays
           compare physically equal. *)
        let full = Array.init capacity Fun.id in
        Array.make n full
    | Some f ->
        let die_w = float_of_int cols *. bin_w in
        let die_h = float_of_int rows *. bin_h in
        let hw = bin_w /. (2.0 *. die_w) and hh = bin_h /. (2.0 *. die_h) in
        let nh = num_h t in
        Array.init n (fun e ->
            if e >= num_edges t then [||]
            else if e < nh then
              let c = e mod (cols - 1) and r = e / (cols - 1) in
              let cx = float_of_int (c + 1) *. bin_w /. die_w in
              let cy = (float_of_int r +. 0.5) *. bin_h /. die_h in
              f ~cx ~cy ~hw ~hh ~vertical:false ~capacity
            else
              let e' = e - nh in
              let c = e' mod cols and r = e' / cols in
              let cx = (float_of_int c +. 0.5) *. bin_w /. die_w in
              let cy = float_of_int (r + 1) *. bin_h /. die_h in
              f ~cx ~cy ~hw ~hh ~vertical:true ~capacity)
  in
  {
    t with
    usage = Array.make n 0;
    history = Array.make n 0.0;
    tracks = track_arrays;
  }

(* Per-edge usable capacity: the healthy value is [t.capacity]; a defective
   edge exposes fewer (possibly zero) usable tracks. *)
let cap t e = Array.length t.tracks.(e)
let dead t e = cap t e = 0

let track_usable t e tr =
  (* The usable-track array is ascending; binary-search membership. *)
  let a = t.tracks.(e) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = a.(mid) in
    if v = tr then found := true
    else if v < tr then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Routing tracks available per um of bin boundary: a handful of metal
   layers at sub-um pitch (see DESIGN.md's synthetic technology). *)
let tracks_per_um = 4.0

let of_placement ?capacity ?tracks pl =
  let die_w = pl.Vpga_place.Placement.die_w in
  let die_h = pl.Vpga_place.Placement.die_h in
  (* target ~45 um bins *)
  let cols = min 48 (max 8 (int_of_float (Float.round (die_w /. 45.0)))) in
  let rows =
    max 2
      (int_of_float (Float.round (float_of_int cols *. die_h /. max 1e-6 die_w)))
  in
  let bin_w = die_w /. float_of_int cols in
  let bin_h = die_h /. float_of_int rows in
  let capacity =
    match capacity with
    | Some c -> c
    | None -> max 8 (int_of_float (min bin_w bin_h *. tracks_per_um))
  in
  let t = create ?tracks ~cols ~rows ~bin_w ~bin_h ~capacity () in
  (match tracks with
  | None -> ()
  | Some _ ->
      let ne = num_edges t in
      let dead_edges = ref 0 and derated = ref 0 in
      for e = 0 to ne - 1 do
        let c = cap t e in
        if c = 0 then incr dead_edges
        else if c < capacity then incr derated
      done;
      Vpga_obs.Trace.emit "route.dead_edges" (float_of_int !dead_edges);
      Vpga_obs.Trace.emit "route.derated_edges" (float_of_int !derated));
  t

let bin_of t ~x ~y =
  let c = min (t.cols - 1) (max 0 (int_of_float (x /. t.bin_w))) in
  let r = min (t.rows - 1) (max 0 (int_of_float (y /. t.bin_h))) in
  (r * t.cols) + c

let coords t b = (b mod t.cols, b / t.cols)

let h_edge t c r = (r * (t.cols - 1)) + c
let v_edge t c r = num_h t + (r * t.cols) + c
let horizontal t e = e < num_h t

let bins_of t e =
  if horizontal t e then begin
    let c = e mod (t.cols - 1) and r = e / (t.cols - 1) in
    let b = (r * t.cols) + c in
    (b, b + 1)
  end
  else begin
    let e = e - num_h t in
    let c = e mod t.cols and r = e / t.cols in
    let b = (r * t.cols) + c in
    (b, b + t.cols)
  end

let iter_neighbors t b f =
  let c = b mod t.cols and r = b / t.cols in
  if r < t.rows - 1 then f (v_edge t c r) (b + t.cols);
  if r > 0 then f (v_edge t c (r - 1)) (b - t.cols);
  if c < t.cols - 1 then f (h_edge t c r) (b + 1);
  if c > 0 then f (h_edge t (c - 1) r) (b - 1)

let neighbors t b =
  let acc = ref [] in
  iter_neighbors t b (fun e nb -> acc := (e, nb) :: !acc);
  List.rev !acc

let edge_between t a b =
  let ca, ra = coords t a and cb, rb = coords t b in
  if ra = rb && abs (ca - cb) = 1 then h_edge t (min ca cb) ra
  else if ca = cb && abs (ra - rb) = 1 then v_edge t ca (min ra rb)
  else invalid_arg "Grid.edge_between: bins not adjacent"

let edge_length t e = if horizontal t e then t.bin_w else t.bin_h

let overflow t =
  let acc = ref 0 in
  Array.iteri
    (fun e u -> acc := !acc + max 0 (u - Array.length t.tracks.(e)))
    t.usage;
  !acc

let center t b =
  let c, r = coords t b in
  ((float_of_int c +. 0.5) *. t.bin_w, (float_of_int r +. 0.5) *. t.bin_h)
