(* First-class manufacturing-defect maps for the regular fabric.

   A map lives in normalized die coordinates ([0,1] x [0,1]): the PLB
   array dims and the routing-grid discretization both vary across retry
   escalations and array growth, so defects are physical die locations
   that each stage maps onto its own discretization at construction time.
   Three defect kinds:

   - dead tiles: points; a PLB tile containing one admits nothing;
   - dead routing edges: points with an orientation; a channel boundary
     whose catchment contains one exposes zero usable tracks;
   - derated boundaries: rectangles with a keep fraction; boundaries
     inside expose only a (seeded, non-contiguous) subset of tracks.

   All generation is a pure function of the seed, so a map is identical
   across jobs settings and sessions. *)

type dist = Uniform | Clustered

type t = {
  seed : int;
  dist : dist;
  dead_tiles : (float * float) array;
  dead_edges : (float * float * bool) array; (* x, y, vertical *)
  derated : (float * float * float * float * float) array;
      (* x0, y0, x1, y1, keep *)
}

let empty =
  {
    seed = 0;
    dist = Uniform;
    dead_tiles = [||];
    dead_edges = [||];
    derated = [||];
  }

let is_empty d =
  Array.length d.dead_tiles = 0
  && Array.length d.dead_edges = 0
  && Array.length d.derated = 0

let rng seed = Random.State.make [| 0xDEF; seed |]

(* Virtual sampling resolution: defect sites are drawn on an R x R grid of
   die locations regardless of the actual array/grid dims.  Site centers
   (not corners) so a defect never sits exactly on a discretization
   boundary. *)
let resolution = 16

let site r i j =
  ((float_of_int i +. 0.5) /. float_of_int r,
   (float_of_int j +. 0.5) /. float_of_int r)

let generate ?(dist = Uniform) ?(tile_rate = 0.0) ?(edge_rate = 0.0)
    ?(derate_rate = 0.0) ?(derate_keep = 0.5) ~seed () =
  let st = rng seed in
  let r = resolution in
  let tiles = ref [] and edges = ref [] in
  (match dist with
  | Uniform ->
      (* Independent per-site coin flips, row-major so the draw order (and
         with it the map) is a function of (seed, rates) alone. *)
      for i = 0 to r - 1 do
        for j = 0 to r - 1 do
          if tile_rate > 0.0 && Random.State.float st 1.0 < tile_rate then
            tiles := site r i j :: !tiles;
          if edge_rate > 0.0 && Random.State.float st 1.0 < edge_rate then begin
            let vertical = Random.State.bool st in
            let x, y = site r i j in
            edges := (x, y, vertical) :: !edges
          end
        done
      done
  | Clustered ->
      (* Defects arrive in spatial clusters (slurry scratches, particle
         showers): a few seeded centers each killing their Chebyshev-1
         neighbourhood with certainty at the center and high probability
         on the ring. *)
      let sites = float_of_int (r * r) in
      let clusters rate = max 1 (int_of_float (Float.round (rate *. sites /. 5.0))) in
      let splat rate add =
        if rate > 0.0 then
          for _ = 1 to clusters rate do
            let ci = Random.State.int st r and cj = Random.State.int st r in
            for di = -1 to 1 do
              for dj = -1 to 1 do
                let i = ci + di and j = cj + dj in
                if i >= 0 && i < r && j >= 0 && j < r then begin
                  let p = if di = 0 && dj = 0 then 1.0 else 0.55 in
                  if Random.State.float st 1.0 < p then add i j
                end
              done
            done
          done
      in
      splat tile_rate (fun i j -> tiles := site r i j :: !tiles);
      splat edge_rate (fun i j ->
          let vertical = Random.State.bool st in
          let x, y = site r i j in
          edges := (x, y, vertical) :: !edges));
  let derated =
    if derate_rate <= 0.0 then [||]
    else
      Array.init
        (max 1 (int_of_float (Float.round (derate_rate *. 8.0))))
        (fun _ ->
          let cx = Random.State.float st 1.0 in
          let cy = Random.State.float st 1.0 in
          let hx = 0.05 +. Random.State.float st 0.15 in
          let hy = 0.05 +. Random.State.float st 0.15 in
          ( max 0.0 (cx -. hx),
            max 0.0 (cy -. hy),
            min 1.0 (cx +. hx),
            min 1.0 (cy +. hy),
            derate_keep ))
  in
  {
    seed;
    dist;
    dead_tiles = Array.of_list (List.rev !tiles);
    dead_edges = Array.of_list (List.rev !edges);
    derated;
  }

let at_rate ?dist ~seed rate =
  if rate <= 0.0 then empty
  else
    generate ?dist ~tile_rate:(0.5 *. rate) ~edge_rate:rate ~derate_rate:rate
      ~seed ()

(* --- per-discretization views --- *)

let tile_of_point ~cols ~rows (u, v) =
  let c = min (cols - 1) (max 0 (int_of_float (u *. float_of_int cols))) in
  let r = min (rows - 1) (max 0 (int_of_float (v *. float_of_int rows))) in
  (r * cols) + c

let tile_dead d ~cols ~rows tile =
  Array.exists (fun p -> tile_of_point ~cols ~rows p = tile) d.dead_tiles

let dead_pred d ~cols ~rows =
  if Array.length d.dead_tiles = 0 then fun _ -> false
  else begin
    let dead = Array.make (cols * rows) false in
    Array.iter
      (fun p -> dead.(tile_of_point ~cols ~rows p) <- true)
      d.dead_tiles;
    fun t -> dead.(t)
  end

(* Deterministic per-(edge, track) hash for derated boundaries: which
   tracks survive must not depend on the grid dims beyond the edge's own
   die location, and must not be a prefix of [0..capacity-1] — the
   detailed router has to genuinely skip interior dead tracks.  Mixing
   the quantized midpoint keeps the choice stable across capacity
   escalation (the surviving *count* scales with capacity; membership may
   churn, which the minimum-channel-width search tolerates because only
   the count drives its monotonicity). *)
let track_hash seed ~cx ~cy ~vertical tr =
  let mix h k = (h * 65599) + k in
  let q f = int_of_float (f *. 8192.0) in
  let h = mix (mix (mix (mix (mix 0 0xD1E) seed) (q cx)) (q cy)) tr in
  mix h (if vertical then 1 else 0) land 0x3FFFFFFF

let tracks d ~cx ~cy ~hw ~hh ~vertical ~capacity =
  let hit_dead =
    Array.exists
      (fun (x, y, v) ->
        v = vertical
        && Float.abs (x -. cx) <= hw
        && Float.abs (y -. cy) <= hh)
      d.dead_edges
  in
  if hit_dead then [||]
  else begin
    let keep =
      Array.fold_left
        (fun acc (x0, y0, x1, y1, k) ->
          if cx >= x0 && cx <= x1 && cy >= y0 && cy <= y1 then min acc k
          else acc)
        1.0 d.derated
    in
    if keep >= 1.0 then Array.init capacity Fun.id
    else begin
      (* Keep the n lowest-hashed tracks, n monotone in capacity. *)
      let n =
        max 1 (int_of_float (ceil (keep *. float_of_int capacity)))
      in
      let ranked =
        Array.init capacity (fun tr ->
            (track_hash d.seed ~cx ~cy ~vertical tr, tr))
      in
      Array.sort compare ranked;
      let kept = Array.init n (fun i -> snd ranked.(i)) in
      Array.sort Int.compare kept;
      kept
    end
  end

let describe d =
  if is_empty d then "no defects"
  else
    Printf.sprintf
      "seed %d, %s: %d dead tile site(s), %d dead edge site(s), %d derated \
       region(s)"
      d.seed
      (match d.dist with Uniform -> "uniform" | Clustered -> "clustered")
      (Array.length d.dead_tiles)
      (Array.length d.dead_edges)
      (Array.length d.derated)
