(* Static region-ownership proof for the region-parallel refinement
   machinery (PR 6): proves, for a concrete packing and region grid, that

   - the [region_bounds] rectangles tile the die exactly (no gap, no
     overlap — every tile has exactly one owner);
   - [region_of_tile] agrees with rectangle membership (the two sides of
     the ownership contract cannot drift apart);
   - every packed node sits on a tile inside the die (so region
     ownership covers the whole packed population);
   - ownership is *closed under Refine's move generation*: a move from a
     tile of region r, displaced by any (dc, dr) and clamped to the
     region's rectangle exactly as [Refine.walk] clamps it, lands on a
     tile [region_of_tile] still assigns to r.  A violation here is a
     would-be data race: a region walk mutating a tile another region
     owns.

   The check is exhaustive over tiles and over the clamp extremes (the
   clamp is monotone, so the extreme displacements bound every
   intermediate one).  It runs on the real [Quadrisect.t] — the same
   array dims and the same integer-split arithmetic the parallel walks
   use — not on a model of it. *)

module Quadrisect = Vpga_pack.Quadrisect
module Diag = Vpga_verify.Diag

type result = {
  diags : Diag.t list;
  checks : int;  (* elementary assertions evaluated *)
}

let check ~regions (q : Quadrisect.t) =
  let radius = Vpga_pack.Refine.radius in
  let regions = max 1 regions in
  let cols = q.Quadrisect.cols and rows = q.Quadrisect.rows in
  let n_tiles = cols * rows in
  let n_regions = regions * regions in
  let diags = ref [] in
  let checks = ref 0 in
  let add d = diags := d :: !diags in
  let bounds = Array.init n_regions (Quadrisect.region_bounds ~regions q) in
  (* Exact cover: count owners per tile from the rectangles. *)
  let owners = Array.make n_tiles 0 in
  Array.iteri
    (fun r (c0, r0, c1, r1) ->
      incr checks;
      if c0 > c1 || r0 > r1 || c0 < 0 || r0 < 0 || c1 > cols || r1 > rows then
        add
          (Diag.error ~nodes:[ r ] "region-bounds"
             "region %d rectangle (%d,%d)-(%d,%d) exceeds the %dx%d array" r
             c0 r0 c1 r1 cols rows)
      else
        for row = r0 to r1 - 1 do
          for col = c0 to c1 - 1 do
            owners.((row * cols) + col) <- owners.((row * cols) + col) + 1
          done
        done)
    bounds;
  for t = 0 to n_tiles - 1 do
    incr checks;
    if owners.(t) <> 1 then
      add
        (Diag.error ~nodes:[ t ]
           (if owners.(t) = 0 then "region-gap" else "region-overlap")
           "tile %d is owned by %d region rectangle(s)" t owners.(t))
  done;
  (* region_of_tile must agree with rectangle membership. *)
  for t = 0 to n_tiles - 1 do
    incr checks;
    let r = Quadrisect.region_of_tile ~regions q t in
    let c = t mod cols and row = t / cols in
    let inside =
      r >= 0 && r < n_regions
      &&
      let c0, r0, c1, r1 = bounds.(r) in
      c >= c0 && c < c1 && row >= r0 && row < r1
    in
    if not inside then
      add
        (Diag.error ~nodes:[ t ] "region-mismatch"
           "region_of_tile says %d but tile %d is outside that rectangle" r t)
  done;
  (* Every packed node's tile must be on the die. *)
  Array.iteri
    (fun id tile ->
      incr checks;
      if tile >= n_tiles then
        add
          (Diag.error ~nodes:[ id ] "tile-range"
             "node %d sits on tile %d outside the %dx%d array" id tile cols
             rows))
    q.Quadrisect.tile_of_node;
  (* Closure under move generation: Refine clamps a displaced tile with
     nc = min (c1-1) (max c0 (c+dc)) (same for rows).  The clamp is
     monotone in the displacement, so checking the four extreme corners
     per tile bounds every (dc, dr) in [-radius, radius]^2, with
     Refine's own [radius]. *)
  for t = 0 to n_tiles - 1 do
    let r = Quadrisect.region_of_tile ~regions q t in
    if r >= 0 && r < n_regions then begin
      let c0, r0, c1, r1 = bounds.(r) in
      if c0 < c1 && r0 < r1 then begin
        let cc = t mod cols and cr = t / cols in
        List.iter
          (fun (dc, dr) ->
            incr checks;
            let nc = min (c1 - 1) (max c0 (cc + dc)) in
            let nr = min (r1 - 1) (max r0 (cr + dr)) in
            let dest = (nr * cols) + nc in
            if Quadrisect.region_of_tile ~regions q dest <> r then
              add
                (Diag.error ~nodes:[ t; dest ] "region-escape"
                   "a clamped move from tile %d (region %d) reaches tile %d \
                    owned by region %d"
                   t r dest
                   (Quadrisect.region_of_tile ~regions q dest)))
          [ (-radius, -radius); (-radius, radius); (radius, -radius);
            (radius, radius) ]
      end
    end
  done;
  { diags = Diag.sort (List.rev !diags); checks = !checks }
