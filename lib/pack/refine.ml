module Netlist = Vpga_netlist.Netlist
module Packer = Vpga_plb.Packer
module Occupancy = Vpga_plb.Occupancy
module Placement = Vpga_place.Placement
module Wirecost = Vpga_place.Wirecost
module Pool = Vpga_par.Pool

type stats = {
  moves : int;
  accepted : int;
  initial_cost : float;
  final_cost : float;
  region_moves : int;
  boundary_moves : int;
}

exception Infeasible of string

let radius = 4

(* Immutable per-run data shared by every walk (and safe to read from
   worker domains: nothing here is mutated once built). *)
type shared = {
  arch : Vpga_plb.Arch.t;
  cols : int;
  rows : int;
  side : float; (* tile side, um *)
  item_of : Packer.item option array;
  model : Wirecost.model;
}

(* One annealing walk: a tile rectangle [c0,c1) x [r0,r1), the ids it may
   move, and a full bookkeeping slice — membership, incremental occupancy
   and the wirelength cost state — over its own coordinate/tile views.
   Views either alias the caller's arrays (the full-die pass mutates in
   place) or are private copies (region walks, merged afterwards). *)
type ctx = {
  sh : shared;
  c0 : int;
  r0 : int;
  c1 : int;
  r1 : int;
  ids : int array;
  tile_of : int array;
  view : Placement.t;
  mem : int array array;
  mem_n : int array;
  cache : Occupancy.cache;
  occ : Occupancy.t array;
  cost : Wirecost.state;
}

(* Tile membership: per-tile dynamic arrays storing ids in reverse list
   order (array slot [count - 1 - k] is what [List.nth _ k] of the
   original list representation returned), so the swap-candidate draw
   consumes the RNG identically.  Prepend is an append; removal shifts
   the (at most [output_pins]-long) tail, preserving order. *)
let push ctx t id =
  let a = ctx.mem.(t) in
  let c = ctx.mem_n.(t) in
  if c = Array.length a then begin
    let a' = Array.make (max 4 (2 * c)) (-1) in
    Array.blit a 0 a' 0 c;
    ctx.mem.(t) <- a'
  end;
  ctx.mem.(t).(c) <- id;
  ctx.mem_n.(t) <- c + 1

let drop ctx t id =
  let a = ctx.mem.(t) and c = ctx.mem_n.(t) in
  let k = ref 0 in
  while a.(!k) <> id do
    incr k
  done;
  Array.blit a (!k + 1) a !k (c - !k - 1);
  ctx.mem_n.(t) <- c - 1

let set_tile ctx id tile =
  let old = ctx.tile_of.(id) in
  drop ctx old id;
  push ctx tile id;
  ctx.tile_of.(id) <- tile;
  let sh = ctx.sh in
  ctx.view.Placement.x.(id) <-
    (float_of_int (tile mod sh.cols) +. 0.5) *. sh.side;
  ctx.view.Placement.y.(id) <-
    (float_of_int (tile / sh.cols) +. 0.5) *. sh.side

let make_ctx sh ~bounds:(bc0, br0, bc1, br1) ~ids ~tile_of ~view =
  let n_tiles = sh.cols * sh.rows in
  let cache = Occupancy.create_cache sh.arch in
  let occ = Array.init n_tiles (fun _ -> Occupancy.create cache) in
  Array.iter
    (fun id ->
      match sh.item_of.(id) with
      | Some it ->
          if not (Occupancy.add occ.(tile_of.(id)) it) then
            raise (Infeasible "Refine.run: initial packing is infeasible")
      | None -> assert false)
    ids;
  let ctx =
    {
      sh;
      c0 = bc0;
      r0 = br0;
      c1 = bc1;
      r1 = br1;
      ids;
      tile_of;
      view;
      mem = Array.make n_tiles [||];
      mem_n = Array.make n_tiles 0;
      cache;
      occ;
      cost = Wirecost.state sh.model view;
    }
  in
  Array.iter (fun id -> push ctx tile_of.(id) id) ids;
  ctx

(* One annealing walk over [ctx]'s rectangle.  With the full-die rectangle
   and the full packed id set this consumes the RNG and produces exactly
   the same move/accept sequence as the original implementation.  Each
   proposal names its movers to the cost state before [set_tile] moves
   them; a swap's nets are summed in ascending net order. *)
let walk ctx ~rng ~iterations =
  let sh = ctx.sh and st = ctx.cost in
  let n_ids = Array.length ctx.ids in
  let accepted = ref 0 in
  if n_ids > 0 && iterations > 0 then begin
    Wirecost.schedule st ~iterations;
    for _ = 1 to iterations do
      let id = ctx.ids.(Random.State.int rng n_ids) in
      let cur = ctx.tile_of.(id) in
      let cc = cur mod sh.cols and cr = cur / sh.cols in
      let dc = Random.State.int rng ((2 * radius) + 1) - radius in
      let dr = Random.State.int rng ((2 * radius) + 1) - radius in
      let nc = min (ctx.c1 - 1) (max ctx.c0 (cc + dc)) in
      let nr = min (ctx.r1 - 1) (max ctx.r0 (cr + dr)) in
      let dest = (nr * sh.cols) + nc in
      if dest <> cur then begin
        let item =
          match sh.item_of.(id) with Some i -> i | None -> assert false
        in
        (* Try a plain move; if the destination is full, try swapping with
           a random resident.  Occupancy verdicts are exact functions of
           the resident multiset, so commits can be deferred to accepted
           moves — the rejected-move path never touches occupancy. *)
        if Occupancy.query ctx.occ.(dest) item then begin
          Wirecost.touch st id;
          set_tile ctx id dest;
          if Wirecost.metropolis st rng then begin
            Wirecost.commit st;
            incr accepted;
            Occupancy.remove ctx.occ.(cur) item;
            if not (Occupancy.add ctx.occ.(dest) item) then assert false
          end
          else set_tile ctx id cur
        end
        else if ctx.mem_n.(dest) > 0 then begin
          let other =
            ctx.mem.(dest).(ctx.mem_n.(dest)
                            - 1
                            - Random.State.int rng ctx.mem_n.(dest))
          in
          let other_item =
            match sh.item_of.(other) with
            | Some i -> i
            | None -> assert false
          in
          (* Both feasibility questions ("does [item] fit in [dest]
             without [other]?" and vice versa) are answered read-only;
             occupancy mutates only when the swap is accepted. *)
          let fwd =
            Occupancy.query_replacing ctx.occ.(dest) ~without:other_item item
          in
          let bwd =
            fwd
            && Occupancy.query_replacing ctx.occ.(cur) ~without:item
                 other_item
          in
          if fwd && bwd then begin
            Wirecost.touch_pair_ascending st id other;
            set_tile ctx id dest;
            set_tile ctx other cur;
            if Wirecost.metropolis st rng then begin
              Wirecost.commit st;
              incr accepted;
              Occupancy.remove ctx.occ.(dest) other_item;
              if not (Occupancy.add ctx.occ.(dest) item) then assert false;
              Occupancy.remove ctx.occ.(cur) item;
              if not (Occupancy.add ctx.occ.(cur) other_item) then
                assert false
            end
            else begin
              set_tile ctx id cur;
              set_tile ctx other dest
            end
          end
        end
      end;
      Wirecost.cool st
    done
  end;
  !accepted

let run ?iterations ?criticality ?(jobs = 1) ?(regions = 1) ~seed q pl =
  if jobs < 1 then invalid_arg "Refine.run: jobs must be positive";
  if regions < 1 then invalid_arg "Refine.run: regions must be positive";
  let nl = pl.Placement.graph.Vpga_place.Hypergraph.nl in
  let n = Netlist.size nl in
  let item_of = Array.make n None in
  Array.iter
    (fun node -> item_of.(node.Netlist.id) <- Quadrisect.item_of_node node)
    (Netlist.nodes nl);
  let packed =
    Array.of_list
      (List.filter
         (fun id -> q.Quadrisect.tile_of_node.(id) >= 0 && item_of.(id) <> None)
         (List.init n Fun.id))
  in
  let n_packed = Array.length packed in
  if n_packed = 0 then
    {
      moves = 0;
      accepted = 0;
      initial_cost = 0.0;
      final_cost = 0.0;
      region_moves = 0;
      boundary_moves = 0;
    }
  else begin
    let model = Wirecost.model ?criticality pl in
    let sh =
      {
        arch = q.Quadrisect.arch;
        cols = q.Quadrisect.cols;
        rows = q.Quadrisect.rows;
        side = Quadrisect.tile_side q;
        item_of;
        model;
      }
    in
    let initial_cost = Wirecost.cost model pl in
    let iterations =
      match iterations with Some i -> i | None -> 60 * n_packed
    in
    (* The region grid is a function of the array dims only (clamped so a
       region is at least one tile wide), never of [jobs].  A single
       region runs no region walks: the full-die pass below takes every
       iteration, which is the sequential reference walk. *)
    let g = max 1 (min regions (min sh.cols sh.rows)) in
    let n_regions = if g = 1 then 0 else g * g in
    (* Region ownership: a packed id belongs to the region whose tile
       rectangle holds its current tile, so every region walk is
       conflict-free by construction. *)
    let owned = Array.make n_regions [] in
    if n_regions > 0 then
      Array.iter
        (fun id ->
          let r =
            Quadrisect.region_of_tile ~regions:g q
              q.Quadrisect.tile_of_node.(id)
          in
          owned.(r) <- id :: owned.(r))
        packed;
    let region_ids = Array.map (fun l -> Array.of_list (List.rev l)) owned in
    (* Budget: about two thirds of the iterations run inside the regions
       (split proportionally to their populations), the rest go to the
       sequential cross-boundary pass that restores inter-region
       mobility. *)
    let region_budget = iterations - (iterations / 3) in
    let share =
      Array.map
        (fun ids -> region_budget * Array.length ids / n_packed)
        region_ids
    in
    let region_total = Array.fold_left ( + ) 0 share in
    let boundary_iters = iterations - region_total in
    (* Region walks read only frozen snapshots (private tile/coordinate
       copies taken before any walk runs) and their own RNG stream
       derived from (seed, region), so results are independent of
       worker count and scheduling. *)
    let thunk r () =
      let ids = region_ids.(r) in
      if Array.length ids = 0 then None
      else begin
        let tile_of = Array.copy q.Quadrisect.tile_of_node in
        let view =
          {
            pl with
            Placement.x = Array.copy pl.Placement.x;
            y = Array.copy pl.Placement.y;
          }
        in
        let ctx =
          make_ctx sh
            ~bounds:(Quadrisect.region_bounds ~regions:g q r)
            ~ids ~tile_of ~view
        in
        let rng = Random.State.make [| seed; r |] in
        let accepted = walk ctx ~rng ~iterations:share.(r) in
        Some (ctx, accepted)
      end
    in
    let results = Pool.run ~jobs (List.init n_regions thunk) in
    (* Merge region results in region order (deterministic; regions own
       disjoint id sets, so order only matters for reproducibility, not
       for the outcome). *)
    let accepted = ref 0 in
    let fits = ref 0 and hits = ref 0 in
    (* Per-region accepted-moves series, sampled on the calling domain
       during the deterministic region-order merge — worker domains
       never see the ambient trace, so this is the one place the
       samples are both ordered and visible. *)
    List.iter
      (function
        | None -> ()
        | Some (ctx, acc) ->
            Vpga_obs.Trace.emit_sample "refine.region_accepted"
              (float_of_int acc);
            accepted := !accepted + acc;
            fits := !fits + Occupancy.fits_calls ctx.cache;
            hits := !hits + Occupancy.cache_hits ctx.cache;
            Array.iter
              (fun id ->
                q.Quadrisect.tile_of_node.(id) <- ctx.tile_of.(id);
                pl.Placement.x.(id) <- ctx.view.Placement.x.(id);
                pl.Placement.y.(id) <- ctx.view.Placement.y.(id))
              ctx.ids)
      results;
    (* The full-die pass with the original seed, in place: after region
       walks it is the cross-boundary pass (swaps may now cross region
       borders, so the decomposition costs no reachability); with one
       region it is the whole walk. *)
    let bctx =
      make_ctx sh
        ~bounds:(0, 0, sh.cols, sh.rows)
        ~ids:packed ~tile_of:q.Quadrisect.tile_of_node ~view:pl
    in
    let rng = Random.State.make [| seed |] in
    let bacc = walk bctx ~rng ~iterations:boundary_iters in
    (* A single-region run reports every move as a region move. *)
    let region_moves, boundary_moves, series =
      if g = 1 then (iterations, 0, "refine.region_accepted")
      else (region_total, boundary_iters, "refine.boundary_accepted")
    in
    Vpga_obs.Trace.emit "pack.fits_calls"
      (float_of_int (!fits + Occupancy.fits_calls bctx.cache));
    Vpga_obs.Trace.emit "pack.fits_cache_hits"
      (float_of_int (!hits + Occupancy.cache_hits bctx.cache));
    Vpga_obs.Trace.emit "refine.region_moves" (float_of_int region_moves);
    Vpga_obs.Trace.emit "refine.boundary_moves" (float_of_int boundary_moves);
    Vpga_obs.Trace.emit_sample series (float_of_int bacc);
    {
      moves = iterations;
      accepted = !accepted + bacc;
      initial_cost;
      final_cost = Wirecost.total bctx.cost;
      region_moves;
      boundary_moves;
    }
  end
