module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Bfun = Vpga_logic.Bfun
module Gates = Vpga_logic.Gates
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Packer = Vpga_plb.Packer
module Occupancy = Vpga_plb.Occupancy
module Placement = Vpga_place.Placement

type t = {
  arch : Arch.t;
  cols : int;
  rows : int;
  tile_of_node : int array;
  displacement : float;
  mean_displacement_tiles : float;
  tiles_used : int;
}

let item_of_node node =
  match node.Netlist.kind with
  | Kind.Input | Kind.Output | Kind.Const _ -> None
  | Kind.Dff -> Some { Packer.config = Config.Invb; pins = 1; flop = true }
  | Kind.Buf | Kind.Inv ->
      Some { Packer.config = Config.Invb; pins = 1; flop = false }
  | Kind.Mapped { cell; fn } -> (
      match Config.of_cell_name cell with
      | Some c -> Some (Packer.item c fn)
      | None ->
          let cfg =
            match cell with
            | "buf" | "inv" -> Config.Invb
            | "mux2" | "xoa" -> Config.Mx
            | "lut3" -> Config.Lut
            | "nd3wi" | "nd2wi" ->
                if Bfun.support_size fn <= 2 then Config.Nd2 else Config.Nd3
            | other ->
                invalid_arg ("Quadrisect: unknown component cell " ^ other)
          in
          Some (Packer.item cfg fn))
  | Kind.And2 | Kind.Or2 | Kind.Nand2 | Kind.Nor2 | Kind.Xor2 | Kind.Xnor2
  | Kind.Mux2 | Kind.And3 | Kind.Or3 | Kind.Nand3 | Kind.Nor3 | Kind.Xor3
  | Kind.Maj3 ->
      invalid_arg "Quadrisect: netlist is not technology-mapped"

(* The smallest resource vector an item can occupy (its preferred
   alternative), used for the aggregate quadrant balance.  Pure flops
   (registered pass-throughs) occupy only the flip-flop, accounted
   separately. *)
let min_demand arch item =
  if item.Packer.flop && item.Packer.config = Config.Invb then
    Arch.Vector.zero
  else
    match Config.demand arch item.Packer.config with
    | [] -> Arch.Vector.zero
    | d :: _ -> d

type fit_error = {
  design : string;
  dims_tried : int list;
  unplaced : int;
}

let fit_error_to_string fe =
  let last = match List.rev fe.dims_tried with d :: _ -> d | [] -> 0 in
  Printf.sprintf
    "could not fit design %s: %d item(s) still unplaced after growing the \
     array to %dx%d (tried %s)"
    fe.design fe.unplaced last last
    (String.concat ", "
       (List.map (fun d -> Printf.sprintf "%dx%d" d d) fe.dims_tried))

type work_item = {
  node : int;
  item : Packer.item;
  ix : float; (* original placement coordinates *)
  iy : float;
  crit : float;
}

let legalize_result ?(utilization = 0.9) ?criticality ?dead_tile arch pl =
  let nl = pl.Placement.graph.Vpga_place.Hypergraph.nl in
  let n = Netlist.size nl in
  let crit id = match criticality with None -> 0.0 | Some c -> c.(id) in
  let items =
    List.filter_map
      (fun node ->
        match item_of_node node with
        | None -> None
        | Some item ->
            let id = node.Netlist.id in
            Some
              {
                node = id;
                item;
                ix = pl.Placement.x.(id);
                iy = pl.Placement.y.(id);
                crit = crit id;
              })
      (Array.to_list (Netlist.nodes nl))
  in
  (* Array sizing: lower bounds at the target utilization.
     - per-resource, counting only items that need the resource in *every*
       demand alternative (Mx may go to a MUX or the XOA, so it binds
       neither individually);
     - total combinational slots (every alternative occupies at least its
       cheapest slot count);
     - flops.
     The growth loop below handles any residual infeasibility. *)
  let pure_flop w =
    w.item.Packer.flop && w.item.Packer.config = Config.Invb
  in
  let alternatives w =
    if pure_flop w then [] else Config.demand arch w.item.Packer.config
  in
  let must_use r w =
    match alternatives w with
    | [] -> false
    | alts -> List.for_all (fun d -> Arch.Vector.get d r > 0) alts
  in
  let count f = List.fold_left (fun acc w -> acc + if f w then 1 else 0) 0 items in
  let ceil_div_util demand cap =
    if cap <= 0 || demand <= 0 then 0
    else
      int_of_float
        (ceil (float_of_int demand /. (float_of_int cap *. utilization)))
  in
  let resource_bound r =
    ceil_div_util (count (must_use r)) (Arch.Vector.get arch.Arch.capacity r)
  in
  let slots w =
    List.fold_left
      (fun acc d -> min acc (Arch.Vector.total d))
      max_int (alternatives w)
  in
  let comb_slots_demand =
    List.fold_left
      (fun acc w -> acc + (match alternatives w with [] -> 0 | _ -> slots w))
      0 items
  in
  let comb_slots_cap =
    List.fold_left
      (fun acc r ->
        if r = Arch.Ff then acc else acc + Arch.Vector.get arch.Arch.capacity r)
      0 Arch.all_resources
  in
  let ff_bound =
    ceil_div_util
      (count (fun w -> w.item.Packer.flop))
      (Arch.Vector.get arch.Arch.capacity Arch.Ff)
  in
  let min_tiles =
    List.fold_left
      (fun acc r -> max acc (resource_bound r))
      (max 1 (max ff_bound (ceil_div_util comb_slots_demand comb_slots_cap)))
      Arch.all_resources
  in
  (* ---- incremental machinery shared by every attempt ---- *)
  let ws = Array.of_list items in
  let nws = Array.length ws in
  let n_res = List.length Arch.all_resources in
  (* Position in [Arch.all_resources]; [wdem] below is laid out in the
     same order. *)
  let res_index r =
    let rec go i = function
      | [] -> invalid_arg "Quadrisect: unknown resource"
      | x :: rest -> if x = r then i else go (i + 1) rest
    in
    go 0 Arch.all_resources
  in
  (* Per-item aggregate-balance demand (min alternative + the flop), as a
     dense int vector: the drain ledger's unit of account. *)
  let wdem =
    Array.map
      (fun w ->
        let base = min_demand arch w.item in
        let a = Array.make n_res 0 in
        List.iteri (fun i r -> a.(i) <- Arch.Vector.get base r)
          Arch.all_resources;
        if w.item.Packer.flop then begin
          let fi = res_index Arch.Ff in
          a.(fi) <- a.(fi) + 1
        end;
        a)
      ws
  in
  (* One fits memo across all attempts: array growth retries re-ask the
     same multiset questions. *)
  let cache = Occupancy.create_cache arch in
  let drain_moves = ref 0 and ring_steps = ref 0 in
  let attempt dims =
    let cols = dims and rows = dims in
    let tile_w = pl.Placement.die_w /. float_of_int cols in
    let tile_h = pl.Placement.die_h /. float_of_int rows in
    let tile_index c r = (r * cols) + c in
    (* Defective tiles at this discretization: excluded from the ledger's
       aggregate capacity and marked zero-capacity in the occupancy state,
       so neither the balance drains nor the spill search ever target
       them.  [None] (the healthy fabric) takes the unchanged fast path. *)
    let dead =
      match dead_tile with
      | None -> None
      | Some f ->
          let dd = Array.init (cols * rows) (fun t -> f ~cols ~rows t) in
          Vpga_obs.Trace.emit "pack.dead_tiles"
            (float_of_int
               (Array.fold_left (fun a d -> if d then a + 1 else a) 0 dd));
          Some dd
    in
    let dead_pre =
      match dead with
      | None -> [||]
      | Some dd ->
          (* 2D prefix sums over a (cols+1) x (rows+1) grid. *)
          let p = Array.make ((cols + 1) * (rows + 1)) 0 in
          for r = 0 to rows - 1 do
            for c = 0 to cols - 1 do
              let d = if dd.((r * cols) + c) then 1 else 0 in
              p.(((r + 1) * (cols + 1)) + c + 1) <-
                p.((r * (cols + 1)) + c + 1)
                + p.(((r + 1) * (cols + 1)) + c)
                - p.((r * (cols + 1)) + c)
                + d
            done
          done;
          p
    in
    let dead_in (a, b, c, d) =
      if Array.length dead_pre = 0 || c <= a || d <= b then 0
      else
        dead_pre.((d * (cols + 1)) + c)
        - dead_pre.((b * (cols + 1)) + c)
        - dead_pre.((d * (cols + 1)) + a)
        + dead_pre.((b * (cols + 1)) + a)
    in
    (* Recursive quadrisection: fills (node -> tile) assignments.
       Quadrant membership is an intrusive doubly-linked list over
       work-item indices (O(1) move), mirroring the prepend/remove order
       of the original list representation so results stay bit-identical;
       per-quadrant resource demand is a ledger updated on each move
       instead of a full fold per balance query. *)
    let assignment = Array.make n (-1) in
    let nxt = Array.make (max 1 nws) (-1) in
    let prv = Array.make (max 1 nws) (-1) in
    let rec quadrise members c0 r0 c1 r1 =
      if Array.length members = 0 then ()
      else if c1 - c0 = 1 && r1 - r0 = 1 then
        Array.iter
          (fun i -> assignment.(ws.(i).node) <- tile_index c0 r0)
          members
      else begin
        (* Split the region (vertical first when wider). *)
        let cm = if c1 - c0 > 1 then (c0 + c1) / 2 else c1 in
        let rm = if r1 - r0 > 1 then (r0 + r1) / 2 else r1 in
        (* Quadrants: 0 = (c0..cm, r0..rm), 1 = (cm..c1, r0..rm),
           2 = (c0..cm, rm..r1), 3 = (cm..c1, rm..r1); degenerate quadrants
           (zero tiles) stay empty. *)
        let bounds =
          [|
            (c0, r0, cm, rm); (cm, r0, c1, rm); (c0, rm, cm, r1); (cm, rm, c1, r1);
          |]
        in
        let tiles_in (a, b, c, d) = max 0 (c - a) * max 0 (d - b) in
        let quad_of i =
          let w = ws.(i) in
          let qc =
            if cm >= c1 then 0
            else if w.ix >= float_of_int cm *. tile_w then 1
            else 0
          in
          let qr =
            if rm >= r1 then 0
            else if w.iy >= float_of_int rm *. tile_h then 1
            else 0
          in
          (qr * 2) + qc
        in
        let head = Array.make 4 (-1) in
        let qcount = Array.make 4 0 in
        let dem = Array.make_matrix 4 n_res 0 in
        let prepend q i =
          nxt.(i) <- head.(q);
          prv.(i) <- -1;
          if head.(q) >= 0 then prv.(head.(q)) <- i;
          head.(q) <- i;
          qcount.(q) <- qcount.(q) + 1;
          let d = wdem.(i) in
          for r = 0 to n_res - 1 do
            dem.(q).(r) <- dem.(q).(r) + d.(r)
          done
        in
        let unlink q i =
          if prv.(i) >= 0 then nxt.(prv.(i)) <- nxt.(i)
          else head.(q) <- nxt.(i);
          if nxt.(i) >= 0 then prv.(nxt.(i)) <- prv.(i);
          qcount.(q) <- qcount.(q) - 1;
          let d = wdem.(i) in
          for r = 0 to n_res - 1 do
            dem.(q).(r) <- dem.(q).(r) - d.(r)
          done
        in
        Array.iter (fun i -> prepend (quad_of i) i) members;
        (* Balance each resource across quadrants: move least-critical
           users of [res] out of overfull quadrants into the emptiest
           sibling.  Users are sorted by criticality once per
           (resource, quadrant) — drains only remove from the quadrant,
           so the sorted queue stays a faithful view — and [over] reads
           the ledger instead of refolding the membership. *)
        List.iter
          (fun res ->
            let ri = res_index res in
            let cap_per_tile = Arch.Vector.get arch.Arch.capacity res in
            if cap_per_tile > 0 then
              let cap q =
                max 0 (tiles_in bounds.(q) - dead_in bounds.(q))
                * cap_per_tile
              in
              let over q = dem.(q).(ri) - cap q in
              for q = 0 to 3 do
                let users = ref [] in
                let i = ref head.(q) in
                while !i >= 0 do
                  if wdem.(!i).(ri) > 0 then users := !i :: !users;
                  i := nxt.(!i)
                done;
                let users =
                  List.stable_sort
                    (fun a b -> Float.compare ws.(a).crit ws.(b).crit)
                    (List.rev !users)
                in
                let guard = ref qcount.(q) in
                let rec drain = function
                  | [] -> ()
                  | w :: rest ->
                      if !guard > 0 && over q > 0 then begin
                        let dest = ref (-1) in
                        for q2 = 0 to 3 do
                          if q2 <> q && cap q2 > 0 then
                            if !dest < 0 || over q2 < over !dest then
                              dest := q2
                        done;
                        if !dest >= 0 && over !dest < 0 then begin
                          unlink q w;
                          prepend !dest w;
                          incr drain_moves;
                          decr guard;
                          drain rest
                        end
                        (* else: nothing changed, so every remaining
                           iteration would retry the same head against the
                           same ledger — a guaranteed no-op; stop. *)
                      end
                in
                drain users
              done)
          Arch.all_resources;
        let sub =
          Array.init 4 (fun q ->
              let arr = Array.make qcount.(q) 0 in
              let i = ref head.(q) and k = ref 0 in
              while !i >= 0 do
                arr.(!k) <- !i;
                incr k;
                i := nxt.(!i)
              done;
              arr)
        in
        Array.iteri
          (fun q (a, b, c, d) ->
            if tiles_in bounds.(q) > 0 then quadrise sub.(q) a b c d)
          bounds
      end
    in
    quadrise (Array.init nws Fun.id) 0 0 cols rows;
    (* Exact per-tile feasibility with nearest-tile spill, against the
       incremental occupancy state (query == [Packer.fits] on the tile's
       multiset).  Ring offsets are precomputed per Chebyshev distance and
       shared by every spill search of this attempt. *)
    let occ = Array.init (cols * rows) (fun _ -> Occupancy.create cache) in
    (match dead with
    | None -> ()
    | Some dd ->
        Array.iteri (fun t d -> if d then Occupancy.set_dead occ.(t) true) dd);
    let unplaced = ref 0 in
    let max_ring = cols + rows in
    let rings = Array.make (max_ring + 1) [||] in
    let ring_offsets d =
      if Array.length rings.(d) = 0 then begin
        let acc = ref [] in
        for dc = -d to d do
          for dr = -d to d do
            if max (abs dc) (abs dr) = d then acc := (dc, dr) :: !acc
          done
        done;
        rings.(d) <- Array.of_list (List.rev !acc)
      end;
      rings.(d)
    in
    let place_or_spill i =
      let w = ws.(i) in
      let home = assignment.(w.node) in
      let hc = home mod cols and hr = home / cols in
      let rec ring d =
        if d > max_ring then None
        else begin
          let offs = ring_offsets d in
          let found = ref (-1) in
          let k = ref 0 in
          let nk = Array.length offs in
          while !found < 0 && !k < nk do
            let dc, dr = offs.(!k) in
            let c = hc + dc and r = hr + dr in
            if c >= 0 && c < cols && r >= 0 && r < rows then begin
              incr ring_steps;
              let t = tile_index c r in
              if Occupancy.query occ.(t) w.item then found := t
            end;
            incr k
          done;
          if !found >= 0 then Some !found else ring (d + 1)
        end
      in
      let dest =
        if Occupancy.query occ.(home) w.item then Some home else ring 1
      in
      match dest with
      | Some t ->
          if not (Occupancy.add occ.(t) w.item) then assert false;
          assignment.(w.node) <- t
      | None -> incr unplaced
    in
    (* Critical items first so they keep their preferred tiles. *)
    let ordered =
      List.stable_sort
        (fun a b -> Float.compare ws.(b).crit ws.(a).crit)
        (List.init nws Fun.id)
    in
    List.iter place_or_spill ordered;
    if !unplaced > 0 then Error !unplaced
    else begin
      let displacement =
        Array.fold_left
          (fun acc w ->
            let t = assignment.(w.node) in
            let cx = (float_of_int (t mod cols) +. 0.5) *. tile_w in
            let cy = (float_of_int (t / cols) +. 0.5) *. tile_h in
            acc +. Float.hypot (cx -. w.ix) (cy -. w.iy))
          0.0 ws
      in
      let mean_displacement_tiles =
        displacement
        /. (Float.hypot tile_w tile_h *. float_of_int (max 1 nws))
      in
      let used =
        Array.fold_left
          (fun acc o -> if Occupancy.is_empty o then acc else acc + 1)
          0 occ
      in
      Ok
        {
          arch;
          cols;
          rows;
          tile_of_node = assignment;
          displacement;
          mean_displacement_tiles;
          tiles_used = used;
        }
    end
  in
  let start_dims =
    let base = max 2 (int_of_float (ceil (sqrt (float_of_int min_tiles)))) in
    match dead_tile with
    | None -> base
    | Some f ->
        (* Dead tiles shrink the effective array; start from dims whose
           live tile count still meets the lower bound, so the growth
           loop's 12 retries are not wasted rediscovering it. *)
        let live dims =
          let dead_count = ref 0 in
          for t = 0 to (dims * dims) - 1 do
            if f ~cols:dims ~rows:dims t then incr dead_count
          done;
          (dims * dims) - !dead_count
        in
        let rec grow dims =
          if dims >= 64 || live dims >= min_tiles then dims
          else grow (dims + max 1 (dims / 8))
        in
        grow base
  in
  let rec try_dims dims guard tried last_unplaced =
    if guard = 0 then
      Error
        {
          design = Netlist.design_name nl;
          dims_tried = List.rev tried;
          unplaced = last_unplaced;
        }
    else
      match attempt dims with
      | Ok t -> Ok t
      | Error unplaced ->
          try_dims (dims + max 1 (dims / 8)) (guard - 1) (dims :: tried)
            unplaced
  in
  let result = try_dims start_dims 12 [] 0 in
  Vpga_obs.Trace.emit "pack.fits_calls"
    (float_of_int (Occupancy.fits_calls cache));
  Vpga_obs.Trace.emit "pack.fits_cache_hits"
    (float_of_int (Occupancy.cache_hits cache));
  Vpga_obs.Trace.emit "pack.spill_ring_steps" (float_of_int !ring_steps);
  Vpga_obs.Trace.emit "pack.drain_moves" (float_of_int !drain_moves);
  result

let legalize ?utilization ?criticality ?dead_tile arch pl =
  match legalize_result ?utilization ?criticality ?dead_tile arch pl with
  | Ok t -> t
  | Error fe -> failwith ("Quadrisect.legalize: " ^ fit_error_to_string fe)

let array_area t =
  float_of_int (t.cols * t.rows) *. t.arch.Arch.tile_area

let tile_side t = sqrt t.arch.Arch.tile_area

let tile_center t tile =
  (* Tile geometry in the PLB array's own coordinate system. *)
  let side = tile_side t in
  ( (float_of_int (tile mod t.cols) +. 0.5) *. side,
    (float_of_int (tile / t.cols) +. 0.5) *. side )

(* Region decomposition for parallel refinement: a [regions x regions]
   grid of tile rectangles with balanced integer splits, a pure function
   of the array dims — never of worker count — so region ownership (and
   with it every region-local RNG stream) is identical at any [jobs]. *)
let region_bounds ~regions t r =
  if regions < 1 || r < 0 || r >= regions * regions then
    invalid_arg "Quadrisect.region_bounds";
  let gc = r mod regions and gr = r / regions in
  ( gc * t.cols / regions,
    gr * t.rows / regions,
    (gc + 1) * t.cols / regions,
    (gr + 1) * t.rows / regions )

let region_of_tile ~regions t tile =
  if regions < 1 || tile < 0 || tile >= t.cols * t.rows then
    invalid_arg "Quadrisect.region_of_tile";
  let c = tile mod t.cols and r = tile / t.cols in
  (* Inverse of the balanced split: the g with [g*n/regions <= i <
     (g+1)*n/regions] is [((i+1)*regions - 1) / n]. *)
  let gc = (((c + 1) * regions) - 1) / t.cols in
  let gr = (((r + 1) * regions) - 1) / t.rows in
  (gr * regions) + gc

let snap t pl =
  Array.iteri
    (fun id tile ->
      if tile >= 0 then begin
        let x, y = tile_center t tile in
        pl.Placement.x.(id) <- x;
        pl.Placement.y.(id) <- y
      end)
    t.tile_of_node;
  let side = tile_side t in
  {
    pl with
    Placement.die_w = float_of_int t.cols *. side;
    die_h = float_of_int t.rows *. side;
  }
