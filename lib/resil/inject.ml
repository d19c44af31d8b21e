(* Seeded fault injection for every intermediate flow artifact.  Each
   corruptor deterministically picks a victim from the artifact, mutates
   it in place (or returns a corrupted copy for immutable artifacts) and
   hands back an undo closure, so a test can assert that vpga_verify
   catches the fault — or that a retry policy heals it — and then
   restore the artifact for the next injection.

   Targets mirror the flow's artifact chain:
   - [netlist_flip]: rewire one live gate fanin (the netlist-level
     analogue of flipping an AIG edge) — the lint / randomized-equiv /
     CEC gates must notice;
   - [placement_unplace] / [placement_offdie]: break placement legality
     — [Phys.check_placement] must notice;
   - [packing_uncover] / [packing_overfill]: drop a tile assignment, or
     cram duplicated slots into one tile past [Packer.fits] —
     [Phys.check_packing] must notice;
   - [route_drop_edge]: disconnect one routing tree —
     [Phys.check_routing] must notice. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Packer = Vpga_plb.Packer
module Placement = Vpga_place.Placement
module Quadrisect = Vpga_pack.Quadrisect
module Grid = Vpga_route.Grid
module Router = Vpga_route.Router
module Pathfinder = Vpga_route.Pathfinder
module Detail = Vpga_route.Detail
module Int_set = Set.Make (Int)

type fault = { what : string; undo : unit -> unit }

let rng seed = Random.State.make [| 0x5EED; seed |]

let pick st = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int st (List.length l)))

(* Nodes in the cone of an output or a flop D pin: mutating anything
   else is dead logic and not a fault any gate is required to catch. *)
let live_set nl =
  let n = Netlist.size nl in
  let live = Array.make n false in
  let rec mark i =
    if i >= 0 && not live.(i) then begin
      live.(i) <- true;
      Array.iter mark (Netlist.node nl i).Netlist.fanins
    end
  in
  List.iter (fun o -> Array.iter mark (Netlist.node nl o).Netlist.fanins)
    (Netlist.outputs nl);
  List.iter (fun f -> Array.iter mark (Netlist.node nl f).Netlist.fanins)
    (Netlist.flops nl);
  live

let netlist_flip ~seed nl =
  let st = rng seed in
  let live = live_set nl in
  let is_gate node =
    match node.Netlist.kind with
    | Kind.Input | Kind.Output | Kind.Const _ | Kind.Dff -> false
    | _ -> Array.length node.Netlist.fanins > 0
  in
  (* A target must already exist (smaller id, so no combinational loop
     can form) and produce a value (anything but an Output). *)
  let target_ok id t =
    t < id
    &&
    match (Netlist.node nl t).Netlist.kind with
    | Kind.Output -> false
    | _ -> true
  in
  let victims =
    List.filter
      (fun node ->
        live.(node.Netlist.id) && is_gate node
        && List.exists
             (fun t -> target_ok node.Netlist.id t && t <> node.Netlist.fanins.(0))
             (List.init node.Netlist.id (fun i -> i)))
      (Array.to_list (Netlist.nodes nl))
  in
  match pick st victims with
  | None -> invalid_arg "Inject.netlist_flip: no mutable gate in netlist"
  | Some node ->
      let id = node.Netlist.id in
      let pin = Random.State.int st (Array.length node.Netlist.fanins) in
      let old = node.Netlist.fanins.(pin) in
      let targets =
        List.filter
          (fun t -> target_ok id t && t <> old)
          (List.init id (fun i -> i))
      in
      let t =
        match pick st targets with Some t -> t | None -> assert false
      in
      node.Netlist.fanins.(pin) <- t;
      {
        what =
          Printf.sprintf "netlist: rewired fanin %d of node %d from %d to %d"
            pin id old t;
        undo = (fun () -> node.Netlist.fanins.(pin) <- old);
      }

let placed_ids pl =
  let ids = ref [] in
  Array.iteri
    (fun id x -> if Float.is_finite x then ids := id :: !ids)
    pl.Placement.x;
  List.rev !ids

let placement_unplace ~seed pl =
  let st = rng seed in
  match pick st (placed_ids pl) with
  | None -> invalid_arg "Inject.placement_unplace: empty placement"
  | Some id ->
      let old = pl.Placement.x.(id) in
      pl.Placement.x.(id) <- Float.nan;
      {
        what = Printf.sprintf "placement: node %d lost its coordinates" id;
        undo = (fun () -> pl.Placement.x.(id) <- old);
      }

let placement_offdie ~seed pl =
  let st = rng seed in
  match pick st (placed_ids pl) with
  | None -> invalid_arg "Inject.placement_offdie: empty placement"
  | Some id ->
      let old = pl.Placement.x.(id) in
      pl.Placement.x.(id) <- (2.0 *. pl.Placement.die_w) +. 10.0;
      {
        what = Printf.sprintf "placement: node %d pushed outside the die" id;
        undo = (fun () -> pl.Placement.x.(id) <- old);
      }

let packed_ids q =
  let ids = ref [] in
  Array.iteri
    (fun id tile -> if tile >= 0 then ids := id :: !ids)
    q.Quadrisect.tile_of_node;
  List.rev !ids

let packing_uncover ~seed q =
  let st = rng seed in
  match pick st (packed_ids q) with
  | None -> invalid_arg "Inject.packing_uncover: empty packing"
  | Some id ->
      let old = q.Quadrisect.tile_of_node.(id) in
      q.Quadrisect.tile_of_node.(id) <- -1;
      {
        what = Printf.sprintf "packing: node %d dropped from tile %d" id old;
        undo = (fun () -> q.Quadrisect.tile_of_node.(id) <- old);
      }

(* Duplicate placement slots: reassign packable nodes onto one victim
   tile until its contents no longer satisfy [Packer.fits]. *)
let packing_overfill ~seed q nl =
  let st = rng seed in
  let ids = packed_ids q in
  match pick st ids with
  | None -> invalid_arg "Inject.packing_overfill: empty packing"
  | Some victim_id ->
      let tile = q.Quadrisect.tile_of_node.(victim_id) in
      let arch = q.Quadrisect.arch in
      let contents () =
        List.filter_map
          (fun id ->
            if q.Quadrisect.tile_of_node.(id) = tile then
              Quadrisect.item_of_node (Netlist.node nl id)
            else None)
          ids
      in
      let moved = ref [] in
      let others = List.filter (fun id -> q.Quadrisect.tile_of_node.(id) <> tile) ids in
      (try
         List.iter
           (fun id ->
             if not (Packer.fits arch (contents ())) then raise Exit;
             moved := (id, q.Quadrisect.tile_of_node.(id)) :: !moved;
             q.Quadrisect.tile_of_node.(id) <- tile)
           others
       with Exit -> ());
      if Packer.fits arch (contents ()) then begin
        (* Could not overflow (tiny design): restore and report. *)
        List.iter (fun (id, t) -> q.Quadrisect.tile_of_node.(id) <- t) !moved;
        invalid_arg "Inject.packing_overfill: design too small to overfill"
      end;
      let n_moved = List.length !moved in
      {
        what =
          Printf.sprintf "packing: %d duplicated slot(s) crammed into tile %d"
            n_moved tile;
        undo =
          (fun () ->
            List.iter (fun (id, t) -> q.Quadrisect.tile_of_node.(id) <- t)
              !moved);
      }

(* Routing artifacts are consumed immutably, so route corruptors take the
   result binding by reference: the ref is rebound to a corrupted copy
   (sharing the grid) and [undo] restores the original binding — the same
   fault/undo shape as every other corruptor. *)
let route_drop_edge ~seed (r : Pathfinder.result ref) =
  let st = rng seed in
  let orig = !r in
  let multi =
    List.filteri
      (fun _ rt -> List.length rt.Router.edges >= 2)
      orig.Pathfinder.routes
  in
  match pick st multi with
  | None -> invalid_arg "Inject.route_drop_edge: no multi-edge route"
  | Some victim ->
      let n = List.length victim.Router.edges in
      let drop = Random.State.int st n in
      let dropped = List.nth victim.Router.edges drop in
      let routes =
        List.map
          (fun rt ->
            if rt == victim then
              {
                rt with
                Router.edges = List.filteri (fun i _ -> i <> drop) rt.Router.edges;
              }
            else rt)
          orig.Pathfinder.routes
      in
      r := { orig with Pathfinder.routes };
      {
        what =
          Printf.sprintf "routing: dropped edge %d from a %d-edge tree" dropped
            n;
        undo = (fun () -> r := orig);
      }

(* Force a packed node onto a defective tile: the extended
   [Phys.check_packing ~dead_tile] must flag it ([defect-dead-tile]). *)
let defect_dead_tile ~seed ~dead (q : Quadrisect.t) =
  let st = rng seed in
  let n_tiles = q.Quadrisect.cols * q.Quadrisect.rows in
  let dead_tiles =
    List.filter dead (List.init n_tiles Fun.id)
  in
  match (pick st dead_tiles, pick st (packed_ids q)) with
  | None, _ -> invalid_arg "Inject.defect_dead_tile: defect map has no dead tile"
  | _, None -> invalid_arg "Inject.defect_dead_tile: empty packing"
  | Some tile, Some id ->
      let old = q.Quadrisect.tile_of_node.(id) in
      q.Quadrisect.tile_of_node.(id) <- tile;
      {
        what =
          Printf.sprintf "packing: node %d forced onto defective tile %d" id
            tile;
        undo = (fun () -> q.Quadrisect.tile_of_node.(id) <- old);
      }

(* Force a route across a defective (dead) boundary: prepend a pendant
   dead edge to one routing tree.  The far bin must not already be
   touched by the tree, so the result stays an acyclic single tree
   (|edges| = |bins| - 1) and only the capacity / dead-edge checks fire
   ([dead-edge]), not the connectivity ones. *)
let defect_dead_edge ~seed (r : Pathfinder.result ref) =
  let st = rng seed in
  let orig = !r in
  let grid = orig.Pathfinder.grid in
  let candidates =
    List.concat
      (List.mapi
         (fun i rt ->
           if rt.Router.edges = [] then []
           else begin
             let touched =
               List.fold_left
                 (fun acc e ->
                   let a, b = Grid.bins_of grid e in
                   Int_set.add a (Int_set.add b acc))
                 Int_set.empty rt.Router.edges
             in
             let edge_set = Int_set.of_list rt.Router.edges in
             let acc = ref [] in
             Int_set.iter
               (fun bin ->
                 List.iter
                   (fun (e, _) ->
                     let a, b = Grid.bins_of grid e in
                     let far = if Int_set.mem a touched then b else a in
                     if
                       Grid.dead grid e
                       && (not (Int_set.mem e edge_set))
                       && not (Int_set.mem far touched)
                     then acc := (i, e) :: !acc)
                   (Grid.neighbors grid bin))
               touched;
             List.sort_uniq compare !acc
           end)
         orig.Pathfinder.routes)
  in
  match pick st candidates with
  | None ->
      invalid_arg
        "Inject.defect_dead_edge: no pendant dead edge adjacent to a route"
  | Some (victim, e) ->
      let routes =
        List.mapi
          (fun i rt ->
            if i = victim then
              let edges = e :: rt.Router.edges in
              {
                rt with
                Router.edges;
                wirelength = Router.wirelength_of grid edges;
              }
            else rt)
          orig.Pathfinder.routes
      in
      r := { orig with Pathfinder.routes };
      {
        what =
          Printf.sprintf "routing: net %d forced across dead edge %d" victim e;
        undo = (fun () -> r := orig);
      }
