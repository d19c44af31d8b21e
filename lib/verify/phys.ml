(* Physical invariant checkers for the back half of the flow, one per
   physical stage, each returning {!Diag.t}s:

   - placement legality: every item has finite coordinates inside the die;
   - PLB packing coverage: every packable netlist node is assigned exactly
     one in-range tile, every tile's contents satisfy the architecture's
     resource/pin capacities ([Packer.fits]), and every mapped cell's
     function is actually in the feasibility set of the configuration it
     claims ([Config.feasible]);
   - routing connectivity: each global route is a connected *tree* (no
     cycles, one component) spanning exactly its net's pin bins, and the
     per-edge channel capacities hold;
   - detailed-routing track assignment: every crossing on a usable track,
     no track shared by two nets. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Bfun = Vpga_logic.Bfun
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Packer = Vpga_plb.Packer
module Placement = Vpga_place.Placement
module Quadrisect = Vpga_pack.Quadrisect
module Grid = Vpga_route.Grid
module Router = Vpga_route.Router
module Pathfinder = Vpga_route.Pathfinder
module Detail = Vpga_route.Detail

(* --- placement legality --- *)

let check_placement ?(eps = 1e-6) (pl : Placement.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let bad_x = ref [] and bad_y = ref [] and not_placed = ref [] in
  Array.iteri
    (fun id x ->
      let y = pl.Placement.y.(id) in
      if not (Float.is_finite x && Float.is_finite y) then
        not_placed := id :: !not_placed
      else begin
        if x < -.eps || x > pl.Placement.die_w +. eps then bad_x := id :: !bad_x;
        if y < -.eps || y > pl.Placement.die_h +. eps then bad_y := id :: !bad_y
      end)
    pl.Placement.x;
  if !not_placed <> [] then
    add
      (Diag.error ~nodes:(List.rev !not_placed) "unplaced"
         "%d item(s) have no finite placement" (List.length !not_placed));
  if !bad_x <> [] then
    add
      (Diag.error ~nodes:(List.rev !bad_x) "outside-die"
         "%d item(s) placed outside the die in x (die %.1f x %.1f)"
         (List.length !bad_x) pl.Placement.die_w pl.Placement.die_h);
  if !bad_y <> [] then
    add
      (Diag.error ~nodes:(List.rev !bad_y) "outside-die"
         "%d item(s) placed outside the die in y (die %.1f x %.1f)"
         (List.length !bad_y) pl.Placement.die_w pl.Placement.die_h);
  Diag.sort (List.rev !diags)

(* --- PLB packing coverage --- *)

let check_packing ?(dead_tile = fun _ -> false) (q : Quadrisect.t) nl =
  let arch = q.Quadrisect.arch in
  let n_tiles = q.Quadrisect.cols * q.Quadrisect.rows in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let tile_items = Array.make (max 1 n_tiles) [] in
  Array.iter
    (fun node ->
      let id = node.Netlist.id in
      let tile = q.Quadrisect.tile_of_node.(id) in
      match Quadrisect.item_of_node node with
      | None ->
          if tile >= 0 then
            add
              (Diag.error ~nodes:[ id ] "spurious-tile"
                 "non-packable node %d (%s) is assigned tile %d" id
                 (Kind.name node.Netlist.kind) tile)
      | Some item ->
          if tile < 0 then
            add
              (Diag.error ~nodes:[ id ] "uncovered"
                 "packable node %d (%s) is not assigned to any tile" id
                 (Kind.name node.Netlist.kind))
          else if tile >= n_tiles then
            add
              (Diag.error ~nodes:[ id ] "tile-range"
                 "node %d assigned to tile %d outside the %dx%d array" id tile
                 q.Quadrisect.cols q.Quadrisect.rows)
          else begin
            if dead_tile tile then
              add
                (Diag.error ~nodes:[ id ] "defect-dead-tile"
                   "node %d is packed into defective tile %d" id tile);
            tile_items.(tile) <- (id, item) :: tile_items.(tile);
            (* The configuration must actually implement the node's
               function. *)
            match node.Netlist.kind with
            | Kind.Mapped { cell; fn } -> (
                match Config.of_cell_name cell with
                | Some cfg ->
                    if
                      not (Config.feasible cfg (Bfun.extend fn ~arity:3))
                    then
                      add
                        (Diag.error ~nodes:[ id ] "infeasible-config"
                           "node %d: function %s is not implementable by \
                            configuration %s"
                           id (Bfun.to_string fn) (Config.name cfg))
                | None -> ())
            | _ -> ()
          end)
    (Netlist.nodes nl);
  Array.iteri
    (fun tile items ->
      if items <> [] && not (Packer.fits arch (List.map snd items)) then
        add
          (Diag.error ~nodes:(List.map fst items) "tile-overflow"
             "tile %d exceeds the %s capacity with %d item(s)" tile
             arch.Arch.name (List.length items)))
    tile_items;
  Diag.sort (List.rev !diags)

(* --- routing connectivity --- *)

(* Union-find over grid bins. *)
let uf_find parent b =
  let rec go b = if parent.(b) = b then b else go parent.(b) in
  let root = go b in
  let rec compress b =
    if parent.(b) <> root then begin
      let next = parent.(b) in
      parent.(b) <- root;
      compress next
    end
  in
  compress b;
  root

let check_route grid ~net_index ~pins ~edges =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n_bins = Grid.num_bins grid in
  let n_edges = Grid.num_edges grid in
  let parent = Array.init n_bins Fun.id in
  let touched = Hashtbl.create 16 in
  let cycle = ref false in
  List.iter
    (fun e ->
      if e < 0 || e >= n_edges then
        add
          (Diag.error ~nodes:[ net_index ] "bad-edge"
             "net %d: route uses out-of-range edge %d" net_index e)
      else begin
        let a, b = Grid.bins_of grid e in
        Hashtbl.replace touched a ();
        Hashtbl.replace touched b ();
        let ra = uf_find parent a and rb = uf_find parent b in
        if ra = rb then cycle := true else parent.(ra) <- rb
      end)
    edges;
  if !cycle then
    add
      (Diag.error ~nodes:[ net_index ] "route-cycle"
         "net %d: route edges contain a cycle (not a tree)" net_index);
  (* Spanning: every pin bin must be in the single connected component. *)
  (match pins with
  | [] -> ()
  | p0 :: rest ->
      let r0 = uf_find parent p0 in
      List.iter
        (fun p ->
          if uf_find parent p <> r0 then
            add
              (Diag.error ~nodes:[ net_index ] "route-disconnected"
                 "net %d: route does not connect all pin bins" net_index))
        rest);
  (* Exactly its net's pins: edges must not wander into bins that connect
     nothing (a tree on the touched bins has |edges| = |bins| - 1; with the
     cycle check above this is equivalent, but it catches detached edge
     clumps that happen to be acyclic). *)
  let n_touched = Hashtbl.length touched in
  if (not !cycle) && edges <> [] && List.length edges <> n_touched - 1 then
    add
      (Diag.error ~nodes:[ net_index ] "route-forest"
         "net %d: %d edges over %d bins is not a single tree" net_index
         (List.length edges) n_touched);
  List.rev !diags

let check_routing (r : Pathfinder.result) (pl : Placement.t) =
  let grid = r.Pathfinder.grid in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let usage = Array.make (max 1 (Grid.num_edges grid)) 0 in
  List.iteri
    (fun net_index rt ->
      let pins =
        Array.to_list rt.Router.net
        |> List.map (fun id ->
               Grid.bin_of grid ~x:pl.Placement.x.(id) ~y:pl.Placement.y.(id))
        |> List.sort_uniq Int.compare
      in
      List.iter
        (fun e ->
          if e >= 0 && e < Array.length usage then usage.(e) <- usage.(e) + 1)
        rt.Router.edges;
      diags :=
        List.rev_append
          (check_route grid ~net_index ~pins ~edges:rt.Router.edges)
          !diags)
    r.Pathfinder.routes;
  (* Channel capacities.  When the negotiation itself gave up with leftover
     overflow the result is advertised as such ([final_overflow > 0]); only
     an inconsistency between the claim and the routes is an error. *)
  let over = ref 0 and dead_used = ref 0 in
  Array.iteri
    (fun e u ->
      let cap = Grid.cap grid e in
      over := !over + max 0 (u - cap);
      if cap = 0 && u > 0 then dead_used := !dead_used + u)
    usage;
  if !over > 0 && r.Pathfinder.final_overflow = 0 then
    add
      (Diag.error "capacity"
         "routes exceed channel capacity by %d but the router claimed none"
         !over);
  (* Any crossing of a dead boundary is also counted in [over], so a
     converged result ([final_overflow = 0]) can never hide one; flag the
     defect use explicitly when the claim and the routes disagree. *)
  if !dead_used > 0 && r.Pathfinder.final_overflow = 0 then
    add
      (Diag.error "dead-edge"
         "routes cross defective (dead) boundaries %d time(s) but the \
          router claimed convergence"
         !dead_used);
  if !over <> r.Pathfinder.final_overflow then
    add
      (Diag.warning "overflow-mismatch"
         "recomputed overflow %d differs from reported %d" !over
         r.Pathfinder.final_overflow)
  else if !over > 0 then
    add
      (Diag.info "unrouted-overflow"
         "global routing left %d unit(s) of channel overflow" !over);
  Diag.sort (List.rev !diags)

(* Detailed-routing track assignment: every crossing has a track, every
   assigned track is usable on its edge, and no (edge, track) pair is
   shared by two nets.  One [track-conflict] per violation, naming the net. *)
let check_tracks (d : Detail.t) routes =
  let diags = ref [] in
  let seen = Hashtbl.create 1024 in
  List.iteri
    (fun net rt ->
      List.iter
        (fun e ->
          match Hashtbl.find_opt d.Detail.track (e, net) with
          | None ->
              diags :=
                Diag.error ~nodes:[ net ] "track-conflict"
                  "net %d unassigned on edge %d" net e
                :: !diags
          | Some tr ->
              if tr < 0 || not (Grid.track_usable d.Detail.grid e tr) then
                diags :=
                  Diag.error ~nodes:[ net ] "track-conflict"
                    "net %d track %d not usable on edge %d" net tr e
                  :: !diags;
              (match Hashtbl.find_opt seen (e, tr) with
              | Some other when other <> net ->
                  diags :=
                    Diag.error ~nodes:[ net ] "track-conflict"
                      "edge %d track %d shared by nets %d and %d" e tr other
                      net
                    :: !diags
              | Some _ | None -> ());
              Hashtbl.replace seen (e, tr) net)
        rt.Router.edges)
    routes;
  List.rev !diags
