(* Tests for the physical-design substrates: FM partitioning, placement,
   buffering, routing, quadrisection packing and STA. *)

module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Equiv = Vpga_netlist.Equiv
module Bfun = Vpga_logic.Bfun
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
open Vpga_place
open Vpga_route
module Quadrisect = Vpga_pack.Quadrisect
module Sta = Vpga_timing.Sta
module Techmap = Vpga_mapper.Techmap
module Compact = Vpga_mapper.Compact

(* --- FM ------------------------------------------------------------------- *)

let test_fm_splits_cliques () =
  (* two 4-cliques joined by one net: optimal cut is 1 *)
  let clique base = List.init 4 (fun i -> List.init 4 (fun j -> base + ((i + j) mod 4))) in
  ignore clique;
  let nets =
    [
      [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 0; 3 |]; [| 0; 2 |]; [| 1; 3 |];
      [| 4; 5 |]; [| 5; 6 |]; [| 6; 7 |]; [| 4; 7 |]; [| 4; 6 |]; [| 5; 7 |];
      [| 3; 4 |];
    ]
  in
  let nets = Array.of_list nets in
  let areas = Array.make 8 1.0 in
  let r = Fm.run ~seed:3 ~nets ~areas 8 in
  Alcotest.(check int) "cut of joined cliques" 1 r.Fm.cut;
  Alcotest.(check int) "cut consistent" r.Fm.cut (Fm.cut_size nets r.Fm.side)

let prop_fm_never_worse_than_reported =
  QCheck.Test.make ~name:"reported cut matches the partition" ~count:30
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 12 in
      let nets =
        Array.init 20 (fun _ ->
            let a = Random.State.int rng n in
            let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
            [| a; b |])
      in
      let areas = Array.make n 1.0 in
      let r = Fm.run ~seed ~nets ~areas n in
      r.Fm.cut = Fm.cut_size nets r.Fm.side)

let prop_fm_balance =
  QCheck.Test.make ~name:"balance respected" ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 16 in
      let nets =
        Array.init 24 (fun _ ->
            let a = Random.State.int rng n in
            let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
            [| a; b |])
      in
      let areas = Array.make n 1.0 in
      let r = Fm.run ~balance:0.6 ~seed ~nets ~areas n in
      let right =
        Array.fold_left (fun acc s -> if s then acc +. 1.0 else acc) 0.0 r.Fm.side
      in
      right <= 0.6 *. float_of_int n +. 1.0
      && float_of_int n -. right <= (0.6 *. float_of_int n) +. 1.0)

(* The closure- and list-based FM [Fm.run] replaced, kept verbatim as the
   reference its flat-array rewrite must reproduce. *)
module Reference_fm = struct
  let cut_size nets side =
    Array.fold_left
      (fun acc net ->
        let l = Array.exists (fun v -> not side.(v)) net in
        let r = Array.exists (fun v -> side.(v)) net in
        if l && r then acc + 1 else acc)
      0 nets

  let run ?(passes = 8) ?(balance = 0.55) ~seed ~nets ~areas n =
    let rng = Random.State.make [| seed |] in
    let total_area = Array.fold_left ( +. ) 0.0 areas in
    (* Allow at least one largest-cell of slack, or no move is ever legal. *)
    let max_cell = Array.fold_left max 0.0 areas in
    let max_side = max (balance *. total_area) ((total_area /. 2.0) +. max_cell) in
    (* incidence *)
    let deg = Array.make n 0 in
    Array.iter (fun net -> Array.iter (fun v -> deg.(v) <- deg.(v) + 1) net) nets;
    let incident = Array.init n (fun v -> Array.make deg.(v) 0) in
    let fill = Array.make n 0 in
    Array.iteri
      (fun e net ->
        Array.iter
          (fun v ->
            incident.(v).(fill.(v)) <- e;
            fill.(v) <- fill.(v) + 1)
          net)
      nets;
    let max_deg = Array.fold_left max 1 deg in
    (* random balanced initial partition: shuffle, greedily fill left to half *)
    let side = Array.make n false in
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let acc = ref 0.0 in
    Array.iter
      (fun v ->
        if !acc > total_area /. 2.0 then side.(v) <- true
        else acc := !acc +. areas.(v))
      order;
    let area_of = [| ref 0.0; ref 0.0 |] in
    let side_idx v = if side.(v) then 1 else 0 in
    let recompute_areas () =
      area_of.(0) := 0.0;
      area_of.(1) := 0.0;
      for v = 0 to n - 1 do
        let a = area_of.(side_idx v) in
        a := !a +. areas.(v)
      done
    in
    recompute_areas ();
    (* Per-net side counts. *)
    let count = Array.map (fun _ -> [| 0; 0 |]) nets in
    let recount () =
      Array.iteri
        (fun e net ->
          count.(e).(0) <- 0;
          count.(e).(1) <- 0;
          Array.iter
            (fun v -> count.(e).(side_idx v) <- count.(e).(side_idx v) + 1)
            net)
        nets
    in
    let compute_gain v =
      let from = side_idx v and dest = 1 - side_idx v in
      Array.fold_left
        (fun g e ->
          let g = if count.(e).(from) = 1 then g + 1 else g in
          if count.(e).(dest) = 0 then g - 1 else g)
        0 incident.(v)
    in
    (* gain buckets *)
    let heads = Array.make ((2 * max_deg) + 1) (-1) in
    let nxt = Array.make n (-1) and prv = Array.make n (-1) in
    let gain = Array.make n 0 in
    let in_bucket = Array.make n false in
    let slot g = g + max_deg in
    let bucket_insert v =
      let s = slot gain.(v) in
      nxt.(v) <- heads.(s);
      prv.(v) <- -1;
      if heads.(s) >= 0 then prv.(heads.(s)) <- v;
      heads.(s) <- v;
      in_bucket.(v) <- true
    in
    let bucket_remove v =
      if in_bucket.(v) then begin
        let s = slot gain.(v) in
        if prv.(v) >= 0 then nxt.(prv.(v)) <- nxt.(v) else heads.(s) <- nxt.(v);
        if nxt.(v) >= 0 then prv.(nxt.(v)) <- prv.(v);
        in_bucket.(v) <- false
      end
    in
    let update_gain v delta =
      if in_bucket.(v) then begin
        bucket_remove v;
        gain.(v) <- gain.(v) + delta;
        bucket_insert v
      end
      else gain.(v) <- gain.(v) + delta
    in
    let pick () =
      (* highest-gain movable vertex that keeps balance *)
      let rec scan s =
        if s < 0 then -1
        else begin
          let rec walk v =
            if v < 0 then -1
            else
              let dest = 1 - side_idx v in
              if !(area_of.(dest)) +. areas.(v) <= max_side then v else walk nxt.(v)
          in
          match walk heads.(s) with -1 -> scan (s - 1) | v -> v
        end
      in
      scan (2 * max_deg)
    in
    let best_cut = ref (cut_size nets side) in
    let pass () =
      recount ();
      Array.fill heads 0 (Array.length heads) (-1);
      for v = 0 to n - 1 do
        gain.(v) <- compute_gain v;
        in_bucket.(v) <- false
      done;
      for v = 0 to n - 1 do
        bucket_insert v
      done;
      let moves = ref [] in
      let cur_cut = ref (cut_size nets side) in
      let best_prefix = ref 0 and best_prefix_cut = ref !cur_cut in
      let n_moves = ref 0 in
      let continue = ref true in
      while !continue do
        match pick () with
        | -1 -> continue := false
        | v ->
            bucket_remove v;
            let from = side_idx v in
            let dest = 1 - from in
            cur_cut := !cur_cut - gain.(v);
            (* incremental gain updates, standard FM *)
            Array.iter
              (fun e ->
                let c = count.(e) in
                (* before the move *)
                if c.(dest) = 0 then
                  Array.iter
                    (fun u -> if u <> v && in_bucket.(u) then update_gain u 1)
                    nets.(e)
                else if c.(dest) = 1 then
                  Array.iter
                    (fun u ->
                      if u <> v && in_bucket.(u) && side_idx u = dest then
                        update_gain u (-1))
                    nets.(e);
                c.(from) <- c.(from) - 1;
                c.(dest) <- c.(dest) + 1;
                (* after the move *)
                if c.(from) = 0 then
                  Array.iter
                    (fun u -> if u <> v && in_bucket.(u) then update_gain u (-1))
                    nets.(e)
                else if c.(from) = 1 then
                  Array.iter
                    (fun u ->
                      if u <> v && in_bucket.(u) && side_idx u = from then
                        update_gain u 1)
                    nets.(e))
              incident.(v);
            let af = area_of.(from) and ad = area_of.(dest) in
            af := !af -. areas.(v);
            ad := !ad +. areas.(v);
            side.(v) <- not side.(v);
            moves := v :: !moves;
            incr n_moves;
            if !cur_cut < !best_prefix_cut then begin
              best_prefix_cut := !cur_cut;
              best_prefix := !n_moves
            end
      done;
      (* roll back moves beyond the best prefix *)
      let all_moves = List.rev !moves in
      List.iteri
        (fun i v ->
          if i >= !best_prefix then begin
            side.(v) <- not side.(v)
          end)
        all_moves;
      recompute_areas ();
      !best_prefix_cut
    in
    let rec iterate remaining =
      if remaining > 0 then begin
        let c = pass () in
        if c < !best_cut then begin
          best_cut := c;
          iterate (remaining - 1)
        end
      end
    in
    iterate passes;
    { Fm.side; cut = cut_size nets side }
end

(* Random hypergraphs: 2-40 vertices with areas in [0.5, 60] (a few cells
   much larger than the rest), 1-60 nets of 1-6 distinct members, and
   random balance and pass counts. *)
let prop_fm_matches_reference =
  QCheck.Test.make ~name:"run == list-based reference" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 19 |] in
      let n = 2 + Random.State.int rng 39 in
      let nets =
        Array.init
          (1 + Random.State.int rng 60)
          (fun _ ->
            let size = 1 + Random.State.int rng (min n 6) in
            let members = ref [] in
            while List.length !members < size do
              let v = Random.State.int rng n in
              if not (List.mem v !members) then members := v :: !members
            done;
            Array.of_list !members)
      in
      let areas =
        Array.init n (fun _ ->
            if Random.State.int rng 8 = 0 then 20.0 +. Random.State.float rng 40.0
            else 0.5 +. Random.State.float rng 8.0)
      in
      let balance = 0.5 +. Random.State.float rng 0.25 in
      let passes = Random.State.int rng 9 in
      let fm_seed = Random.State.int rng 100_000 in
      let got = Fm.run ~passes ~balance ~seed:fm_seed ~nets ~areas n in
      let want = Reference_fm.run ~passes ~balance ~seed:fm_seed ~nets ~areas n in
      if got.Fm.side <> want.Fm.side || got.Fm.cut <> want.Fm.cut then
        QCheck.Test.fail_reportf "n=%d nets=%d: cut %d vs reference %d" n
          (Array.length nets) got.Fm.cut want.Fm.cut;
      true)

(* --- Placement ------------------------------------------------------------- *)

let small_design () =
  let nl = Vpga_designs.Alu.build ~width:4 () in
  Compact.run Arch.granular_plb nl

let test_global_beats_scatter () =
  let nl = small_design () in
  let pl = Placement.create nl in
  Placement.scatter ~seed:7 pl;
  let scattered = Placement.hpwl pl in
  Global.place ~seed:7 pl;
  let placed = Placement.hpwl pl in
  Alcotest.(check bool)
    (Printf.sprintf "global (%.0f) < scatter (%.0f)" placed scattered)
    true (placed < scattered)

(* One Xor3 (area 60) driving a chain of eight Inv (area 6): the Xor3
   outweighs the balance slack, so every FM move is legal and the zero-cut
   optimum puts all nine cells on one side. *)
let one_sided_design () =
  let nl = Netlist.create ~name:"xor3_inv_chain" () in
  let ins = Array.init 3 (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)) in
  let v = ref (Netlist.gate nl Kind.Xor3 ins) in
  for _ = 1 to 8 do
    v := Netlist.gate nl Kind.Inv [| !v |]
  done;
  ignore (Netlist.output nl "o" !v);
  nl

let test_global_one_sided_split () =
  let pl = Placement.create (one_sided_design ()) in
  let g = pl.Placement.graph in
  let n = Hypergraph.num_vertices g in
  Alcotest.(check int) "nine placeable cells" 9 n;
  let r =
    Fm.run ~seed:3 ~nets:g.Hypergraph.nets ~areas:g.Hypergraph.vertex_area n
  in
  Alcotest.(check int) "FM leaves one side empty" 0 r.Fm.cut;
  Alcotest.(check bool) "all on one side" true
    (Array.for_all (fun s -> s = r.Fm.side.(0)) r.Fm.side);
  (* Used to recurse on the same nine cells forever. *)
  Global.place ~seed:3 pl;
  Array.iter
    (fun id ->
      let x = pl.Placement.x.(id) and y = pl.Placement.y.(id) in
      Alcotest.(check bool)
        (Printf.sprintf "cell %d inside the die" id)
        true
        (x >= 0.0 && x <= pl.Placement.die_w && y >= 0.0
       && y <= pl.Placement.die_h))
    g.Hypergraph.node_of_vertex

let coords_digest (pl : Placement.t) =
  let xy = Marshal.to_string (pl.Placement.x, pl.Placement.y) [] in
  Digest.to_hex (Digest.string xy)

(* Recorded with the list-based recursive bisection and FM: (design, arch,
   digest of the x/y arrays after [Global.place ~seed:3] on the compacted,
   buffered netlist). *)
let global_golden =
  [
    ("ALU", "lut_plb", "68466462c98d3b3df8a5b5646be72f9d");
    ("ALU", "granular_plb", "5acd4a4c733b1cb55c2e81963c598652");
    ("Firewire", "lut_plb", "ff5247df373e1a1f403fe41d4339b577");
    ("Firewire", "granular_plb", "6425958f2e024c30290d2b7329536c5f");
    ("FPU", "lut_plb", "73a10afe5f18b9210ff33bdefbf3a972");
    ("FPU", "granular_plb", "e89d6f90b51a6d7dfe310b5c8d3b6f3e");
    ("Network switch", "lut_plb", "9a5e219fc8efd8dc56d2125436534802");
    ("Network switch", "granular_plb", "609d5625c3d750c3dadac5d50d109d70");
  ]

let test_global_golden () =
  List.iter
    (fun (dname, nl) ->
      List.iter
        (fun arch ->
          let buffered = Buffering.insert ~max_fanout:8 (Compact.run arch nl) in
          let pl = Placement.create buffered in
          Global.place ~seed:3 pl;
          let _, _, want =
            List.find
              (fun (d, a, _) -> d = dname && a = arch.Arch.name)
              global_golden
          in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s global placement" dname arch.Arch.name)
            want (coords_digest pl))
        Arch.all)
    (Vpga_flow.Experiments.designs Vpga_flow.Experiments.Test)

let test_anneal_improves () =
  let nl = small_design () in
  let pl = Placement.create nl in
  Global.place ~seed:7 pl;
  let before = Placement.hpwl pl in
  let stats = Anneal.refine ~iterations:20000 ~seed:11 pl in
  let after = Placement.hpwl pl in
  Alcotest.(check bool)
    (Printf.sprintf "anneal %.0f -> %.0f" before after)
    true (after <= before);
  Alcotest.(check bool) "some moves accepted" true (stats.Anneal.accepted > 0)

let test_placement_io_on_boundary () =
  let nl = small_design () in
  let pl = Placement.create nl in
  List.iter
    (fun i -> Alcotest.(check (float 0.0)) "input at x=0" 0.0 pl.Placement.x.(i))
    (Netlist.inputs nl)

(* --- Buffering --------------------------------------------------------------- *)

let test_buffering () =
  let nl = small_design () in
  let buffered = Buffering.insert ~max_fanout:4 nl in
  Alcotest.(check bool) "fanout bounded" true
    (Buffering.max_structural_fanout buffered <= 4);
  match Equiv.check ~seed:5 nl buffered with
  | Equiv.Equivalent -> ()
  | Equiv.Mismatch _ -> Alcotest.fail "buffering broke the design"

let prop_buffering_bounds_fanout =
  QCheck.Test.make ~name:"buffer fanout bound holds for any limit" ~count:8
    (QCheck.int_range 2 9)
    (fun limit ->
      let nl = small_design () in
      Buffering.max_structural_fanout (Buffering.insert ~max_fanout:limit nl)
      <= limit)

(* --- Routing ------------------------------------------------------------------ *)

let test_grid () =
  let g = Grid.create ~cols:4 ~rows:3 ~bin_w:10.0 ~bin_h:10.0 ~capacity:2 () in
  Alcotest.(check int) "bins" 12 (Grid.num_bins g);
  Alcotest.(check int) "edges" (9 + 8) (Grid.num_edges g);
  Alcotest.(check int) "corner has 2 neighbors" 2
    (List.length (Grid.neighbors g 0));
  Alcotest.(check int) "center has 4 neighbors" 4
    (List.length (Grid.neighbors g 5));
  let e = Grid.edge_between g 0 1 in
  Alcotest.(check int) "symmetric" e (Grid.edge_between g 1 0);
  Alcotest.check_raises "non-adjacent"
    (Invalid_argument "Grid.edge_between: bins not adjacent")
    (fun () -> ignore (Grid.edge_between g 0 5))

let test_route_single_net () =
  let g = Grid.create ~cols:5 ~rows:5 ~bin_w:10.0 ~bin_h:10.0 ~capacity:4 () in
  (match Router.route_net g ~pres_fac:1.0 ~pins:[ 0; 24 ] with
  | Some edges ->
      (* manhattan distance between opposite corners is 8 bins *)
      Alcotest.(check int) "shortest path" 8 (List.length edges)
  | None -> Alcotest.fail "unroutable");
  (match Router.route_net g ~pres_fac:1.0 ~pins:[ 7 ] with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "same-bin net should use no edges"
  | None -> Alcotest.fail "unroutable");
  (* Pins must come sorted and deduplicated. *)
  List.iter
    (fun pins ->
      match Router.route_net g ~pres_fac:1.0 ~pins with
      | exception Invalid_argument _ -> ()
      | _ ->
          Alcotest.failf "pins [%s] accepted"
            (String.concat ";" (List.map string_of_int pins)))
    [ []; [ 7; 7 ]; [ 24; 0 ]; [ -1; 3 ]; [ 3; 25 ]; [ 25 ] ]

let test_route_steiner () =
  let g = Grid.create ~cols:5 ~rows:5 ~bin_w:10.0 ~bin_h:10.0 ~capacity:4 () in
  match Router.route_net g ~pres_fac:1.0 ~pins:[ 0; 4; 2 + 20 ] with
  | Some edges ->
      (* tree connecting (0,0),(4,0),(2,4): optimal Steiner length 8 *)
      Alcotest.(check int) "steiner tree" 8 (List.length edges)
  | None -> Alcotest.fail "unroutable"

let test_pathfinder_converges () =
  let nl = small_design () in
  let pl = Placement.create nl in
  Global.place ~seed:3 pl;
  let r = Pathfinder.route_placement pl in
  Alcotest.(check int) "no overflow" 0 r.Pathfinder.final_overflow;
  Alcotest.(check bool) "positive wirelength" true
    (Pathfinder.total_wirelength r > 0.0);
  (* usage accounting is consistent *)
  let recount = Array.make (Grid.num_edges r.Pathfinder.grid) 0 in
  List.iter
    (fun rt -> List.iter (fun e -> recount.(e) <- recount.(e) + 1) rt.Router.edges)
    r.Pathfinder.routes;
  Alcotest.(check bool) "usage matches routes" true
    (recount = r.Pathfinder.grid.Grid.usage)

let test_congestion_negotiation () =
  (* Many nets across a 1-track column must spread over other rows. *)
  let g = Grid.create ~cols:2 ~rows:6 ~bin_w:10.0 ~bin_h:10.0 ~capacity:1 () in
  let routed =
    List.init 4 (fun _ ->
        match Router.route_net g ~pres_fac:2.0 ~pins:[ 0; 1 ] with
        | Some edges ->
            Router.commit g edges;
            edges
        | None -> Alcotest.fail "unroutable")
  in
  ignore routed;
  (* with capacity 1, at least some nets should have taken detours *)
  let lens = List.map List.length routed in
  Alcotest.(check bool) "some detour" true (List.exists (fun l -> l > 1) lens)

let prop_grid_roundtrip =
  QCheck.Test.make ~name:"bin_of (center b) = b" ~count:100
    QCheck.(pair (int_range 2 9) (int_range 2 9))
    (fun (cols, rows) ->
      let g = Grid.create ~cols ~rows ~bin_w:12.0 ~bin_h:9.0 ~capacity:4 () in
      List.for_all
        (fun b ->
          let x, y = Grid.center g b in
          Grid.bin_of g ~x ~y = b)
        (List.init (Grid.num_bins g) Fun.id))

let prop_route_wirelength =
  QCheck.Test.make ~name:"wirelength equals edges times bin size" ~count:50
    QCheck.(pair (int_range 0 24) (int_range 0 24))
    (fun (p1, p2) ->
      let g = Grid.create ~cols:5 ~rows:5 ~bin_w:10.0 ~bin_h:10.0 ~capacity:8 () in
      let pins = List.sort_uniq Int.compare [ p1; p2 ] in
      match Router.route_net g ~pres_fac:1.0 ~pins with
      | Some edges ->
          Float.abs
            (Router.wirelength_of g edges
            -. (10.0 *. float_of_int (List.length edges)))
          < 1e-9
      | None -> false)

(* --- Router reference equivalence ------------------------------------- *)

(* The router as it stood before its allocation-free kernel: Dijkstra tree
   growth with a [Set] frontier, three fresh [n_bins] arrays per net, and a
   scan of every bin to seed each sink's search.  [Router.route_net] must
   return exactly what this returns. *)
module Reference_router = struct
  let dead_edge_penalty = 1e15

  let edge_cost grid ~pres_fac e =
    let len = Grid.edge_length grid e /. max grid.Grid.bin_w grid.Grid.bin_h in
    let cap = Grid.cap grid e in
    if cap = 0 then len *. dead_edge_penalty
    else
      let u = grid.Grid.usage.(e) in
      let congestion =
        if u < cap then 1.0 else 1.0 +. (float_of_int (u + 1 - cap) *. pres_fac)
      in
      len *. (1.0 +. grid.Grid.history.(e)) *. congestion

  module Pq = Set.Make (struct
    type t = float * int

    let compare (c1, b1) (c2, b2) =
      match Float.compare c1 c2 with 0 -> Int.compare b1 b2 | c -> c
  end)

  let route_net grid ~pres_fac ~pins =
    match List.sort_uniq Int.compare pins with
    | [] -> invalid_arg "Router.route_net: no pins"
    | [ _ ] -> Some []
    | first :: rest ->
        let n_bins = Grid.num_bins grid in
        let in_tree = Array.make n_bins false in
        in_tree.(first) <- true;
        let tree_edges = ref [] in
        let remaining = ref rest in
        let dist = Array.make n_bins infinity in
        let via = Array.make n_bins (-1) in
        let ok = ref true in
        while !remaining <> [] && !ok do
          Array.fill dist 0 n_bins infinity;
          Array.fill via 0 n_bins (-1);
          let pq = ref Pq.empty in
          for b = 0 to n_bins - 1 do
            if in_tree.(b) then begin
              dist.(b) <- 0.0;
              pq := Pq.add (0.0, b) !pq
            end
          done;
          let is_target = Array.make n_bins false in
          List.iter (fun p -> is_target.(p) <- true) !remaining;
          let found = ref (-1) in
          while !found < 0 && not (Pq.is_empty !pq) do
            let d, b = Pq.min_elt !pq in
            pq := Pq.remove (d, b) !pq;
            if d <= dist.(b) then begin
              if is_target.(b) then found := b
              else
                List.iter
                  (fun (e, nb) ->
                    let nd = d +. edge_cost grid ~pres_fac e in
                    if nd < dist.(nb) then begin
                      dist.(nb) <- nd;
                      via.(nb) <- b;
                      pq := Pq.add (nd, nb) !pq
                    end)
                  (Grid.neighbors grid b)
            end
          done;
          if !found < 0 then ok := false
          else begin
            let rec back b =
              if not in_tree.(b) then begin
                in_tree.(b) <- true;
                let p = via.(b) in
                tree_edges := Grid.edge_between grid p b :: !tree_edges;
                back p
              end
            in
            back !found;
            remaining := List.filter (fun p -> not in_tree.(p)) !remaining
          end
        done;
        if !ok then Some !tree_edges else None
end

(* A random routing problem, all drawn from one seed: a 2-12 x 2-12 grid
   with non-square bins, dead and derated edges, random usage and history
   (zero half the time, so equal-cost ties are common), a congestion
   factor, and pin lists with duplicates and single pins.  The reference
   takes the raw list; [Router.route_net] takes it normalized, as
   [Pathfinder] passes it. *)
let random_grid ?(max_side = 12) rng =
  let cols = 2 + Random.State.int rng (max_side - 1)
  and rows = 2 + Random.State.int rng (max_side - 1) in
  let capacity = 1 + Random.State.int rng 6 in
  let tracks ~cx:_ ~cy:_ ~hw:_ ~hh:_ ~vertical:_ ~capacity =
    match Random.State.int rng 8 with
    | 0 -> [||]
    | 1 ->
        Array.of_list
          (List.filter
             (fun _ -> Random.State.bool rng)
             (List.init capacity Fun.id))
    | _ -> Array.init capacity Fun.id
  in
  let tracks = if Random.State.bool rng then Some tracks else None in
  let bin_w = 5.0 +. Random.State.float rng 40.0 in
  let bin_h =
    if Random.State.bool rng then bin_w
    else 5.0 +. Random.State.float rng 40.0
  in
  let g = Grid.create ?tracks ~cols ~rows ~bin_w ~bin_h ~capacity () in
  let zero_history = Random.State.bool rng in
  for e = 0 to Grid.num_edges g - 1 do
    g.Grid.usage.(e) <- Random.State.int rng (capacity + 3);
    if not zero_history then
      g.Grid.history.(e) <-
        Float.round (Random.State.float rng 3.0 *. 4.0) /. 4.0
  done;
  g

let random_pins rng g =
  let n_bins = Grid.num_bins g in
  let pool = 1 + Random.State.int rng n_bins in
  List.init (1 + Random.State.int rng 8) (fun _ -> Random.State.int rng pool)

let sorted = List.sort_uniq Int.compare

let random_pres_fac rng = 0.1 *. (10.0 ** Random.State.float rng 4.0)

(* Route a sequence of nets, committing each (as one PathFinder pass
   does), with the router under test and with the reference. *)
let route_both rng g =
  let pres_fac = random_pres_fac rng in
  List.init (1 + Random.State.int rng 10) (fun _ ->
      let pins = random_pins rng g in
      let got = Router.route_net g ~pres_fac ~pins:(sorted pins) in
      let want = Reference_router.route_net g ~pres_fac ~pins in
      Option.iter (Router.commit g) want;
      (got, want))

let prop_router_matches_reference =
  QCheck.Test.make ~name:"route_net = Set-frontier reference" ~count:300
    QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun (got, want) -> got = want)
        (route_both rng (random_grid rng)))

(* The per-domain scratch is reused across grids of different sizes and
   across calls on several domains; no call may see another's state. *)
let test_router_scratch_reuse () =
  let net_routes ~side seed =
    let rng = Random.State.make [| seed |] in
    let g = random_grid ~max_side:side rng in
    let pres_fac = random_pres_fac rng in
    List.init 8 (fun _ ->
        let pins = random_pins rng g in
        (g, pres_fac, pins))
  in
  let check label cases =
    List.iter
      (fun (g, pres_fac, pins) ->
        let want = Reference_router.route_net g ~pres_fac ~pins in
        if Router.route_net g ~pres_fac ~pins:(sorted pins) <> want then
          Alcotest.failf "%s: pins [%s]" label
            (String.concat ";" (List.map string_of_int pins)))
      cases
  in
  let large = net_routes ~side:48 7 and small = net_routes ~side:3 8 in
  check "large" large;
  check "small after large" small;
  check "large again" large;
  let cases =
    List.concat_map
      (fun s -> net_routes ~side:(4 + (s mod 30)) s)
      (List.init 24 Fun.id)
  in
  let want =
    List.map
      (fun (g, pres_fac, pins) -> Reference_router.route_net g ~pres_fac ~pins)
      cases
  in
  let got =
    Vpga_par.Pool.run ~jobs:2
      (List.map
         (fun (g, pres_fac, pins) () ->
           Router.route_net g ~pres_fac ~pins:(sorted pins))
         cases)
  in
  Alcotest.(check bool) "two domains agree with the reference" true (got = want)

(* --- STA ------------------------------------------------------------------------ *)

let chain_netlist n =
  let nl = Netlist.create ~name:"chain" () in
  let a = Netlist.input nl "a" in
  let fn = Bfun.lnot Bfun.(var ~arity:2 0 &&& var ~arity:2 1) in
  let b = Netlist.input nl "b" in
  let node = ref a in
  for _ = 1 to n do
    node := Netlist.gate nl (Kind.Mapped { cell = "nd3wi"; fn }) [| !node; b |]
  done;
  ignore (Netlist.output nl "o" !node);
  nl

let test_sta_chain () =
  let nl = chain_netlist 5 in
  let r = Sta.run ~period:2000.0 nl in
  let r1 = Sta.run ~period:2000.0 (chain_netlist 6) in
  Alcotest.(check bool) "longer chain has less slack" true
    (r1.Sta.wns < r.Sta.wns);
  Alcotest.(check int) "critical path covers the chain" (5 + 2)
    (List.length r.Sta.critical_path);
  Alcotest.(check bool) "slack finite" true (r.Sta.wns < 2000.0)

let test_sta_wire_hurts () =
  let nl = chain_netlist 5 in
  let dry = Sta.run nl in
  let wet = Sta.run ~wire:(fun _ -> (50.0, 0.5)) nl in
  Alcotest.(check bool) "wire load slows the design" true
    (wet.Sta.wns < dry.Sta.wns)

let test_sta_criticality () =
  let nl = chain_netlist 5 in
  let r = Sta.run nl in
  let crit = Sta.criticality r in
  (* criticality is highest along the critical path *)
  let max_crit = Array.fold_left max 0.0 crit in
  Alcotest.(check bool) "criticality in [0,1]" true
    (Array.for_all (fun c -> c >= 0.0 && c <= 1.0) crit);
  List.iter
    (fun id ->
      match (Netlist.node nl id).Netlist.kind with
      | Kind.Input -> ()
      | _ ->
          Alcotest.(check bool) "on-path criticality is maximal" true
            (crit.(id) >= max_crit -. 1e-6))
    r.Sta.critical_path

let test_sta_endpoint_count () =
  let nl = small_design () in
  let r = Sta.run nl in
  let n_endpoints =
    List.length (Netlist.outputs nl) + List.length (Netlist.flops nl)
  in
  Alcotest.(check int) "one endpoint per PO and flop" n_endpoints
    (List.length r.Sta.endpoints);
  Alcotest.(check int) "top slacks" 10 (List.length (Sta.top_slacks r 10))

let test_sta_rejects_generic () =
  let nl = Netlist.create () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let x = Netlist.gate nl Kind.And2 [| a; b |] in
  ignore (Netlist.output nl "o" x);
  Alcotest.check_raises "unmapped rejected"
    (Invalid_argument "Sta.run: netlist contains unmapped generic gates")
    (fun () -> ignore (Sta.run nl))

(* --- Quadrisection packing -------------------------------------------------------- *)

let test_quadrisect_legal () =
  let nl = small_design () in
  let nl = Buffering.insert ~max_fanout:8 nl in
  let pl = Placement.create nl in
  Global.place ~seed:5 pl;
  let q = Quadrisect.legalize Arch.granular_plb pl in
  (* every packed item has a tile, and every tile's contents fit *)
  let tiles = Hashtbl.create 64 in
  Array.iteri
    (fun id t ->
      if t >= 0 then
        Hashtbl.replace tiles t
          (id :: Option.value ~default:[] (Hashtbl.find_opt tiles t)))
    q.Quadrisect.tile_of_node;
  Alcotest.(check bool) "tiles in range" true
    (Hashtbl.fold
       (fun t _ acc -> acc && t < q.Quadrisect.cols * q.Quadrisect.rows)
       tiles true);
  Hashtbl.iter
    (fun _ ids ->
      let items =
        List.filter_map
          (fun id -> Quadrisect.item_of_node (Netlist.node nl id))
          ids
      in
      Alcotest.(check bool) "tile fits" true
        (Vpga_plb.Packer.fits Arch.granular_plb items))
    tiles;
  (* every packable node got a tile *)
  Array.iter
    (fun node ->
      match Quadrisect.item_of_node node with
      | Some _ ->
          Alcotest.(check bool) "assigned" true
            (q.Quadrisect.tile_of_node.(node.Netlist.id) >= 0)
      | None -> ())
    (Netlist.nodes nl);
  Alcotest.(check bool) "array area covers cells" true
    (Quadrisect.array_area q > 0.0)

let test_quadrisect_criticality_reduces_disp () =
  (* with criticality all-equal vs focused, displacement of critical cells
     should not grow; we check the weaker, deterministic property that
     legalization is stable for a fixed seed *)
  let nl = small_design () in
  let nl = Buffering.insert ~max_fanout:8 nl in
  let pl = Placement.create nl in
  Global.place ~seed:5 pl;
  let q1 = Quadrisect.legalize Arch.granular_plb pl in
  let q2 = Quadrisect.legalize Arch.granular_plb pl in
  Alcotest.(check bool) "deterministic" true
    (q1.Quadrisect.tile_of_node = q2.Quadrisect.tile_of_node)

let test_refine () =
  let nl = small_design () in
  let nl = Buffering.insert ~max_fanout:8 nl in
  let pl = Placement.create nl in
  Global.place ~seed:5 pl;
  let q = Quadrisect.legalize Arch.granular_plb pl in
  let pl_b = Quadrisect.snap q pl in
  let before = Placement.hpwl pl_b in
  let stats = Vpga_pack.Refine.run ~iterations:20000 ~seed:9 q pl_b in
  let after = Placement.hpwl pl_b in
  Alcotest.(check bool)
    (Printf.sprintf "refine reduces wirelength (%.0f -> %.0f)" before after)
    true (after <= before);
  Alcotest.(check bool) "moves accepted" true (stats.Vpga_pack.Refine.accepted > 0);
  (* all tiles remain feasible after refinement *)
  let tiles = Hashtbl.create 64 in
  Array.iteri
    (fun id t ->
      if t >= 0 then
        Hashtbl.replace tiles t
          (id :: Option.value ~default:[] (Hashtbl.find_opt tiles t)))
    q.Quadrisect.tile_of_node;
  Hashtbl.iter
    (fun _ ids ->
      let items =
        List.filter_map (fun id -> Quadrisect.item_of_node (Netlist.node nl id)) ids
      in
      Alcotest.(check bool) "tile still fits" true
        (Vpga_plb.Packer.fits Arch.granular_plb items))
    tiles;
  (* coordinates track tile centers *)
  Array.iteri
    (fun id t ->
      if t >= 0 then begin
        let x, y = Quadrisect.tile_center q t in
        Alcotest.(check (float 1e-6)) "x snapped" x pl_b.Placement.x.(id);
        Alcotest.(check (float 1e-6)) "y snapped" y pl_b.Placement.y.(id)
      end)
    q.Quadrisect.tile_of_node

let test_quadrisect_lut_arch () =
  let nl = Vpga_designs.Alu.build ~width:4 () in
  let compacted = Compact.run Arch.lut_plb nl in
  let buffered = Buffering.insert ~max_fanout:8 compacted in
  let pl = Placement.create buffered in
  Global.place ~seed:5 pl;
  let q = Quadrisect.legalize Arch.lut_plb pl in
  Alcotest.(check bool) "nonzero tiles" true (q.Quadrisect.tiles_used > 0);
  Alcotest.(check bool) "array covers demand" true
    (q.Quadrisect.cols * q.Quadrisect.rows >= q.Quadrisect.tiles_used)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vpga_physical"
    [
      ( "fm",
        [
          Alcotest.test_case "two cliques" `Quick test_fm_splits_cliques;
          qt prop_fm_matches_reference;
          qt prop_fm_never_worse_than_reported;
          qt prop_fm_balance;
        ] );
      ( "placement",
        [
          Alcotest.test_case "global beats scatter" `Quick test_global_beats_scatter;
          Alcotest.test_case "anneal improves" `Quick test_anneal_improves;
          Alcotest.test_case "io on boundary" `Quick test_placement_io_on_boundary;
          Alcotest.test_case "one-sided FM split" `Quick
            test_global_one_sided_split;
          Alcotest.test_case "golden global digests" `Slow test_global_golden;
        ] );
      ( "buffering",
        [
          Alcotest.test_case "bounds fanout, keeps function" `Quick test_buffering;
          qt prop_buffering_bounds_fanout;
        ] );
      ( "routing",
        [
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "single net" `Quick test_route_single_net;
          Alcotest.test_case "steiner" `Quick test_route_steiner;
          Alcotest.test_case "pathfinder converges" `Quick test_pathfinder_converges;
          Alcotest.test_case "congestion negotiation" `Quick test_congestion_negotiation;
          qt prop_grid_roundtrip;
          qt prop_route_wirelength;
          qt prop_router_matches_reference;
          Alcotest.test_case "scratch reuse" `Quick test_router_scratch_reuse;
        ] );
      ( "sta",
        [
          Alcotest.test_case "chain" `Quick test_sta_chain;
          Alcotest.test_case "wire load" `Quick test_sta_wire_hurts;
          Alcotest.test_case "criticality" `Quick test_sta_criticality;
          Alcotest.test_case "endpoints" `Quick test_sta_endpoint_count;
          Alcotest.test_case "rejects generic" `Quick test_sta_rejects_generic;
        ] );
      ( "quadrisect",
        [
          Alcotest.test_case "legal packing" `Quick test_quadrisect_legal;
          Alcotest.test_case "deterministic" `Quick test_quadrisect_criticality_reduces_disp;
          Alcotest.test_case "lut arch" `Quick test_quadrisect_lut_arch;
          Alcotest.test_case "refinement" `Quick test_refine;
        ] );
    ]
