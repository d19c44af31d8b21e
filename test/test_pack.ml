(* Tests for the packing fast path: the incremental tile-occupancy
   structure must agree exactly with the reference [Packer.fits]
   backtracking predicate, and the rewritten quadrisection/refinement
   pipeline must reproduce the pre-rewrite packings bit for bit (the
   golden checksums below were recorded against the list-based
   implementation at the same seeds). *)

module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
module Packer = Vpga_plb.Packer
module Occupancy = Vpga_plb.Occupancy
module Compact = Vpga_mapper.Compact
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Buffering = Vpga_place.Buffering
module Quadrisect = Vpga_pack.Quadrisect
module Refine = Vpga_pack.Refine
module Diag = Vpga_verify.Diag
module Phys = Vpga_verify.Phys

(* --- Occupancy agrees with the reference predicate ----------------------- *)

let item_print (it : Packer.item) =
  Printf.sprintf "{%s pins=%d flop=%b}" (Config.name it.Packer.config)
    it.Packer.pins it.Packer.flop

let items_arb =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 8)
        (map3
           (fun config pins flop -> { Packer.config; pins; flop })
           (oneofl Config.all) (int_bound 4) bool))
  in
  QCheck.make ~print:(fun l -> String.concat "; " (List.map item_print l)) gen

(* Walk a random multiset through query/add, then remove half and re-query:
   at every step [query] and [add]'s verdict must equal [Packer.fits] run
   from scratch on the would-be resident multiset. *)
let occupancy_matches_fits arch items =
  let cache = Occupancy.create_cache arch in
  let t = Occupancy.create cache in
  let shadow = ref [] in
  let step it =
    let want = Packer.fits arch (it :: !shadow) in
    if Occupancy.query t it <> want then
      QCheck.Test.fail_reportf "query disagrees on %s over [%s]"
        (item_print it)
        (String.concat "; " (List.map item_print !shadow));
    let added = Occupancy.add t it in
    if added <> want then
      QCheck.Test.fail_reportf "add disagrees on %s over [%s]"
        (item_print it)
        (String.concat "; " (List.map item_print !shadow));
    if added then shadow := it :: !shadow
  in
  List.iter step items;
  if Occupancy.count t <> List.length !shadow then
    QCheck.Test.fail_reportf "count %d after adds, expected %d"
      (Occupancy.count t) (List.length !shadow);
  (* Remove every other resident (undo path), then the survivors must
     still answer queries exactly like the reference predicate. *)
  let keep, evict =
    List.partition (fun (i, _) -> i mod 2 = 0)
      (List.mapi (fun i it -> (i, it)) !shadow)
  in
  List.iter (fun (_, it) -> Occupancy.remove t it) evict;
  shadow := List.map snd keep;
  if Occupancy.count t <> List.length !shadow then
    QCheck.Test.fail_reportf "count %d after removals, expected %d"
      (Occupancy.count t) (List.length !shadow);
  List.iter
    (fun it ->
      let want = Packer.fits arch (it :: !shadow) in
      if Occupancy.query t it <> want then
        QCheck.Test.fail_reportf "post-remove query disagrees on %s over [%s]"
          (item_print it)
          (String.concat "; " (List.map item_print !shadow)))
    items;
  (* The read-only swap probe must agree with the reference predicate on
     the replaced multiset, and must leave the tile untouched. *)
  let remove_one x l =
    let rec go acc = function
      | [] -> List.rev acc
      | y :: rest when y = x -> List.rev_append acc rest
      | y :: rest -> go (y :: acc) rest
    in
    go [] l
  in
  List.iter
    (fun without ->
      List.iter
        (fun it ->
          let want = Packer.fits arch (it :: remove_one without !shadow) in
          if Occupancy.query_replacing t ~without it <> want then
            QCheck.Test.fail_reportf
              "query_replacing disagrees on %s replacing %s over [%s]"
              (item_print it) (item_print without)
              (String.concat "; " (List.map item_print !shadow));
          if Occupancy.count t <> List.length !shadow then
            QCheck.Test.fail_reportf "query_replacing mutated the tile")
        items)
    !shadow;
  true

let prop_occupancy =
  QCheck.Test.make ~name:"occupancy query/add/remove == Packer.fits"
    ~count:500 items_arb (fun items ->
      List.for_all (fun arch -> occupancy_matches_fits arch items) Arch.all)

(* --- Bit-identical packing across the rewrite ---------------------------- *)

let checksum q =
  Array.fold_left
    (fun h t -> (h * 1000003) + t + 1)
    0 q.Quadrisect.tile_of_node
  land 0x3FFFFFFF

(* Same pipeline and seeds as the flow's packing stages; returns the
   post-quadrisection and post-refinement tile assignment checksums. *)
let pack_pipeline arch nl =
  let nl = Compact.run arch nl in
  let nl = Buffering.insert ~max_fanout:8 nl in
  let pl = Placement.create nl in
  Global.place ~seed:3 pl;
  let q = Quadrisect.legalize arch pl in
  let cq = checksum q in
  let pl_b = Quadrisect.snap q pl in
  let (_ : Refine.stats) = Refine.run ~seed:7 q pl_b in
  (cq, checksum q, q, nl)

(* Recorded from the pre-rewrite list-based implementation: (design,
   arch, checksum after quadrisection, checksum after refinement). *)
let golden =
  [
    ("alu", "lut_plb", 385550985, 439551777);
    ("alu", "granular_plb", 729192024, 687928136);
    ("firewire", "lut_plb", 980101115, 649259017);
    ("firewire", "granular_plb", 842440562, 131999017);
    ("fpu", "lut_plb", 98161773, 52802791);
    ("fpu", "granular_plb", 210259331, 359546099);
    ("netswitch", "lut_plb", 999482610, 480209560);
    ("netswitch", "granular_plb", 118428857, 112062853);
  ]

let designs =
  [
    ("alu", fun () -> Vpga_designs.Alu.build ~width:8 ());
    ("firewire", fun () -> Vpga_designs.Firewire.build ~data_bits:16 ());
    ("fpu", fun () -> Vpga_designs.Fpu.build ~exp_bits:5 ~mant_bits:8 ());
    ("netswitch", fun () -> Vpga_designs.Netswitch.build ~ports:4 ~width:8 ());
  ]

let test_golden_checksums () =
  Config.prewarm ();
  List.iter
    (fun (dname, build) ->
      let nl = build () in
      List.iter
        (fun arch ->
          let cq, cr, q, buffered = pack_pipeline arch nl in
          let _, _, want_q, want_r =
            List.find
              (fun (d, a, _, _) -> d = dname && a = arch.Arch.name)
              (List.map (fun (d, a, x, y) -> (d, a, x, y)) golden)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s quadrisect checksum" dname arch.Arch.name)
            want_q cq;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s refine checksum" dname arch.Arch.name)
            want_r cr;
          (* The result must also be physically legal, not merely stable. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s packing invariants" dname arch.Arch.name)
            false
            (Diag.has_errors (Phys.check_packing q buffered)))
        Arch.all)
    designs

(* --- Region-parallel refinement: jobs-independence ----------------------- *)

(* Packing state through snap (the refinement precondition), built once
   per design x arch and refined on private copies, so one fixture serves
   every (jobs, regions, seed) combination. *)
let prepared =
  lazy
    (Config.prewarm ();
     List.concat_map
       (fun (dname, build) ->
         let nl = build () in
         List.map
           (fun arch ->
             let nl = Compact.run arch nl in
             let nl = Buffering.insert ~max_fanout:8 nl in
             let pl = Placement.create nl in
             Global.place ~seed:3 pl;
             let q = Quadrisect.legalize arch pl in
             let pl_b = Quadrisect.snap q pl in
             (Printf.sprintf "%s/%s" dname arch.Arch.name, q, pl_b))
           Arch.all)
       designs)

let refine_copy ~jobs ~regions ~seed (q, pl) =
  let q' =
    {
      q with
      Quadrisect.tile_of_node = Array.copy q.Quadrisect.tile_of_node;
    }
  in
  let pl' =
    {
      pl with
      Placement.x = Array.copy pl.Placement.x;
      y = Array.copy pl.Placement.y;
    }
  in
  let st = Refine.run ~iterations:20_000 ~jobs ~regions ~seed q' pl' in
  (q'.Quadrisect.tile_of_node, st)

(* Region-parallel refinement must produce identical results at any
   worker count: region walks read frozen snapshots and own disjoint id
   sets, so scheduling cannot leak into the outcome. *)
let prop_jobs_independent =
  QCheck.Test.make ~name:"refine: jobs=1 == jobs=4 (regions=2)" ~count:3
    QCheck.(int_bound 1000)
    (fun seed ->
      List.for_all
        (fun (name, q, pl) ->
          let t1, s1 = refine_copy ~jobs:1 ~regions:2 ~seed (q, pl) in
          let t4, s4 = refine_copy ~jobs:4 ~regions:2 ~seed (q, pl) in
          if t1 <> t4 then
            QCheck.Test.fail_reportf "%s: tile assignment differs" name;
          if s1.Refine.final_cost <> s4.Refine.final_cost then
            QCheck.Test.fail_reportf "%s: final cost differs (%f vs %f)" name
              s1.Refine.final_cost s4.Refine.final_cost;
          if s1.Refine.region_moves + s1.Refine.boundary_moves
             <> s1.Refine.moves
          then
            QCheck.Test.fail_reportf "%s: move budget leaks (%d + %d <> %d)"
              name s1.Refine.region_moves s1.Refine.boundary_moves
              s1.Refine.moves;
          true)
        (Lazy.force prepared))

let test_same_seed_determinism () =
  Config.prewarm ();
  let nl = Vpga_designs.Alu.build ~width:8 () in
  let arch = Arch.granular_plb in
  let cq1, cr1, _, _ = pack_pipeline arch nl in
  let cq2, cr2, _, _ = pack_pipeline arch nl in
  Alcotest.(check int) "quadrisect deterministic" cq1 cq2;
  Alcotest.(check int) "refine deterministic" cr1 cr2

let () =
  Alcotest.run "pack"
    [
      ( "occupancy",
        [ QCheck_alcotest.to_alcotest prop_occupancy ] );
      ( "bit-identical",
        [
          Alcotest.test_case "golden checksums (all designs, both archs)"
            `Slow test_golden_checksums;
          Alcotest.test_case "same seed twice" `Quick
            test_same_seed_determinism;
        ] );
      ( "region-parallel",
        [ QCheck_alcotest.to_alcotest prop_jobs_independent ] );
    ]
