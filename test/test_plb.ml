(* Tests for the PLB architectures, logic configurations, intra-PLB packing
   and the Section-2.2 full-adder result. *)

open Vpga_plb
module Bfun = Vpga_logic.Bfun
module Gates = Vpga_logic.Gates
module Equiv = Vpga_netlist.Equiv

let v i = Bfun.var ~arity:3 i
let xor3 = Bfun.(v 0 ^^^ v 1 ^^^ v 2)
let maj3 = Bfun.((v 0 &&& v 1) ||| (v 1 &&& v 2) ||| (v 0 &&& v 2))
let bfun3 = QCheck.map (Bfun.make ~arity:3) (QCheck.int_bound 255)

(* --- Arch -------------------------------------------------------------- *)

let test_arch_calibration () =
  let g = Arch.granular_plb and l = Arch.lut_plb in
  Alcotest.(check (float 0.01)) "granular tile 20% larger (paper)" 1.20
    (g.Arch.tile_area /. l.Arch.tile_area);
  Alcotest.(check (float 0.01)) "granular comb area 26.6% larger (paper)" 1.266
    (g.Arch.comb_area /. l.Arch.comb_area);
  Alcotest.(check bool) "granular has more via sites" true
    (g.Arch.via_sites > l.Arch.via_sites)

let test_vector () =
  let open Arch in
  let a = Vector.of_list [ (Mux, 2); (Xoa, 1) ] in
  let b = Vector.of_list [ (Mux, 1) ] in
  Alcotest.(check int) "get" 2 (Vector.get a Mux);
  Alcotest.(check int) "add" 3 (Vector.get (Vector.add a b) Mux);
  Alcotest.(check bool) "fits" true (Vector.fits b ~cap:a);
  Alcotest.(check bool) "not fits" false (Vector.fits a ~cap:b);
  Alcotest.(check int) "total" 3 (Vector.total a)

(* --- Config ------------------------------------------------------------ *)

let test_config_examples () =
  let check_cfg name f expected =
    Alcotest.(check string) name (Config.name expected)
      (Config.name (Config.choose Arch.granular_plb f))
  in
  check_cfg "and2 -> nd2" Bfun.(v 0 &&& v 1) Config.Nd2;
  check_cfg "nand3 -> nd3" Bfun.(lnot (v 0 &&& v 1 &&& v 2)) Config.Nd3;
  check_cfg "mux -> mx" (Bfun.mux ~sel:(v 2) (v 0) (v 1)) Config.Mx;
  check_cfg "xor2 -> mx" Bfun.(v 0 ^^^ v 1) Config.Mx;
  check_cfg "literal -> invb" (v 1) Config.Invb;
  (* xor3 chains the XOA into a MUX with the programmable inverter *)
  check_cfg "xor3 -> xoamx" xor3 Config.Xoamx;
  (* maj(a,b,c) = mux(a xor b; a, c): also an XOA-into-MUX chain *)
  check_cfg "maj3 -> xoamx" maj3 Config.Xoamx;
  (* "exactly one of three" needs the ND3WI alongside the two MUXes *)
  check_cfg "one-hot -> xoandmx" (Bfun.make ~arity:3 0x16) Config.Xoandmx;
  (* "exactly two of three" likewise *)
  check_cfg "two-hot -> xoandmx" (Bfun.make ~arity:3 0x68) Config.Xoandmx

let test_config_lut_arch () =
  let choose = Config.choose Arch.lut_plb in
  Alcotest.(check string) "xor3 -> lut" "lut" (Config.name (choose xor3));
  Alcotest.(check string) "maj3 -> lut" "lut" (Config.name (choose maj3));
  Alcotest.(check string) "nand3 -> nd3" "nd3"
    (Config.name (choose Bfun.(lnot (v 0 &&& v 1 &&& v 2))))

let prop_choose_is_feasible =
  QCheck.Test.make ~name:"chosen config is feasible" ~count:256 bfun3 (fun f ->
      List.for_all
        (fun arch -> Config.feasible (Config.choose arch f) f)
        Arch.all)

let prop_feasibility_monotone =
  QCheck.Test.make ~name:"xoamx implies xoandmx implies total" ~count:256 bfun3
    (fun f ->
      (not (Config.feasible Config.Xoamx f) || Config.feasible Config.Xoandmx f)
      && Config.feasible Config.Mux3 f)

let test_config_censuses () =
  let all3 = Bfun.all ~arity:3 in
  let count c = List.length (List.filter (Config.feasible c) all3) in
  (* single mux = Gates.mux_feasible census *)
  let mux_census =
    List.length (List.filter Gates.mux_feasible all3)
  in
  Alcotest.(check int) "mx census matches gates" mux_census (count Config.Mx);
  Alcotest.(check int) "nd3 census" 48 (count Config.Nd3);
  (* every 3-input function fits some non-LUT config on the granular PLB *)
  Alcotest.(check int) "xoandmx total" 256 (count Config.Xoandmx);
  (* ndmx strictly between mx and xoamx *)
  Alcotest.(check bool) "mx < ndmx" true (count Config.Mx < count Config.Ndmx);
  Alcotest.(check bool) "ndmx < xoamx" true
    (count Config.Ndmx < count Config.Xoamx)

(* [Config.feasible c f] for all 256 arity-3 functions, as 64 hex digits
   (digit [i] holds functions [4i .. 4i+3], lowest table in bit 0). *)
let feasible_hex c =
  String.init 64 (fun digit ->
      let v = ref 0 in
      for bit = 0 to 3 do
        if Config.feasible c (Bfun.make ~arity:3 ((digit * 4) + bit)) then
          v := !v lor (1 lsl bit)
      done;
      "0123456789abcdef".[!v])

(* Recorded with the Bfun/Hashtbl-built feasibility sets. *)
let feasible_golden =
  [
    (Config.Invb, "1008000000008000000002000000000000000000004000000001000000001008");
    (Config.Mx, "9249208248049249090492490400490000920020924920909249201241049249");
    (Config.Nd2, "9249200040009008010012080000080000100000104800801009000200049249");
    (Config.Nd3, "f359300050009008110012080000080810100000104800881009000a000c9acf");
    (Config.Ndmx, "fbdfb2efde4fffff9fcdffffcf45df599afba2f3ffffb3f9fffff27bf74dfbdf");
    (Config.Xoamx, "fffffbeffedfffffbfdfffffdf6dffdbdbffb6fbfffffbfdfffffb7ff7dfffff");
    (Config.Xoandmx, "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
    (Config.Mux3, "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
    (Config.Lut, "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
    (Config.Carry, "9669690060909009211212481428288241141428124848849009090600969669");
  ]

let test_feasible_golden () =
  List.iter
    (fun c ->
      Alcotest.(check string)
        (Config.name c ^ " feasibility")
        (List.assoc c feasible_golden) (feasible_hex c))
    Config.all

let test_config_delay_ordering () =
  let load = 10.0 in
  let d c = Config.delay c ~load in
  Alcotest.(check bool) "nd3 faster than lut" true (d Config.Nd3 < d Config.Lut);
  Alcotest.(check bool) "mx faster than lut" true (d Config.Mx < d Config.Lut);
  (* the paper's key claim: even two-stage granular configs beat the LUT *)
  Alcotest.(check bool) "ndmx faster than lut" true (d Config.Ndmx < d Config.Lut);
  Alcotest.(check bool) "xoamx faster than lut" true (d Config.Xoamx < d Config.Lut);
  Alcotest.(check bool) "single stage faster than chained" true
    (d Config.Mx < d Config.Xoamx)

let test_demand_alternatives () =
  let open Arch in
  let demands = Config.demand granular_plb Config.Mx in
  Alcotest.(check int) "mx has two homes" 2 (List.length demands);
  let d = Config.demand granular_plb Config.Xoandmx in
  (match d with
  | [ v ] ->
      Alcotest.(check int) "xoandmx uses xoa" 1 (Vector.get v Xoa);
      Alcotest.(check int) "xoandmx uses nd3" 1 (Vector.get v Nd3);
      Alcotest.(check int) "xoandmx uses mux" 1 (Vector.get v Mux)
  | _ -> Alcotest.fail "xoandmx should have a single demand")

let test_tile_cost () =
  let open Config in
  (* scarcity pricing: single-slot resources cost a full kind-share *)
  let g = Arch.granular_plb and l = Arch.lut_plb in
  Alcotest.(check bool) "lut slot dominates on the lut arch" true
    (tile_cost l Lut > tile_cost l Nd3);
  Alcotest.(check bool) "mx cheapest granular logic slot" true
    (tile_cost g Mx <= tile_cost g Xoamx
    && tile_cost g Mx <= tile_cost g Xoandmx);
  Alcotest.(check bool) "three nd2 supernodes cost more than one lut" true
    (3.0 *. tile_cost l Nd2 > tile_cost l Lut);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (name c ^ " positive tile cost")
        true
        (tile_cost g c >= 0.0))
    all

let test_granular_2ff () =
  let v = Arch.granular_2ff in
  Alcotest.(check int) "two flops" 2 (Arch.flops_per_tile v);
  Alcotest.(check bool) "bigger tile than plain granular" true
    (v.Arch.tile_area > Arch.granular_plb.Arch.tile_area);
  Alcotest.(check bool) "same combinational fabric" true
    (v.Arch.comb_area = Arch.granular_plb.Arch.comb_area);
  (* two registered outputs can now share a tile *)
  let flop_item =
    { Packer.config = Config.Invb; pins = 1; flop = true }
  in
  Alcotest.(check bool) "two flops fit" true
    (Packer.fits v [ flop_item; flop_item ]);
  Alcotest.(check bool) "three flops do not" false
    (Packer.fits v [ flop_item; flop_item; flop_item ])

(* --- Packer: the paper's co-location examples --------------------------- *)

let mk config pins = { Packer.config; pins; flop = false }

let test_paper_packings () =
  let g = Arch.granular_plb in
  (* "three MX functions and one ND3 function" *)
  Alcotest.(check bool) "3 MX + ND3" true
    (Packer.fits g [ mk Config.Mx 3; mk Config.Mx 3; mk Config.Mx 3; mk Config.Nd3 3 ]);
  (* "one MX, one XOAMX, and one ND3" *)
  Alcotest.(check bool) "MX + XOAMX + ND3" true
    (Packer.fits g [ mk Config.Mx 3; mk Config.Xoamx 3; mk Config.Nd3 3 ]);
  (* "a NDMX and XOAMX function" (second NDMX realized as XOAMX) *)
  Alcotest.(check bool) "NDMX + XOAMX" true
    (Packer.fits g [ mk Config.Ndmx 3; mk Config.Xoamx 3 ]);
  (* but two XOAMX cannot share one XOA *)
  Alcotest.(check bool) "2 XOAMX infeasible" false
    (Packer.fits g [ mk Config.Xoamx 3; mk Config.Xoamx 3 ]);
  (* LUT PLB: one LUT + two ND3 *)
  let l = Arch.lut_plb in
  Alcotest.(check bool) "LUT + 2 ND3" true
    (Packer.fits l [ mk Config.Lut 3; mk Config.Nd3 3; mk Config.Nd3 3 ]);
  Alcotest.(check bool) "2 LUT infeasible" false
    (Packer.fits l [ mk Config.Lut 3; mk Config.Lut 3 ])

let test_flop_and_pin_limits () =
  let g = Arch.granular_plb in
  let with_flop = { (mk Config.Mx 3) with Packer.flop = true } in
  Alcotest.(check bool) "one flop ok" true (Packer.fits g [ with_flop ]);
  Alcotest.(check bool) "two flops too many" false
    (Packer.fits g [ with_flop; with_flop ]);
  (* pin limit: 5 x 3-pin items exceed 12 input pins *)
  Alcotest.(check bool) "pin limit" false
    (Packer.fits g (List.init 5 (fun _ -> mk Config.Invb 3)))

let test_pack_greedy () =
  let g = Arch.granular_plb in
  let items = List.init 6 (fun _ -> mk Config.Mx 2) in
  let tiles = Packer.pack g items in
  Alcotest.(check bool) "every tile fits" true
    (List.for_all (Packer.fits g) tiles);
  Alcotest.(check int) "6 MX in 2 tiles" 2 (List.length tiles);
  Alcotest.(check int) "total preserved" 6
    (List.fold_left (fun acc t -> acc + List.length t) 0 tiles)

let prop_pack_tiles_fit =
  let config_gen =
    QCheck.Gen.oneofl
      Config.[ Mx; Nd2; Nd3; Ndmx; Xoamx; Xoandmx; Invb ]
  in
  let items_gen =
    QCheck.Gen.(list_size (int_range 1 12) (map (fun c -> mk c 2) config_gen))
  in
  QCheck.Test.make ~name:"greedy packing always yields feasible tiles"
    ~count:100
    (QCheck.make items_gen)
    (fun items ->
      let tiles = Packer.pack Arch.granular_plb items in
      List.for_all (Packer.fits Arch.granular_plb) tiles
      && List.fold_left (fun acc t -> acc + List.length t) 0 tiles
         = List.length items)

(* --- Full adder (Section 2.2) ------------------------------------------ *)

let test_full_adder_equivalence () =
  match Equiv.check_exhaustive (Full_adder.reference ()) (Full_adder.granular_realization ()) with
  | Equiv.Equivalent -> ()
  | Equiv.Mismatch _ -> Alcotest.fail "granular FA realization is wrong"

let test_full_adder_tiles () =
  Alcotest.(check int) "granular: 1 tile (paper)" 1
    (Full_adder.tiles_needed Arch.granular_plb);
  Alcotest.(check int) "lut-based: 2 tiles (paper)" 2
    (Full_adder.tiles_needed Arch.lut_plb)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vpga_plb"
    [
      ( "arch",
        [
          Alcotest.test_case "paper area calibration" `Quick test_arch_calibration;
          Alcotest.test_case "vectors" `Quick test_vector;
        ] );
      ( "config",
        [
          Alcotest.test_case "examples" `Quick test_config_examples;
          Alcotest.test_case "lut arch" `Quick test_config_lut_arch;
          Alcotest.test_case "censuses" `Quick test_config_censuses;
          Alcotest.test_case "feasibility golden" `Quick test_feasible_golden;
          Alcotest.test_case "delay ordering" `Quick test_config_delay_ordering;
          Alcotest.test_case "demands" `Quick test_demand_alternatives;
          Alcotest.test_case "tile cost" `Quick test_tile_cost;
          Alcotest.test_case "granular 2ff variant" `Quick test_granular_2ff;
          qt prop_choose_is_feasible;
          qt prop_feasibility_monotone;
        ] );
      ( "packer",
        [
          Alcotest.test_case "paper packings" `Quick test_paper_packings;
          Alcotest.test_case "flop and pin limits" `Quick test_flop_and_pin_limits;
          Alcotest.test_case "greedy" `Quick test_pack_greedy;
          qt prop_pack_tiles_fit;
        ] );
      ( "full_adder",
        [
          Alcotest.test_case "equivalence" `Quick test_full_adder_equivalence;
          Alcotest.test_case "tile counts" `Quick test_full_adder_tiles;
        ] );
    ]
