(* Tests for the AIG, cut enumeration, FlowMap labeling, technology mapping
   and the regularity-driven compaction step. *)

module Bfun = Vpga_logic.Bfun
module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Equiv = Vpga_netlist.Equiv
module Stats = Vpga_netlist.Stats
module Aig = Vpga_aig.Aig
module Cut = Vpga_aig.Cut
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config
open Vpga_mapper

(* --- Aig ---------------------------------------------------------------- *)

let test_strash () =
  let t = Aig.create () in
  let a = Aig.add_pi t and b = Aig.add_pi t in
  let x = Aig.and_ t a b in
  let y = Aig.and_ t b a in
  Alcotest.(check int) "commutative strash" x y;
  Alcotest.(check int) "one and node" 1 (Aig.and_count t);
  Alcotest.(check int) "folding: a & 1 = a" a (Aig.and_ t a Aig.const1);
  Alcotest.(check int) "folding: a & 0 = 0" Aig.const0 (Aig.and_ t a Aig.const0);
  Alcotest.(check int) "folding: a & a = a" a (Aig.and_ t a a);
  Alcotest.(check int) "folding: a & !a = 0" Aig.const0
    (Aig.and_ t a (Aig.not_ a))

let test_aig_eval () =
  let t = Aig.create () in
  let a = Aig.add_pi t and b = Aig.add_pi t and c = Aig.add_pi t in
  let f = Aig.mux_ t ~sel:c a b in
  for m = 0 to 7 do
    let pi = [| m land 1 = 1; m land 2 = 2; m land 4 = 4 |] in
    let expect = if pi.(2) then pi.(1) else pi.(0) in
    Alcotest.(check bool) (Printf.sprintf "mux@%d" m) expect (Aig.eval t pi f)
  done

let prop_add_fn_matches_bfun =
  let bfun3 = QCheck.map (Bfun.make ~arity:3) (QCheck.int_bound 255) in
  QCheck.Test.make ~name:"add_fn realizes the truth table" ~count:256 bfun3
    (fun fn ->
      let t = Aig.create () in
      let args = Array.init 3 (fun _ -> Aig.add_pi t) in
      let l = Aig.add_fn t fn args in
      let ok = ref true in
      for m = 0 to 7 do
        let pi = Array.init 3 (fun i -> (m lsr i) land 1 = 1) in
        if Aig.eval t pi l <> Bfun.eval fn m then ok := false
      done;
      !ok)

let counter3 () =
  let nl = Netlist.create ~name:"cnt3" () in
  let en = Netlist.input nl "en" in
  let q0 = Netlist.dff nl and q1 = Netlist.dff nl and q2 = Netlist.dff nl in
  let d0 = Netlist.gate nl Kind.Xor2 [| q0; en |] in
  let c0 = Netlist.gate nl Kind.And2 [| q0; en |] in
  let d1 = Netlist.gate nl Kind.Xor2 [| q1; c0 |] in
  let c1 = Netlist.gate nl Kind.And2 [| q1; c0 |] in
  let d2 = Netlist.gate nl Kind.Xor2 [| q2; c1 |] in
  Netlist.connect nl ~flop:q0 ~d:d0;
  Netlist.connect nl ~flop:q1 ~d:d1;
  Netlist.connect nl ~flop:q2 ~d:d2;
  ignore (Netlist.output nl "b0" q0);
  ignore (Netlist.output nl "b1" q1);
  ignore (Netlist.output nl "b2" q2);
  nl

let test_of_netlist () =
  let nl = counter3 () in
  let b = Aig.of_netlist nl in
  Alcotest.(check int) "pis = 1 input + 3 flops" 4 (Aig.num_pis b.Aig.aig);
  Alcotest.(check int) "roots = 3 outputs + 3 flop Ds" 6
    (List.length b.Aig.roots);
  (* each xor2 costs 3 AND nodes, each and2 one: 3*3 + 2 = 11, with strash
     sharing keeping it there or below *)
  Alcotest.(check bool) "ands bounded" true (Aig.and_count b.Aig.aig <= 11)

(* --- Cut ---------------------------------------------------------------- *)

let test_cuts () =
  let t = Aig.create () in
  let a = Aig.add_pi t and b = Aig.add_pi t and c = Aig.add_pi t in
  let ab = Aig.and_ t a b in
  let abc = Aig.and_ t ab c in
  let cuts = Cut.enumerate t ~k:3 ~max_cuts:8 in
  let top = cuts.(Aig.node_of abc) in
  (* must contain the {a,b,c} cut whose function is and3 *)
  let and3 = Bfun.(var ~arity:3 0 &&& var ~arity:3 1 &&& var ~arity:3 2) in
  Alcotest.(check bool) "{a,b,c} cut found" true
    (List.exists
       (fun cut ->
         Cut.leaf_count cut = 3 && Bfun.equal cut.Cut.tt and3)
       top);
  (* every cut's truth table must evaluate consistently with the AIG *)
  List.iter
    (fun cut ->
      for m = 0 to 7 do
        let pi = Array.init 3 (fun i -> (m lsr i) land 1 = 1) in
        let leaf_vals =
          Array.map
            (fun leaf ->
              if Aig.is_pi t leaf then pi.(Aig.pi_index t leaf)
              else Aig.eval t pi (2 * leaf))
            cut.Cut.leaves
        in
        let idx = ref 0 in
        Array.iteri (fun i v -> if v then idx := !idx lor (1 lsl i)) leaf_vals;
        Alcotest.(check bool) "cut tt consistent"
          (Aig.eval t pi (2 * Aig.node_of abc))
          (Bfun.eval cut.Cut.tt !idx)
      done)
    (List.filter (fun cut -> Cut.leaf_count cut > 1) top)

(* --- FlowMap ------------------------------------------------------------ *)

let and_tree t inputs =
  let rec go = function
    | [] -> Aig.const1
    | [ x ] -> x
    | xs ->
        let rec pair = function
          | a :: b :: rest -> Aig.and_ t a b :: pair rest
          | rest -> rest
        in
        go (pair xs)
  in
  go inputs

let test_flowmap_and6 () =
  let t = Aig.create () in
  let pis = List.init 6 (fun _ -> Aig.add_pi t) in
  let top = and_tree t pis in
  Alcotest.(check int) "and6 needs depth 2 at k=3" 2
    (let labels = Flowmap.labels t ~k:3 in
     labels.(Aig.node_of top))

let test_flowmap_and3 () =
  let t = Aig.create () in
  let pis = List.init 3 (fun _ -> Aig.add_pi t) in
  let top = and_tree t pis in
  let labels = Flowmap.labels t ~k:3 in
  Alcotest.(check int) "and3 fits one level" 1 (labels.(Aig.node_of top))

let test_flowmap_monotone_k () =
  (* larger k never increases depth *)
  let t = Aig.create () in
  let pis = List.init 9 (fun _ -> Aig.add_pi t) in
  let top = and_tree t pis in
  ignore top;
  let d3 = Flowmap.depth t ~k:3 and d4 = Flowmap.depth t ~k:4 in
  Alcotest.(check bool) "monotone in k" true (d4 <= d3);
  (* FlowMap is depth-optimal for the *given* structure: the binary
     pairing tree of and9 forces a 4-PI cone at the second level, so depth 3
     (a restructured 3-ary tree would reach 2; see the next check). *)
  Alcotest.(check int) "and9 pairing tree at k=3" 3 d3;
  let t2 = Aig.create () in
  let tri =
    List.init 3 (fun _ ->
        let a = Aig.add_pi t2 and b = Aig.add_pi t2 and c = Aig.add_pi t2 in
        Aig.and_ t2 (Aig.and_ t2 a b) c)
  in
  let top = and_tree t2 tri in
  let labels = Flowmap.labels t2 ~k:3 in
  Alcotest.(check int) "and9 as 3-ary tree at k=3" 2 (labels.(Aig.node_of top))

let test_flowmap_xor_chain () =
  let t = Aig.create () in
  let a = Aig.add_pi t and b = Aig.add_pi t and c = Aig.add_pi t
  and d = Aig.add_pi t and e = Aig.add_pi t in
  let x1 = Aig.xor_ t a b in
  let x2 = Aig.xor_ t x1 c in
  let x3 = Aig.xor_ t x2 d in
  let x4 = Aig.xor_ t x3 e in
  let labels = Flowmap.labels t ~k:3 in
  (* xor5 chain: xor3 in one 3-cut, then two more vars in a second level *)
  Alcotest.(check int) "xor5 chain depth 2" 2 (labels.(Aig.node_of x4))

(* Random AIGs deep enough that fanin cones overlap, so the max-flow cut
   decision sees reconvergence rather than trees only. *)
let random_aig seed =
  let rng = Random.State.make [| seed |] in
  let t = Aig.create () in
  let pis = List.init 6 (fun _ -> Aig.add_pi t) in
  let pool = ref pis in
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  for _ = 1 to 60 do
    let a = pick () and b = pick () in
    let a = if Random.State.bool rng then Aig.not_ a else a in
    let b = if Random.State.bool rng then Aig.not_ b else b in
    pool := Aig.and_ t a b :: !pool
  done;
  t

(* Label bounds every exact FlowMap labeling obeys, checked against
   quantities computed independently of the max-flow: an AND node's label is
   the max fanin label or one more, never exceeds its unit-delay AIG level,
   is 1 whenever its whole PI support fits in one k-cut, and never grows
   with k. *)
let prop_flowmap_label_bounds =
  QCheck.Test.make ~name:"labels within fanin, level and support bounds"
    ~count:25 QCheck.small_int (fun seed ->
      let t = random_aig seed in
      let n = Aig.size t in
      let level = Array.make n 0 and support = Array.make n [] in
      for id = 1 to n - 1 do
        if Aig.is_pi t id then support.(id) <- [ id ]
        else if not (Aig.is_const id) then begin
          let l0, l1 = Aig.fanins t id in
          let f0 = Aig.node_of l0 and f1 = Aig.node_of l1 in
          level.(id) <- 1 + max level.(f0) level.(f1);
          support.(id) <- List.sort_uniq compare (support.(f0) @ support.(f1))
        end
      done;
      let l3 = Flowmap.labels t ~k:3 and l4 = Flowmap.labels t ~k:4 in
      for id = 0 to n - 1 do
        if Aig.is_pi t id || Aig.is_const id then begin
          if l3.(id) <> 0 then QCheck.Test.fail_reportf "leaf %d labelled" id
        end
        else begin
          let l0, l1 = Aig.fanins t id in
          let p = max l3.(Aig.node_of l0) l3.(Aig.node_of l1) in
          if l3.(id) < max p 1 || l3.(id) > p + 1 then
            QCheck.Test.fail_reportf "node %d: label %d, fanin max %d" id
              l3.(id) p;
          if l3.(id) > level.(id) then
            QCheck.Test.fail_reportf "node %d: label %d above level %d" id
              l3.(id) level.(id);
          if List.length support.(id) <= 3 && l3.(id) <> 1 then
            QCheck.Test.fail_reportf "node %d: 3-input cone labelled %d" id
              l3.(id);
          if l4.(id) > l3.(id) then
            QCheck.Test.fail_reportf "node %d: k=4 label %d above k=3 %d" id
              l4.(id) l3.(id)
        end
      done;
      Flowmap.depth t ~k:3 = Array.fold_left max 0 l3)

(* --- Techmap ------------------------------------------------------------ *)

let full_adder () =
  let nl = Netlist.create ~name:"fa" () in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let cin = Netlist.input nl "cin" in
  let sum = Netlist.gate nl Kind.Xor3 [| a; b; cin |] in
  let cout = Netlist.gate nl Kind.Maj3 [| a; b; cin |] in
  ignore (Netlist.output nl "sum" sum);
  ignore (Netlist.output nl "cout" cout);
  nl

let all_nodes_mapped nl =
  Array.for_all
    (fun n ->
      match n.Netlist.kind with
      | Kind.Mapped _ | Kind.Input | Kind.Output | Kind.Dff | Kind.Const _ ->
          true
      | _ -> false)
    (Netlist.nodes nl)

let test_techmap_equivalence () =
  let nl = full_adder () in
  List.iter
    (fun arch ->
      let mapped = Techmap.map arch nl in
      Alcotest.(check bool)
        (arch.Arch.name ^ " all mapped")
        true (all_nodes_mapped mapped);
      match Equiv.check_exhaustive nl mapped with
      | Equiv.Equivalent -> ()
      | Equiv.Mismatch _ ->
          Alcotest.fail (arch.Arch.name ^ ": techmap broke the design"))
    Arch.all

let test_techmap_lut_usage () =
  let nl = full_adder () in
  let lut_mapped = Techmap.map Arch.lut_plb nl in
  let hist = Stats.histogram lut_mapped in
  (* xor3 and maj3 both burn LUTs on the LUT-based PLB *)
  Alcotest.(check int) "two lut3 cells" 2 (List.assoc "lut3" hist);
  let gran_mapped = Techmap.map Arch.granular_plb nl in
  let hist_g = Stats.histogram gran_mapped in
  Alcotest.(check bool) "no lut on granular" true
    (not (List.mem_assoc "lut3" hist_g));
  (* granular: xor3 = xoa + mux, maj3 = decomposed muxes *)
  Alcotest.(check bool) "granular area smaller" true
    (Techmap.cell_area gran_mapped < Techmap.cell_area lut_mapped)

let test_techmap_sequential () =
  let nl = counter3 () in
  List.iter
    (fun arch ->
      let mapped = Techmap.map arch nl in
      match Equiv.check ~seed:11 nl mapped with
      | Equiv.Equivalent -> ()
      | Equiv.Mismatch _ -> Alcotest.fail (arch.Arch.name ^ ": sequential"))
    Arch.all

(* --- Compact ------------------------------------------------------------ *)

let random_comb_netlist seed =
  let rng = Random.State.make [| seed |] in
  let nl = Netlist.create ~name:"rand" () in
  let pis = Array.init 5 (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)) in
  let pool = ref (Array.to_list pis) in
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  for _ = 1 to 30 do
    let k =
      match Random.State.int rng 7 with
      | 0 -> Kind.And2
      | 1 -> Kind.Or2
      | 2 -> Kind.Xor2
      | 3 -> Kind.Nand2
      | 4 -> Kind.Mux2
      | 5 -> Kind.Maj3
      | _ -> Kind.Inv
    in
    pool := Netlist.gate nl k (Array.init (Kind.arity k) (fun _ -> pick ())) :: !pool
  done;
  ignore (Netlist.output nl "o1" (pick ()));
  ignore (Netlist.output nl "o2" (pick ()));
  nl

let prop_compact_equivalence =
  QCheck.Test.make ~name:"compaction preserves function (both archs)"
    ~count:20 QCheck.small_int (fun seed ->
      let nl = random_comb_netlist seed in
      List.for_all
        (fun arch ->
          Equiv.check_exhaustive nl (Compact.run arch nl) = Equiv.Equivalent)
        Arch.all)

let test_compact_sequential () =
  let nl = counter3 () in
  List.iter
    (fun arch ->
      match Equiv.check ~seed:3 nl (Compact.run arch nl) with
      | Equiv.Equivalent -> ()
      | Equiv.Mismatch _ -> Alcotest.fail (arch.Arch.name ^ ": sequential"))
    Arch.all

let test_compact_reduces_area () =
  (* An 8-bit ripple-carry adder: xor3/maj3 pairs that compaction should
     collapse into shared supernodes. *)
  let nl = Netlist.create ~name:"rca8" () in
  let a = Array.init 8 (fun i -> Netlist.input nl (Printf.sprintf "a%d" i)) in
  let b = Array.init 8 (fun i -> Netlist.input nl (Printf.sprintf "b%d" i)) in
  let carry = ref (Netlist.gate nl (Kind.Const false) [||]) in
  Array.iteri
    (fun i _ ->
      let s = Netlist.gate nl Kind.Xor3 [| a.(i); b.(i); !carry |] in
      let c = Netlist.gate nl Kind.Maj3 [| a.(i); b.(i); !carry |] in
      ignore (Netlist.output nl (Printf.sprintf "s%d" i) s);
      carry := c)
    a;
  ignore (Netlist.output nl "cout" !carry);
  List.iter
    (fun arch ->
      let mapped = Techmap.map arch nl in
      let compacted = Compact.run arch nl in
      let before = Techmap.cell_area mapped in
      let after = Techmap.cell_area compacted in
      Alcotest.(check bool)
        (Printf.sprintf "%s: area reduced (%.0f -> %.0f)" arch.Arch.name
           before after)
        true (after < before);
      match Equiv.check_exhaustive nl compacted with
      | Equiv.Equivalent -> ()
      | Equiv.Mismatch _ -> Alcotest.fail "rca8 broken")
    Arch.all

let test_compact_histogram () =
  let nl = random_comb_netlist 5 in
  let compacted = Compact.run Arch.granular_plb nl in
  let hist = Compact.config_histogram compacted in
  Alcotest.(check bool) "histogram non-empty" true (hist <> []);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  let mapped_nodes =
    Array.fold_left
      (fun acc n ->
        match n.Netlist.kind with
        | Kind.Mapped { cell; _ } when Config.of_cell_name cell <> None ->
            acc + 1
        | _ -> acc)
      0 (Netlist.nodes compacted)
  in
  Alcotest.(check int) "histogram covers all supernodes" mapped_nodes total

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vpga_mapper"
    [
      ( "aig",
        [
          Alcotest.test_case "strash and folding" `Quick test_strash;
          Alcotest.test_case "eval" `Quick test_aig_eval;
          Alcotest.test_case "of_netlist" `Quick test_of_netlist;
          qt prop_add_fn_matches_bfun;
        ] );
      ("cut", [ Alcotest.test_case "enumeration" `Quick test_cuts ]);
      ( "flowmap",
        [
          Alcotest.test_case "and3" `Quick test_flowmap_and3;
          Alcotest.test_case "and6" `Quick test_flowmap_and6;
          Alcotest.test_case "monotone in k" `Quick test_flowmap_monotone_k;
          Alcotest.test_case "xor chain" `Quick test_flowmap_xor_chain;
        ] );
      ("flowmap label bounds", [ qt prop_flowmap_label_bounds ]);
      ( "techmap",
        [
          Alcotest.test_case "equivalence" `Quick test_techmap_equivalence;
          Alcotest.test_case "lut usage" `Quick test_techmap_lut_usage;
          Alcotest.test_case "sequential" `Quick test_techmap_sequential;
        ] );
      ( "compact",
        [
          qt prop_compact_equivalence;
          Alcotest.test_case "sequential" `Quick test_compact_sequential;
          Alcotest.test_case "area reduction" `Quick test_compact_reduces_area;
          Alcotest.test_case "histogram" `Quick test_compact_histogram;
        ] );
    ]
