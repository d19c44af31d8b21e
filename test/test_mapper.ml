(* Tests for the AIG, cut enumeration, technology mapping and the
   regularity-driven compaction step. *)

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

(* The list-based enumeration [Cut.enumerate] replaced, kept verbatim as
   the reference its scratch-array rewrite must reproduce: same cuts, same
   tables, same order. *)
module Reference_cut = struct
  let expand tt leaves union =
    let m = Array.length union in
    let pos =
      Array.map
        (fun leaf ->
          let rec find i = if union.(i) = leaf then i else find (i + 1) in
          find 0)
        leaves
    in
    let out = ref 0 in
    for minterm = 0 to (1 lsl m) - 1 do
      let sub = ref 0 in
      Array.iteri
        (fun i p -> if (minterm lsr p) land 1 = 1 then sub := !sub lor (1 lsl i))
        pos;
      if Bfun.eval tt !sub then out := !out lor (1 lsl minterm)
    done;
    Bfun.make ~arity:m !out

  let merge_leaves ~k a b =
    let out = Array.make k 0 in
    let rec go i j n =
      if n > k then None
      else if i >= Array.length a && j >= Array.length b then
        Some (Array.sub out 0 n)
      else if
        j >= Array.length b || (i < Array.length a && a.(i) < b.(j))
      then begin
        if n = k then None
        else begin
          out.(n) <- a.(i);
          go (i + 1) j (n + 1)
        end
      end
      else if i >= Array.length a || b.(j) < a.(i) then begin
        if n = k then None
        else begin
          out.(n) <- b.(j);
          go i (j + 1) (n + 1)
        end
      end
      else begin
        (* equal *)
        if n = k then None
        else begin
          out.(n) <- a.(i);
          go (i + 1) (j + 1) (n + 1)
        end
      end
    in
    go 0 0 0

  let merge ~k (c0 : Cut.t) pol0 (c1 : Cut.t) pol1 =
    match merge_leaves ~k c0.Cut.leaves c1.Cut.leaves with
    | None -> None
    | Some union ->
        let t0 = expand c0.Cut.tt c0.Cut.leaves union in
        let t1 = expand c1.Cut.tt c1.Cut.leaves union in
        let t0 = if pol0 then Bfun.lnot t0 else t0 in
        let t1 = if pol1 then Bfun.lnot t1 else t1 in
        Some { Cut.leaves = union; tt = Bfun.(t0 &&& t1) }

  let same_leaves (a : Cut.t) (b : Cut.t) =
    Array.length a.Cut.leaves = Array.length b.Cut.leaves
    && (let rec eq i =
          i >= Array.length a.Cut.leaves
          || (a.Cut.leaves.(i) = b.Cut.leaves.(i) && eq (i + 1))
        in
        eq 0)

  let enumerate aig ~k ~max_cuts =
    let n = Aig.size aig in
    let cuts = Array.make n [] in
    cuts.(0) <- [ Cut.trivial 0 ];
    for id = 1 to n - 1 do
      if Aig.is_pi aig id then cuts.(id) <- [ Cut.trivial id ]
      else begin
        let l0, l1 = Aig.fanins aig id in
        let c0s = cuts.(Aig.node_of l0) and c1s = cuts.(Aig.node_of l1) in
        let acc = ref [] in
        List.iter
          (fun c0 ->
            List.iter
              (fun c1 ->
                match
                  merge ~k c0 (Aig.is_complement l0) c1 (Aig.is_complement l1)
                with
                | None -> ()
                | Some c ->
                    if not (List.exists (same_leaves c) !acc) then
                      acc := c :: !acc)
              c1s)
          c0s;
        let sorted =
          List.stable_sort
            (fun a b -> Int.compare (Cut.leaf_count b) (Cut.leaf_count a))
            !acc
        in
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        cuts.(id) <- Cut.trivial id :: take max_cuts sorted
      end
    done;
    cuts
end

(* Random AIGs with 4-11 PIs, so merged leaf sets collide rarely and
   fanin cut lists fill up to [max_cuts]. *)
let random_cut_aig seed =
  let rng = Random.State.make [| seed |] in
  let t = Aig.create () in
  let pool =
    ref (List.init (4 + Random.State.int rng 8) (fun _ -> Aig.add_pi t))
  in
  for _ = 1 to 40 + Random.State.int rng 120 do
    let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
    let a = pick () and b = pick () in
    let a = if Random.State.bool rng then Aig.not_ a else a in
    let b = if Random.State.bool rng then Aig.not_ b else b in
    pool := Aig.and_ t a b :: !pool
  done;
  t

let prop_cuts_match_reference =
  QCheck.Test.make ~name:"enumerate == list-based reference" ~count:60
    QCheck.small_int (fun seed ->
      let t = random_cut_aig seed in
      List.for_all
        (fun (k, max_cuts) ->
          let got = Cut.enumerate t ~k ~max_cuts in
          let want = Reference_cut.enumerate t ~k ~max_cuts in
          Array.iteri
            (fun id w ->
              let g = got.(id) in
              let show cs =
                String.concat " "
                  (List.map
                     (fun (c : Cut.t) ->
                       Printf.sprintf "{%s}:%s"
                         (String.concat ","
                            (Array.to_list
                               (Array.map string_of_int c.Cut.leaves)))
                         (Bfun.to_string c.Cut.tt))
                     cs)
              in
              if
                List.length g <> List.length w
                || not
                     (List.for_all2
                        (fun (a : Cut.t) (b : Cut.t) ->
                          a.Cut.leaves = b.Cut.leaves
                          && Bfun.equal a.Cut.tt b.Cut.tt)
                        g w)
              then
                QCheck.Test.fail_reportf
                  "k=%d max_cuts=%d node %d:@ got  %s@ want %s" k max_cuts id
                  (show g) (show w))
            want;
          true)
        [ (3, 4); (3, 8); (3, 16); (4, 8); (2, 4) ])

(* Cut functions checked against simulation rather than a reference
   enumerator: under random PI values, every cut's truth table applied to
   its leaves' values gives the node's value. *)
let prop_cut_functions_simulate =
  QCheck.Test.make ~name:"truth tables agree with simulation" ~count:40
    QCheck.small_int (fun seed ->
      let t = random_cut_aig seed in
      let n = Aig.size t in
      let rng = Random.State.make [| seed; 17 |] in
      List.for_all
        (fun (k, max_cuts) ->
          let cuts = Cut.enumerate t ~k ~max_cuts in
          for _ = 1 to 8 do
            let pi = Array.init (Aig.num_pis t) (fun _ -> Random.State.bool rng) in
            let value = Array.init n (fun id -> Aig.eval t pi (2 * id)) in
            Array.iteri
              (fun id cs ->
                List.iter
                  (fun (c : Cut.t) ->
                    if Cut.leaf_count c > k then
                      QCheck.Test.fail_reportf "node %d: %d leaves at k=%d" id
                        (Cut.leaf_count c) k;
                    let m = ref 0 in
                    Array.iteri
                      (fun i leaf -> if value.(leaf) then m := !m lor (1 lsl i))
                      c.Cut.leaves;
                    if Bfun.eval c.Cut.tt !m <> value.(id) then
                      QCheck.Test.fail_reportf
                        "k=%d max_cuts=%d node %d: cut {%s} gives %b, node is %b"
                        k max_cuts id
                        (String.concat ","
                           (Array.to_list
                              (Array.map string_of_int c.Cut.leaves)))
                        (not value.(id)) value.(id))
                  cs)
              cuts
          done;
          true)
        [ (3, 8); (4, 8); (2, 4) ])

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

(* A digest of a netlist's nodes in id order: kind, mapped function,
   fanins and name. *)
let netlist_digest nl =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (n : Netlist.node) ->
      Buffer.add_string b (Kind.name n.Netlist.kind);
      (match n.Netlist.kind with
      | Kind.Mapped { fn; _ } -> Buffer.add_string b (Bfun.to_string fn)
      | _ -> ());
      Array.iter (fun f -> Printf.bprintf b " %d" f) n.Netlist.fanins;
      Buffer.add_char b ' ';
      Buffer.add_string b (Option.value ~default:"" n.Netlist.name);
      Buffer.add_char b ';')
    (Netlist.nodes nl);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded with the list-based cut enumeration and the unmemoized cover
   costs: (design, arch, digest of [Compact.run arch nl]). *)
let compact_golden =
  [
    ("ALU", "lut_plb", "1c741ce685d0aaf1c99f90e2c0bbb3d5");
    ("ALU", "granular_plb", "e9fe8f7dfcca6cd3ca09c3b081915630");
    ("Firewire", "lut_plb", "72fe420eac285f3b2f01a7cf779607ce");
    ("Firewire", "granular_plb", "89f950cbded34c9ecb6b9372fb9fa9a4");
    ("FPU", "lut_plb", "df130292e4913cec9c16e5c570992e43");
    ("FPU", "granular_plb", "e9d695d45fabeef6a99c12615cd6977b");
    ("Network switch", "lut_plb", "f18cb650d25ef00a8f8222c34c0356a2");
    ("Network switch", "granular_plb", "87c029e0b0f89e129bc2ffe6feec7736");
  ]

let test_compact_golden () =
  List.iter
    (fun (dname, nl) ->
      List.iter
        (fun arch ->
          let _, _, want =
            List.find
              (fun (d, a, _) -> d = dname && a = arch.Arch.name)
              compact_golden
          in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s compacted netlist" dname arch.Arch.name)
            want
            (netlist_digest (Compact.run arch nl)))
        Arch.all)
    (Vpga_flow.Experiments.designs Vpga_flow.Experiments.Test)

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
      ( "cut",
        [
          Alcotest.test_case "enumeration" `Quick test_cuts;
          qt prop_cuts_match_reference;
        ] );
      ("cut functions vs AIG", [ qt prop_cut_functions_simulate ]);
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
          Alcotest.test_case "golden netlist digests" `Slow test_compact_golden;
        ] );
    ]
