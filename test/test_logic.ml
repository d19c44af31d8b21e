(* Tests for Vpga_logic: truth-table functions, gate feasibility, and the
   paper's Section 2.1 S3 analysis. *)

open Vpga_logic

let bfun3 = QCheck.map (Bfun.make ~arity:3) (QCheck.int_bound 255)

(* --- Bfun ------------------------------------------------------------- *)

let test_var_patterns () =
  Alcotest.(check int) "var0/3" 0xAA (Bfun.table (Bfun.var ~arity:3 0));
  Alcotest.(check int) "var1/3" 0xCC (Bfun.table (Bfun.var ~arity:3 1));
  Alcotest.(check int) "var2/3" 0xF0 (Bfun.table (Bfun.var ~arity:3 2));
  Alcotest.(check int) "var0/2" 0xA (Bfun.table (Bfun.var ~arity:2 0))

let test_eval () =
  let f = Bfun.make ~arity:3 0b10010110 in
  (* f = xor3 *)
  for m = 0 to 7 do
    let expect = (m land 1) lxor ((m lsr 1) land 1) lxor ((m lsr 2) land 1) = 1 in
    Alcotest.(check bool) (Printf.sprintf "xor3@%d" m) expect (Bfun.eval f m)
  done

let test_ops () =
  let a = Bfun.var ~arity:2 0 and b = Bfun.var ~arity:2 1 in
  Alcotest.(check int) "and" 0b1000 Bfun.(table (a &&& b));
  Alcotest.(check int) "or" 0b1110 Bfun.(table (a ||| b));
  Alcotest.(check int) "xor" 0b0110 Bfun.(table (a ^^^ b));
  Alcotest.(check int) "nand" 0b0111 Bfun.(table (nand a b));
  Alcotest.(check int) "not a" 0b0101 Bfun.(table (lnot a))

let test_mux () =
  let s = Bfun.var ~arity:3 2
  and a = Bfun.var ~arity:3 0
  and b = Bfun.var ~arity:3 1 in
  let m = Bfun.mux ~sel:s a b in
  for i = 0 to 7 do
    let sv = (i lsr 2) land 1 = 1
    and av = i land 1 = 1
    and bv = (i lsr 1) land 1 = 1 in
    Alcotest.(check bool)
      (Printf.sprintf "mux@%d" i)
      (if sv then bv else av)
      (Bfun.eval m i)
  done

let test_const_bounds () =
  Alcotest.(check int) "const1/3" 0xFF (Bfun.table (Bfun.const ~arity:3 true));
  Alcotest.(check int) "const0/3" 0 (Bfun.table (Bfun.const ~arity:3 false));
  Alcotest.check_raises "arity 6 rejected" (Invalid_argument "Bfun.make: arity 6 out of [0,5]")
    (fun () -> ignore (Bfun.make ~arity:6 0));
  let f = Bfun.const ~arity:5 true in
  Alcotest.(check int) "popcount 32" 32 (Bfun.popcount f)

let prop_shannon =
  QCheck.Test.make ~name:"shannon expansion is the identity" ~count:256 bfun3
    (fun f ->
      List.for_all
        (fun v ->
          let lo, hi = Bfun.cofactor_pair f ~var:v in
          Bfun.equal f (Bfun.expand ~sel_var:v ~lo ~hi))
        [ 0; 1; 2 ])

let prop_cofactor_drops_dependence =
  QCheck.Test.make ~name:"cofactor does not depend on removed var" ~count:256
    bfun3 (fun f ->
      let c = Bfun.cofactor f ~var:1 true in
      Bfun.arity c = 2)

let prop_demorgan =
  QCheck.Test.make ~name:"de morgan" ~count:200
    (QCheck.pair bfun3 bfun3)
    (fun (a, b) ->
      Bfun.(equal (lnot (a &&& b)) (lnot a ||| lnot b))
      && Bfun.(equal (lnot (a ||| b)) (lnot a &&& lnot b)))

let prop_xor_involution =
  QCheck.Test.make ~name:"xor involution" ~count:200
    (QCheck.pair bfun3 bfun3)
    (fun (a, b) -> Bfun.(equal ((a ^^^ b) ^^^ b) a))

let prop_permute_roundtrip =
  QCheck.Test.make ~name:"permute round trip" ~count:256 bfun3 (fun f ->
      let p = [| 2; 0; 1 |] in
      let q = [| 1; 2; 0 |] in
      (* q inverts p *)
      Bfun.equal f (Bfun.permute_inputs (Bfun.permute_inputs f p) q))

let test_support () =
  let a = Bfun.var ~arity:3 0 in
  Alcotest.(check (list int)) "literal support" [ 0 ] (Bfun.support a);
  Alcotest.(check (list int))
    "const support" []
    (Bfun.support (Bfun.const ~arity:3 true));
  let f = Bfun.(var ~arity:3 0 ^^^ var ~arity:3 2) in
  Alcotest.(check (list int)) "xor02 support" [ 0; 2 ] (Bfun.support f);
  Alcotest.(check bool) "literal" true (Bfun.is_literal (Bfun.lnot a));
  Alcotest.(check bool) "xor not literal" false (Bfun.is_literal f)

let test_to_string () =
  Alcotest.(check string) "xor2" "0110" (Bfun.to_string Gates.xor2)

(* --- Gates ------------------------------------------------------------ *)

let test_nd2wi () =
  let feasible =
    List.filter Gates.nd2wi_feasible (Bfun.all ~arity:2) |> List.length
  in
  Alcotest.(check int) "14 of 16 2-input functions" 14 feasible;
  let strict =
    List.filter Gates.nd2wi_strict (Bfun.all ~arity:2) |> List.length
  in
  Alcotest.(check int) "8 nondegenerate AND-types" 8 strict;
  Alcotest.(check bool) "xor infeasible" false (Gates.nd2wi_feasible Gates.xor2);
  Alcotest.(check bool) "xnor infeasible" false (Gates.nd2wi_feasible Gates.xnor2)

let test_nd3wi () =
  let v i = Bfun.var ~arity:3 i in
  let nand3 = Bfun.(lnot (v 0 &&& v 1 &&& v 2)) in
  let maj = Bfun.((v 0 &&& v 1) ||| (v 1 &&& v 2) ||| (v 0 &&& v 2)) in
  let xor3 = Bfun.(v 0 ^^^ v 1 ^^^ v 2) in
  let nand2_embedded = Bfun.(lnot (v 0 &&& v 1)) in
  Alcotest.(check bool) "nand3" true (Gates.nd3wi_feasible nand3);
  Alcotest.(check bool) "and3" true (Gates.nd3wi_feasible Bfun.(v 0 &&& v 1 &&& v 2));
  Alcotest.(check bool) "or with inverted lit" true
    (Gates.nd3wi_feasible Bfun.(v 0 ||| lnot (v 1) ||| v 2));
  Alcotest.(check bool) "embedded nand2" true (Gates.nd3wi_feasible nand2_embedded);
  Alcotest.(check bool) "literal" true (Gates.nd3wi_feasible (v 1));
  Alcotest.(check bool) "const" true (Gates.nd3wi_feasible (Bfun.const ~arity:3 false));
  Alcotest.(check bool) "majority infeasible" false (Gates.nd3wi_feasible maj);
  Alcotest.(check bool) "xor3 infeasible" false (Gates.nd3wi_feasible xor3);
  let count =
    List.filter Gates.nd3wi_feasible (Bfun.all ~arity:3) |> List.length
  in
  (* 2 constants + 6 literals + 3*8 two-input AND-types + 2*C(3,1)... the
     exact census: AND-types over k>=2 chosen support, any polarity, and/or. *)
  Alcotest.(check int) "nd3wi census" (2 + 6 + 24 + 16) count

let test_mux_feasible () =
  let v i = Bfun.var ~arity:3 i in
  let mux = Bfun.mux ~sel:(v 2) (v 0) (v 1) in
  let xor02 = Bfun.(v 0 ^^^ v 2) in
  let xor3 = Bfun.(v 0 ^^^ v 1 ^^^ v 2) in
  Alcotest.(check bool) "mux itself" true (Gates.mux_feasible mux);
  Alcotest.(check bool) "xor2 via mux" true (Gates.mux_feasible xor02);
  Alcotest.(check bool) "and2 via mux" true (Gates.mux_feasible Bfun.(v 0 &&& v 1));
  Alcotest.(check bool) "xor3 not single mux" false (Gates.mux_feasible xor3);
  Alcotest.(check bool) "maj not single mux" false
    (Gates.mux_feasible Bfun.((v 0 &&& v 1) ||| (v 1 &&& v 2) ||| (v 0 &&& v 2)))

(* --- S3 analysis (paper Section 2.1) ----------------------------------- *)

let census = lazy (S3.census ())

let test_s3_counts () =
  let c = Lazy.force census in
  Alcotest.(check int) "196 S3-feasible (paper)" 196 c.S3.s3_feasible;
  Alcotest.(check int) "60 infeasible" 60 c.S3.s3_infeasible;
  Alcotest.(check int) "modified covers all 256 (paper)" 256 c.S3.modified_feasible

let test_s3_categories () =
  let c = Lazy.force census in
  let get cat = List.assoc cat c.S3.by_category in
  Alcotest.(check int) "cat1 nd2+xor" 28 (get S3.Nd2_xor);
  Alcotest.(check int) "cat2 nd2+xnor" 28 (get S3.Nd2_xnor);
  Alcotest.(check int) "cat3 2-input xor" 1 (get S3.Both_xor);
  Alcotest.(check int) "cat4 2-input xnor" 1 (get S3.Both_xnor);
  Alcotest.(check int) "cat5 3-input xor/xnor" 2 (get S3.Complement_pair)

let test_s3_examples () =
  let v i = Bfun.var ~arity:3 i in
  (* mux(s; a, b) has literal cofactors: feasible *)
  Alcotest.(check bool) "mux feasible" true
    (S3.feasible (Bfun.mux ~sel:(v 2) (v 0) (v 1)));
  (* xor3 infeasible, category 5 *)
  let xor3 = Bfun.(v 0 ^^^ v 1 ^^^ v 2) in
  Alcotest.(check bool) "xor3 infeasible" false (S3.feasible xor3);
  Alcotest.(check bool) "xor3 cat5" true
    (S3.classify_infeasible xor3 = S3.Complement_pair);
  (* a xor b (select-independent) is category 3 w.r.t. fixed select... *)
  let xorab = Bfun.(v 0 ^^^ v 1) in
  Alcotest.(check bool) "xor(a,b) infeasible w.r.t. fixed select" false
    (S3.feasible xorab);
  Alcotest.(check bool) "xor(a,b) cat3" true
    (S3.classify_infeasible xorab = S3.Both_xor);
  (* ...but feasible if the fabric can re-route the select *)
  Alcotest.(check bool) "xor(a,b) feasible with free select" true
    (S3.feasible_any_select xorab);
  Alcotest.check_raises "classify on feasible rejected"
    (Invalid_argument "S3.classify_infeasible: function is S3-feasible")
    (fun () -> ignore (S3.classify_infeasible (Bfun.const ~arity:3 false)))

let test_s3_any_select_count () =
  let c = Lazy.force census in
  Alcotest.(check int) "free-select feasibility" 238 c.S3.any_select_feasible;
  Alcotest.(check bool) "paper's 'at least 196' is conservative"
    true (c.S3.any_select_feasible >= c.S3.s3_feasible)

let prop_infeasible_has_xor_cofactor =
  QCheck.Test.make ~name:"infeasible iff an xor-type cofactor w.r.t. select"
    ~count:256 bfun3 (fun f ->
      let g, h = Bfun.cofactor_pair f ~var:S3.select_var in
      let has_xor = Gates.is_xor_type g || Gates.is_xor_type h in
      S3.feasible f = not has_xor)

let prop_modified_superset =
  QCheck.Test.make ~name:"modified S3 covers S3" ~count:256 bfun3 (fun f ->
      (not (S3.feasible f)) || S3.modified_feasible f)

(* --- NPN closure -------------------------------------------------------- *)

(* The 3-input permutations, for drawing an NPN transform. *)
let perms3 =
  [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |];
     [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] |]

(* [npn f (p, mask)] permutes [f]'s inputs by [perms3.(p)], negates each
   input whose bit is set in the low three bits of [mask] (by swapping
   its cofactors), and negates the output when bit 3 is set. *)
let npn f (p, mask) =
  let g = ref (Bfun.permute_inputs f perms3.(p)) in
  for i = 0 to 2 do
    if (mask lsr i) land 1 = 1 then begin
      let lo, hi = Bfun.cofactor_pair !g ~var:i in
      g := Bfun.expand ~sel_var:i ~lo:hi ~hi:lo
    end
  done;
  if mask land 8 <> 0 then Bfun.lnot !g else !g

(* ND3WI feasibility is an NPN-class property: programmable inversion means
   a cell that implements f implements its whole class up to permutation.
   Each case draws a function and one of its 96 transforms. *)
let prop_nd3wi_npn_closed =
  QCheck.Test.make ~name:"nd3wi feasibility is NPN-invariant" ~count:500
    QCheck.(pair bfun3 (pair (int_bound 5) (int_bound 15)))
    (fun (f, tr) -> Gates.nd3wi_feasible f = Gates.nd3wi_feasible (npn f tr))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vpga_logic"
    [
      ( "bfun",
        [
          Alcotest.test_case "var patterns" `Quick test_var_patterns;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "ops" `Quick test_ops;
          Alcotest.test_case "mux" `Quick test_mux;
          Alcotest.test_case "const and bounds" `Quick test_const_bounds;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "to_string" `Quick test_to_string;
          qt prop_shannon;
          qt prop_cofactor_drops_dependence;
          qt prop_demorgan;
          qt prop_xor_involution;
          qt prop_permute_roundtrip;
        ] );
      ("npn", [ qt prop_nd3wi_npn_closed ]);
      ( "gates",
        [
          Alcotest.test_case "nd2wi census" `Quick test_nd2wi;
          Alcotest.test_case "nd3wi feasibility" `Quick test_nd3wi;
          Alcotest.test_case "single-mux feasibility" `Quick test_mux_feasible;
        ] );
      ( "s3",
        [
          Alcotest.test_case "feasible counts" `Quick test_s3_counts;
          Alcotest.test_case "figure-2 categories" `Quick test_s3_categories;
          Alcotest.test_case "examples" `Quick test_s3_examples;
          Alcotest.test_case "free-select count" `Quick test_s3_any_select_count;
          qt prop_infeasible_has_xor_cofactor;
          qt prop_modified_superset;
        ] );
    ]
