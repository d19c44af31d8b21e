module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind

type bus = int array

let log2_up n =
  let rec go k v = if v >= n then k else go (k + 1) (2 * v) in
  go 0 1

let input_bus nl name w =
  Array.init w (fun i -> Netlist.input nl (Printf.sprintf "%s[%d]" name i))

let output_bus nl name bus =
  Array.iteri
    (fun i b -> ignore (Netlist.output nl (Printf.sprintf "%s[%d]" name i) b))
    bus

let constant nl ~width v =
  Array.init width (fun i ->
      Netlist.gate nl (Kind.Const ((v lsr i) land 1 = 1)) [||])

let map2 nl kind a b =
  if Array.length a <> Array.length b then invalid_arg "Wordgen: width mismatch";
  Array.mapi (fun i ai -> Netlist.gate nl kind [| ai; b.(i) |]) a

let not_bus nl a = Array.map (fun b -> Netlist.gate nl Kind.Inv [| b |]) a
let and_bus nl a b = map2 nl Kind.And2 a b
let or_bus nl a b = map2 nl Kind.Or2 a b
let xor_bus nl a b = map2 nl Kind.Xor2 a b

let reduce nl kind a =
  match Array.to_list a with
  | [] -> invalid_arg "Wordgen.reduce: empty bus"
  | first :: rest ->
      List.fold_left (fun acc b -> Netlist.gate nl kind [| acc; b |]) first rest

let reduce_or nl a = reduce nl Kind.Or2 a
let reduce_and nl a = reduce nl Kind.And2 a

let full_adder nl a b c =
  ( Netlist.gate nl Kind.Xor3 [| a; b; c |],
    Netlist.gate nl Kind.Maj3 [| a; b; c |] )

let ripple_adder nl ?cin a b =
  if Array.length a <> Array.length b then
    invalid_arg "Wordgen.ripple_adder: width mismatch";
  let w = Array.length a in
  let cin =
    match cin with Some c -> c | None -> Netlist.gate nl (Kind.Const false) [||]
  in
  let sum = Array.make w 0 in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = full_adder nl a.(i) b.(i) !carry in
    sum.(i) <- s;
    carry := c
  done;
  (sum, !carry)

(* Ripple block returning per-bit sums and the block carry-out. *)
let ripple_block nl a b cin lo len =
  let sum = Array.make len 0 in
  let carry = ref cin in
  for i = 0 to len - 1 do
    let s = Netlist.gate nl Kind.Xor3 [| a.(lo + i); b.(lo + i); !carry |] in
    let c = Netlist.gate nl Kind.Maj3 [| a.(lo + i); b.(lo + i); !carry |] in
    sum.(i) <- s;
    carry := c
  done;
  (sum, !carry)

let carry_select_adder ?(block = 4) nl ?cin a b =
  if Array.length a <> Array.length b then
    invalid_arg "Wordgen.carry_select_adder: width mismatch";
  let w = Array.length a in
  let zero = Netlist.gate nl (Kind.Const false) [||] in
  let one = Netlist.gate nl (Kind.Const true) [||] in
  let cin = match cin with Some c -> c | None -> zero in
  let out = Array.make w 0 in
  let rec go lo carry =
    if lo >= w then carry
    else begin
      let len = min block (w - lo) in
      if lo = 0 then begin
        (* first block ripples directly from cin *)
        let sum, c = ripple_block nl a b carry lo len in
        Array.blit sum 0 out lo len;
        go (lo + len) c
      end
      else begin
        let sum0, c0 = ripple_block nl a b zero lo len in
        let sum1, c1 = ripple_block nl a b one lo len in
        let sel = carry in
        for i = 0 to len - 1 do
          out.(lo + i) <- Netlist.gate nl Kind.Mux2 [| sel; sum0.(i); sum1.(i) |]
        done;
        let c = Netlist.gate nl Kind.Mux2 [| sel; c0; c1 |] in
        go (lo + len) c
      end
    end
  in
  let cout = go 0 cin in
  (out, cout)

let csa_reduce nl addends =
  match addends with
  | [] -> invalid_arg "Wordgen.csa_reduce: no addends"
  | [ only ] ->
      (only, constant nl ~width:(Array.length only) 0)
  | first :: _ ->
      let w = Array.length first in
      let zero = Netlist.gate nl (Kind.Const false) [||] in
      let compress3 x y z =
        let sum =
          Array.init w (fun i -> Netlist.gate nl Kind.Xor3 [| x.(i); y.(i); z.(i) |])
        in
        let carry =
          Array.init w (fun i ->
              if i = 0 then zero
              else
                Netlist.gate nl Kind.Maj3
                  [| x.(i - 1); y.(i - 1); z.(i - 1) |])
        in
        (sum, carry)
      in
      let rec reduce = function
        | [ s; c ] -> (s, c)
        | [ s ] -> (s, constant nl ~width:w 0)
        | x :: y :: z :: rest ->
            let s, c = compress3 x y z in
            reduce (rest @ [ s; c ])
        | [] -> assert false
      in
      List.iter
        (fun addend ->
          if Array.length addend <> w then
            invalid_arg "Wordgen.csa_reduce: width mismatch")
        addends;
      reduce addends

let csa_multiplier nl a b =
  let m = Array.length a in
  let zero = Netlist.gate nl (Kind.Const false) [||] in
  let partials =
    Array.to_list
      (Array.mapi
         (fun i bi ->
           Array.init (2 * m) (fun j ->
               if j >= i && j < i + m then
                 Netlist.gate nl Kind.And2 [| a.(j - i); bi |]
               else zero))
         b)
  in
  let s, c = csa_reduce nl partials in
  fst (carry_select_adder nl s c)

let subtractor nl a b =
  let one = Netlist.gate nl (Kind.Const true) [||] in
  let diff, carry = ripple_adder nl ~cin:one a (not_bus nl b) in
  (* carry = 1 means no borrow *)
  (diff, Netlist.gate nl Kind.Inv [| carry |])

let incrementer nl a =
  let zero = constant nl ~width:(Array.length a) 0 in
  let one = Netlist.gate nl (Kind.Const true) [||] in
  fst (ripple_adder nl ~cin:one a zero)

let mux_bus nl ~sel a b =
  if Array.length a <> Array.length b then invalid_arg "Wordgen.mux_bus: width";
  Array.mapi (fun i ai -> Netlist.gate nl Kind.Mux2 [| sel; ai; b.(i) |]) a

let mux_tree nl ~sel buses =
  match buses with
  | [] -> invalid_arg "Wordgen.mux_tree: no buses"
  | first :: _ ->
      let n = 1 lsl Array.length sel in
      let pick i =
        let rec nth k = function
          | [] -> first
          | [ x ] -> x
          | x :: rest -> if k = 0 then x else nth (k - 1) rest
        in
        nth i buses
      in
      let rec build lo levels =
        if levels = 0 then pick lo
        else
          let a = build lo (levels - 1) in
          let b = build (lo + (1 lsl (levels - 1))) (levels - 1) in
          mux_bus nl ~sel:sel.(levels - 1) a b
      in
      ignore n;
      build 0 (Array.length sel)

let equal_bus nl a b =
  let diff = xor_bus nl a b in
  Netlist.gate nl Kind.Inv [| reduce_or nl diff |]

let equal_const nl a v =
  let bits =
    Array.mapi
      (fun i bit ->
        if (v lsr i) land 1 = 1 then bit else Netlist.gate nl Kind.Inv [| bit |])
      a
  in
  reduce_and nl bits

let less_than nl a b =
  let _, borrow = subtractor nl a b in
  borrow

let shift nl ~left a ~amount =
  let w = Array.length a in
  let zero = Netlist.gate nl (Kind.Const false) [||] in
  let stage bus k sel =
    Array.init w (fun i ->
        let src = if left then i - k else i + k in
        let shifted = if src < 0 || src >= w then zero else bus.(src) in
        Netlist.gate nl Kind.Mux2 [| sel; bus.(i); shifted |])
  in
  let bus = ref a in
  Array.iteri (fun lvl sel -> bus := stage !bus (1 lsl lvl) sel) amount;
  !bus

let shift_left nl a ~amount = shift nl ~left:true a ~amount
let shift_right nl a ~amount = shift nl ~left:false a ~amount

let leading_zero_count nl a =
  let w = Array.length a in
  let cw = log2_up (w + 1) in
  (* Priority scan from the MSB: count = index of first 1 from the top. *)
  let counts =
    List.init (w + 1) (fun k -> constant nl ~width:cw k)
  in
  (* result = if a[w-1] then 0 else if a[w-2] then 1 else ... else w *)
  let rec build i =
    if i < 0 then List.nth counts w
    else
      let rest = build (i - 1) in
      mux_bus nl ~sel:a.(i) rest (List.nth counts (w - 1 - i))
  in
  build (w - 1)

let register_bus nl bus =
  Array.map
    (fun d ->
      let q = Netlist.dff nl in
      Netlist.connect nl ~flop:q ~d;
      q)
    bus

let counter nl ~width ~enable =
  let qs = Array.init width (fun _ -> Netlist.dff nl) in
  let carry = ref enable in
  Array.iter
    (fun q ->
      let d = Netlist.gate nl Kind.Xor2 [| q; !carry |] in
      let c = Netlist.gate nl Kind.And2 [| q; !carry |] in
      Netlist.connect nl ~flop:q ~d;
      carry := c)
    qs;
  qs

let crc_step nl ~poly ~state ~din =
  let w = Array.length state in
  let feedback = Netlist.gate nl Kind.Xor2 [| state.(w - 1); din |] in
  Array.init w (fun i ->
      let shifted_in =
        if i = 0 then Netlist.gate nl (Kind.Const false) [||] else state.(i - 1)
      in
      if (poly lsr i) land 1 = 1 then
        Netlist.gate nl Kind.Xor2 [| shifted_in; feedback |]
      else shifted_in)
