module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind

(* Carry-save array multiplier (m x m -> 2m). *)
let multiplier nl a b = Wordgen.csa_multiplier nl a b

let build ?(exp_bits = 8) ?(mant_bits = 24) () =
  let e = exp_bits and m = mant_bits in
  let nl = Netlist.create ~name:(Printf.sprintf "fpu_e%d_m%d" e m) () in
  let op_in = Wordgen.input_bus nl "op" 1 in
  let sa_in = Wordgen.input_bus nl "sa" 1 in
  let ea_in = Wordgen.input_bus nl "ea" e in
  let ma_in = Wordgen.input_bus nl "ma" m in
  let sb_in = Wordgen.input_bus nl "sb" 1 in
  let eb_in = Wordgen.input_bus nl "eb" e in
  let mb_in = Wordgen.input_bus nl "mb" m in
  let reg = Wordgen.register_bus nl in
  let op = (reg op_in).(0) in
  let sa = (reg sa_in).(0) and ea = reg ea_in and ma = reg ma_in in
  let sb = (reg sb_in).(0) and eb = reg eb_in and mb = reg mb_in in

  (* ---- adder path ---- *)
  let exp_lt = Wordgen.less_than nl ea eb in
  let exp_eq = Wordgen.equal_bus nl ea eb in
  let mant_lt = Wordgen.less_than nl ma mb in
  let a_smaller =
    Netlist.gate nl Kind.Or2
      [| exp_lt; Netlist.gate nl Kind.And2 [| exp_eq; mant_lt |] |]
  in
  let big_e = Wordgen.mux_bus nl ~sel:a_smaller ea eb in
  let big_m = Wordgen.mux_bus nl ~sel:a_smaller ma mb in
  let small_e = Wordgen.mux_bus nl ~sel:a_smaller eb ea in
  let small_m = Wordgen.mux_bus nl ~sel:a_smaller mb ma in
  let big_s = Netlist.gate nl Kind.Mux2 [| a_smaller; sa; sb |] in
  let d, _ = Wordgen.subtractor nl big_e small_e in
  let k = Wordgen.log2_up (m + 1) in
  let amt =
    if e <= k then Array.append d (Array.make (k - e) (Netlist.gate nl (Kind.Const false) [||]))
    else begin
      let sat = Wordgen.reduce_or nl (Array.sub d k (e - k)) in
      let ones = Wordgen.constant nl ~width:k ((1 lsl k) - 1) in
      Wordgen.mux_bus nl ~sel:sat (Array.sub d 0 k) ones
    end
  in
  let aligned = Wordgen.shift_right nl small_m ~amount:amt in
  let same_sign =
    Netlist.gate nl Kind.Xnor2 [| sa; sb |]
  in
  (* same-sign: add with possible carry normalization *)
  let ssum, scarry = Wordgen.ripple_adder nl big_m aligned in
  let sum_shifted =
    Array.init m (fun i -> if i = m - 1 then scarry else ssum.(i + 1))
  in
  let add_mant = Wordgen.mux_bus nl ~sel:scarry ssum sum_shifted in
  let add_exp =
    Wordgen.mux_bus nl ~sel:scarry big_e (Wordgen.incrementer nl big_e)
  in
  (* opposite-sign: subtract and renormalize *)
  let sdiff, _ = Wordgen.subtractor nl big_m aligned in
  let lz = Wordgen.leading_zero_count nl sdiff in
  let cl = Array.length lz in
  let sub_mant = Wordgen.shift_left nl sdiff ~amount:lz in
  let lz_e =
    if cl >= e then Array.sub lz 0 e
    else
      Array.append lz
        (Array.make (e - cl) (Netlist.gate nl (Kind.Const false) [||]))
  in
  let sub_exp, _ = Wordgen.subtractor nl big_e lz_e in
  let fadd_mant = Wordgen.mux_bus nl ~sel:same_sign sub_mant add_mant in
  let fadd_exp = Wordgen.mux_bus nl ~sel:same_sign sub_exp add_exp in
  let fadd_sign = big_s in

  (* ---- multiplier path ---- *)
  let p = multiplier nl ma mb in
  let top = p.((2 * m) - 1) in
  let hi = Array.sub p m m in
  let lo = Array.sub p (m - 1) m in
  let fmul_mant = Wordgen.mux_bus nl ~sel:top lo hi in
  let esum, _ = Wordgen.ripple_adder nl ea eb in
  let fmul_exp = Wordgen.mux_bus nl ~sel:top esum (Wordgen.incrementer nl esum) in
  let fmul_sign = Netlist.gate nl Kind.Xor2 [| sa; sb |] in

  (* ---- select and register ---- *)
  let mant = Wordgen.mux_bus nl ~sel:op fadd_mant fmul_mant in
  let exp = Wordgen.mux_bus nl ~sel:op fadd_exp fmul_exp in
  let sign = Netlist.gate nl Kind.Mux2 [| op; fadd_sign; fmul_sign |] in
  let mant_q = reg mant and exp_q = reg exp and sign_q = reg [| sign |] in
  Wordgen.output_bus nl "mant" mant_q;
  Wordgen.output_bus nl "exp" exp_q;
  ignore (Netlist.output nl "sign" sign_q.(0));
  nl

let reference ~exp_bits ~mant_bits ~op ~a:(sa, ea, ma) ~b:(sb, eb, mb) =
  let e = exp_bits and m = mant_bits in
  let emask = (1 lsl e) - 1 and mmask = (1 lsl m) - 1 in
  let sa = sa land 1 and sb = sb land 1 in
  let ea = ea land emask and eb = eb land emask in
  let ma = ma land mmask and mb = mb land mmask in
  if op land 1 = 1 then begin
    (* multiply *)
    let p = ma * mb in
    let top = (p lsr ((2 * m) - 1)) land 1 = 1 in
    let mant = if top then (p lsr m) land mmask else (p lsr (m - 1)) land mmask in
    let exp = (ea + eb + if top then 1 else 0) land emask in
    (sa lxor sb, exp, mant)
  end
  else begin
    let a_smaller = ea < eb || (ea = eb && ma < mb) in
    let big_s, big_e, big_m, small_e, small_m =
      if a_smaller then (sb, eb, mb, ea, ma) else (sa, ea, ma, eb, mb)
    in
    let d = big_e - small_e in
    let k =
      let rec go k v = if v >= m + 1 then k else go (k + 1) (2 * v) in
      go 0 1
    in
    let amt = if d >= 1 lsl k then (1 lsl k) - 1 else d in
    let aligned = if amt >= 63 then 0 else (small_m lsr amt) land mmask in
    if sa = sb then begin
      let s = big_m + aligned in
      let carry = s land (1 lsl m) <> 0 in
      let mant = if carry then (s lsr 1) land mmask else s land mmask in
      let exp = (big_e + if carry then 1 else 0) land emask in
      (big_s, exp, mant)
    end
    else begin
      let dft = (big_m - aligned) land mmask in
      let lz =
        let rec go i = if i < 0 then m else if (dft lsr i) land 1 = 1 then m - 1 - i else go (i - 1) in
        go (m - 1)
      in
      let mant = (dft lsl lz) land mmask in
      let exp = (big_e - lz) land emask in
      (big_s, exp, mant)
    end
  end
