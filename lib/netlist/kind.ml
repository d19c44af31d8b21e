module Bfun = Vpga_logic.Bfun

type t =
  | Input
  | Output
  | Const of bool
  | Buf
  | Inv
  | And2
  | Or2
  | Nand2
  | Nor2
  | Xor2
  | Xnor2
  | Mux2
  | And3
  | Or3
  | Nand3
  | Nor3
  | Xor3
  | Maj3
  | Dff
  | Mapped of { cell : string; fn : Bfun.t }

let arity = function
  | Input | Const _ -> 0
  | Output | Buf | Inv | Dff -> 1
  | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 -> 2
  | Mux2 | And3 | Or3 | Nand3 | Nor3 | Xor3 | Maj3 -> 3
  | Mapped { fn; _ } -> Bfun.arity fn

let is_sequential = function
  | Dff -> true
  | Input | Output | Const _ | Buf | Inv | And2 | Or2 | Nand2 | Nor2 | Xor2
  | Xnor2 | Mux2 | And3 | Or3 | Nand3 | Nor3 | Xor3 | Maj3 | Mapped _ ->
      false

(* Truth tables of the fixed kinds (minterm [m] has input [i] at bit [i];
   see {!Bfun}), written out once instead of rebuilt per call. *)
let tt1 = Bfun.make ~arity:1
let tt2 = Bfun.make ~arity:2
let tt3 = Bfun.make ~arity:3
let const0 = Bfun.const ~arity:0 false
let const1 = Bfun.const ~arity:0 true
let buf = tt1 0b10
let inv = tt1 0b01
let and2 = tt2 0x8
let or2 = tt2 0xE
let nand2 = tt2 0x7
let nor2 = tt2 0x1
let xor2 = tt2 0x6
let xnor2 = tt2 0x9
let mux2 = tt3 0xE4
let and3 = tt3 0x80
let or3 = tt3 0xFE
let nand3 = tt3 0x7F
let nor3 = tt3 0x01
let xor3 = tt3 0x96
let maj3 = tt3 0xE8

let fn = function
  | Input -> invalid_arg "Kind.fn: Input has no function"
  | Output -> invalid_arg "Kind.fn: Output has no function"
  | Dff -> invalid_arg "Kind.fn: Dff is sequential"
  | Const b -> if b then const1 else const0
  | Buf -> buf
  | Inv -> inv
  | And2 -> and2
  | Or2 -> or2
  | Nand2 -> nand2
  | Nor2 -> nor2
  | Xor2 -> xor2
  | Xnor2 -> xnor2
  | Mux2 -> mux2
  | And3 -> and3
  | Or3 -> or3
  | Nand3 -> nand3
  | Nor3 -> nor3
  | Xor3 -> xor3
  | Maj3 -> maj3
  | Mapped { fn; _ } -> fn

let eval k args =
  match k with
  | Input -> invalid_arg "Kind.eval: Input"
  | Dff -> invalid_arg "Kind.eval: Dff"
  | Output | Buf ->
      if Array.length args <> 1 then invalid_arg "Kind.eval: arity";
      args.(0)
  | Const b ->
      if Array.length args <> 0 then invalid_arg "Kind.eval: arity";
      b
  | Inv | And2 | Or2 | Nand2 | Nor2 | Xor2 | Xnor2 | Mux2 | And3 | Or3 | Nand3
  | Nor3 | Xor3 | Maj3 | Mapped _ ->
      let f = fn k in
      if Array.length args <> Bfun.arity f then invalid_arg "Kind.eval: arity";
      let m = ref 0 in
      Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) args;
      Bfun.eval f !m

let name = function
  | Input -> "input"
  | Output -> "output"
  | Const true -> "const1"
  | Const false -> "const0"
  | Buf -> "buf"
  | Inv -> "inv"
  | And2 -> "and2"
  | Or2 -> "or2"
  | Nand2 -> "nand2"
  | Nor2 -> "nor2"
  | Xor2 -> "xor2"
  | Xnor2 -> "xnor2"
  | Mux2 -> "mux2"
  | And3 -> "and3"
  | Or3 -> "or3"
  | Nand3 -> "nand3"
  | Nor3 -> "nor3"
  | Xor3 -> "xor3"
  | Maj3 -> "maj3"
  | Dff -> "dff"
  | Mapped { cell; _ } -> cell

let pp ppf k =
  match k with
  | Mapped { cell; fn } -> Format.fprintf ppf "%s[%a]" cell Bfun.pp fn
  | _ -> Format.pp_print_string ppf (name k)
