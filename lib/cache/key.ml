module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Arch = Vpga_plb.Arch
module Cell = Vpga_cells.Cell

(* Bump when the canonical encodings below change shape: the tag is fed
   into every key and names the on-disk store's subdirectory, so stale
   formats self-invalidate instead of deserializing garbage.  The OCaml
   version rides along because entry payloads are [Marshal] format. *)
let schema = "vpga-cache/4"

type t = { stage : string; hex : string }

let make ~stage feed =
  let e = Enc.create () in
  Enc.str e schema;
  Enc.str e stage;
  feed e;
  { stage; hex = Enc.digest_hex e }

let stage k = k.stage
let hex k = k.hex
let id k = k.stage ^ "/" ^ k.hex

(* --- structural digests ------------------------------------------------ *)

(* Exhaustive over {!Kind.t}: adding a constructor breaks this match, so
   a new node kind cannot silently alias an existing tag. *)
let kind e (k : Kind.t) =
  match k with
  | Kind.Input -> Enc.int e 0
  | Kind.Output -> Enc.int e 1
  | Kind.Const b ->
      Enc.int e 2;
      Enc.bool e b
  | Kind.Buf -> Enc.int e 3
  | Kind.Inv -> Enc.int e 4
  | Kind.And2 -> Enc.int e 5
  | Kind.Or2 -> Enc.int e 6
  | Kind.Nand2 -> Enc.int e 7
  | Kind.Nor2 -> Enc.int e 8
  | Kind.Xor2 -> Enc.int e 9
  | Kind.Xnor2 -> Enc.int e 10
  | Kind.Mux2 -> Enc.int e 11
  | Kind.And3 -> Enc.int e 12
  | Kind.Or3 -> Enc.int e 13
  | Kind.Nand3 -> Enc.int e 14
  | Kind.Nor3 -> Enc.int e 15
  | Kind.Xor3 -> Enc.int e 16
  | Kind.Maj3 -> Enc.int e 17
  | Kind.Dff -> Enc.int e 18
  | Kind.Mapped { cell; fn } ->
      Enc.int e 19;
      Enc.str e cell;
      Enc.int e fn.Vpga_logic.Bfun.arity;
      Enc.int e fn.Vpga_logic.Bfun.tt

let netlist e nl =
  Enc.str e (Netlist.design_name nl);
  Enc.int e (Netlist.size nl);
  Array.iter
    (fun (n : Netlist.node) ->
      (* [id] is the dense creation index, implied by iteration order. *)
      kind e n.Netlist.kind;
      Enc.int_array e n.Netlist.fanins;
      Enc.opt Enc.str e n.Netlist.name)
    (Netlist.nodes nl);
  Enc.list Enc.int e (Netlist.inputs nl);
  Enc.list Enc.int e (Netlist.outputs nl);
  Enc.list Enc.int e (Netlist.flops nl)

let netlist_hex nl =
  let e = Enc.create () in
  netlist e nl;
  Enc.digest_hex e

(* Exhaustive over {!Cell.t}: a new timing/area field cannot be left out
   of the digest without breaking compilation. *)
let cell e (c : Cell.t) =
  let {
    Cell.name;
    area;
    input_cap;
    intrinsic;
    resistance;
    via_sites;
    sequential;
  } =
    c
  in
  Enc.str e name;
  Enc.float e area;
  Enc.float e input_cap;
  Enc.float e intrinsic;
  Enc.float e resistance;
  Enc.int e via_sites;
  Enc.opt
    (fun e { Cell.setup; clk_to_q } ->
      Enc.float e setup;
      Enc.float e clk_to_q)
    e sequential

(* Exhaustive over {!Arch.t}: the capacity vector is fed per resource
   kind in [all_resources] order. *)
let arch e (a : Arch.t) =
  let {
    Arch.name;
    capacity;
    library;
    tile_area;
    comb_area;
    input_pins;
    output_pins;
    via_sites;
  } =
    a
  in
  Enc.str e name;
  Enc.list
    (fun e r -> Enc.int e (Arch.Vector.get capacity r))
    e Arch.all_resources;
  Enc.str e library.Vpga_cells.Library.name;
  Enc.list cell e library.Vpga_cells.Library.cells;
  Enc.float e tile_area;
  Enc.float e comb_area;
  Enc.int e input_pins;
  Enc.int e output_pins;
  Enc.int e via_sites

let arch_hex a =
  let e = Enc.create () in
  arch e a;
  Enc.digest_hex e
