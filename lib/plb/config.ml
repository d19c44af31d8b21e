module Bfun = Vpga_logic.Bfun
module Gates = Vpga_logic.Gates
module Cell = Vpga_cells.Cell
module Characterize = Vpga_cells.Characterize

type t = Invb | Mx | Nd2 | Nd3 | Ndmx | Xoamx | Xoandmx | Mux3 | Lut | Carry

let name = function
  | Invb -> "invb"
  | Mx -> "mx"
  | Nd2 -> "nd2"
  | Nd3 -> "nd3"
  | Ndmx -> "ndmx"
  | Xoamx -> "xoamx"
  | Xoandmx -> "xoandmx"
  | Mux3 -> "mux3"
  | Lut -> "lut"
  | Carry -> "carry"

let all = [ Invb; Mx; Nd2; Nd3; Ndmx; Xoamx; Xoandmx; Mux3; Lut; Carry ]

(* --- structural feasibility, by enumeration over via-programmed pins --- *)

(* Functions are handled as arity-3 truth tables (ints 0..255), and every
   set is a 256-byte mark array over them.  [tables_where p]: the tables of
   the functions satisfying [p], ascending. *)
let tables_where p =
  List.filter_map
    (fun f -> if p f then Some (Bfun.table f) else None)
    (Bfun.all ~arity:3)

(* ND2WI instances over two of the three inputs: nondegenerate AND-types with
   support <= 2 (degenerate cases are already pin sources). *)
let nd2_inners =
  lazy
    (tables_where (fun f ->
         Gates.nd3wi_feasible f && Bfun.support_size f <= 2))

let nd3_inners = lazy (tables_where Gates.nd3wi_feasible)
let mux_inners = lazy (tables_where Gates.mux_feasible)

(* The pins of the outer 2:1 MUX: the via-routable signals of the
   configuration.  The programmable buffers/inverters make each inner output
   available in both polarities (the paper's 3-input XOR realization: "two
   2:1 MUXes and an inverter"), next to the pin sources. *)
let pins_with inners =
  Array.append
    (Array.of_list (List.concat_map (fun g -> [ g; g lxor 0xFF ]) inners))
    Gates.source_tables

(* One inner element driving the outer MUX. *)
let one_inner_set inners =
  let marks = Bytes.make 256 '\000' in
  List.iter (fun g -> Gates.mark_mux_tables marks (pins_with [ g ])) inners;
  marks

let ndmx_set = lazy (one_inner_set (Lazy.force nd2_inners))
let xoamx_set = lazy (one_inner_set (Lazy.force mux_inners))

(* One table of each complementary pair [t], [t lxor 0xFF] (the one with
   minterm 7 false).  Both inner lists are closed under complement, and an
   inner output and its complement yield the same pins. *)
let one_per_complement ts = List.filter (fun t -> t land 0x80 = 0) ts

(* XOANDMX: the inner MUX and the ND3WI both feed the outer MUX. *)
let xoandmx_set =
  lazy
    (let ns = one_per_complement (Lazy.force nd3_inners) in
     let marks = Bytes.make 256 '\000' in
     List.iter
       (fun g ->
         List.iter (fun k -> Gates.mark_mux_tables marks (pins_with [ g; k ])) ns)
       (one_per_complement (Lazy.force mux_inners));
     marks)

(* The pin sources as functions: constants, inputs, their complements. *)
let sources =
  let vs = List.init 3 (fun i -> Bfun.var ~arity:3 i) in
  Bfun.const ~arity:3 false :: Bfun.const ~arity:3 true
  :: (vs @ List.map Bfun.lnot vs)

(* Carry pattern: mux(xor(v_i, v_j); x, y) with x, y plain sources.  The
   select is the propagate signal shared with a sibling XOAMX. *)
let carry_pairs_of f =
  let s = sources in
  let pairs = [ (0, 1); (0, 2); (1, 2) ] in
  List.filter
    (fun (i, j) ->
      let p = Bfun.(var ~arity:3 i ^^^ var ~arity:3 j) in
      List.exists
        (fun x ->
          List.exists (fun y -> Bfun.equal f (Bfun.mux ~sel:p x y)) s)
        s)
    pairs

let carry_pair f =
  match carry_pairs_of f with [] -> None | p :: _ -> Some p

let check3 f =
  if Bfun.arity f <> 3 then invalid_arg "Config: function arity must be 3"

let feasible c f =
  check3 f;
  let mem set = Bytes.get (Lazy.force set) (Bfun.table f) <> '\000' in
  match c with
  | Invb -> Bfun.is_const f || Bfun.is_literal f
  | Mx -> Gates.mux_feasible f
  | Nd2 -> Gates.nd3wi_feasible f && Bfun.support_size f <= 2
  | Nd3 -> Gates.nd3wi_feasible f
  | Ndmx -> mem ndmx_set
  | Xoamx -> mem xoamx_set
  | Xoandmx -> mem xoandmx_set
  | Mux3 | Lut -> true
  | Carry -> carry_pairs_of f <> []

(* Preference order: single-stage before two-stage, cheaper resources first.
   On the LUT-based PLB everything that is not an ND3WI function burns the
   LUT (the drawback the paper's granular PLB removes). *)
let choose arch f =
  check3 f;
  let order =
    if arch.Arch.name = "lut_plb" then [ Invb; Nd2; Nd3; Lut ]
    else [ Invb; Nd2; Nd3; Mx; Ndmx; Xoamx; Xoandmx; Mux3 ]
  in
  match List.find_opt (fun c -> feasible c f) order with
  | Some c -> c
  | None -> assert false (* Lut and Mux3 are total *)

let demand arch c =
  let v = Arch.Vector.of_list in
  let lut_arch = arch.Arch.name = "lut_plb" in
  match c with
  | Invb -> [ v [ (Arch.Bufr, 1) ] ]
  | Lut -> [ v [ (Arch.Lut, 1) ] ]
  | Nd3 -> [ v [ (Arch.Nd3, 1) ] ]
  | Nd2 ->
      if lut_arch then [ v [ (Arch.Nd3, 1) ] ]
      else
        [ v [ (Arch.Nd3, 1) ]; v [ (Arch.Xoa, 1) ]; v [ (Arch.Mux, 1) ] ]
  | Mx -> [ v [ (Arch.Mux, 1) ]; v [ (Arch.Xoa, 1) ] ]
  | Ndmx ->
      [ v [ (Arch.Nd3, 1); (Arch.Mux, 1) ]; v [ (Arch.Xoa, 1); (Arch.Mux, 1) ] ]
  | Xoamx -> [ v [ (Arch.Xoa, 1); (Arch.Mux, 1) ] ]
  | Xoandmx -> [ v [ (Arch.Xoa, 1); (Arch.Nd3, 1); (Arch.Mux, 1) ] ]
  | Mux3 -> [ v [ (Arch.Xoa, 1); (Arch.Mux, 2) ] ]
  | Carry -> [ v [ (Arch.Mux, 1) ] ]

let stage_cells c =
  let f = Characterize.find in
  match c with
  | Invb -> [ f "buf" ]
  | Mx -> [ f "mux2" ]
  | Nd2 -> [ f "nd2wi" ]
  | Nd3 -> [ f "nd3wi" ]
  | Ndmx -> [ f "nd2wi"; f "mux2" ]
  | Xoamx -> [ f "xoa"; f "mux2" ]
  | Xoandmx -> [ f "xoa"; f "mux2" ]
  | Mux3 -> [ f "xoa"; f "mux2" ]
  | Lut -> [ f "lut3" ]
  | Carry -> [ f "xoa"; f "mux2" ] (* the shared P stage still bounds timing *)

let delay c ~load =
  let rec go = function
    | [] -> 0.0
    | [ last ] -> Cell.delay last ~load
    | stage :: (next :: _ as rest) ->
        Cell.delay stage ~load:next.Cell.input_cap +. go rest
  in
  go (stage_cells c)

let input_cap c =
  match stage_cells c with [] -> 0.0 | first :: _ -> first.Cell.input_cap

let cell_area c =
  let f n = (Characterize.find n).Cell.area in
  match c with
  | Invb -> f "buf"
  | Mx -> f "mux2"
  | Nd2 | Nd3 -> f "nd3wi"
  | Ndmx -> f "nd3wi" +. f "mux2"
  | Xoamx -> f "xoa" +. f "mux2"
  | Xoandmx -> f "xoa" +. f "nd3wi" +. f "mux2"
  | Mux3 -> f "xoa" +. (2.0 *. f "mux2")
  | Lut -> f "lut3"
  | Carry -> f "mux2" (* the XOA is attributed to the sibling XOAMX *)

(* Scarcity pricing of tile slots: the tile's combinational area is divided
   equally across the logic-resource *kinds* the architecture provides, then
   across each kind's slots.  A resource with a single slot per tile (the
   LUT, the XOA) is priced at a full kind-share, so covers that would
   oversubscribe the plentiful slots (e.g. re-decomposing muxes into NAND
   trees on the LUT-based PLB) pay their true packing cost. *)
let slot_area arch r =
  let is_comb = function
    | Arch.Lut | Arch.Nd3 | Arch.Xoa | Arch.Mux -> true
    | Arch.Ff | Arch.Bufr -> false
  in
  let kinds =
    List.length
      (List.filter
         (fun res -> is_comb res && Arch.Vector.get arch.Arch.capacity res > 0)
         Arch.all_resources)
  in
  let cap = Arch.Vector.get arch.Arch.capacity r in
  if (not (is_comb r)) || cap = 0 || kinds = 0 then 0.0
  else arch.Arch.comb_area /. (float_of_int kinds *. float_of_int cap)

let tile_cost arch c =
  let buffer_share = 6.0 in
  let of_vector v =
    List.fold_left
      (fun acc r ->
        acc
        +.
        match r with
        | Arch.Bufr -> float_of_int (Arch.Vector.get v r) *. buffer_share
        | Arch.Lut | Arch.Nd3 | Arch.Xoa | Arch.Mux | Arch.Ff ->
            float_of_int (Arch.Vector.get v r) *. slot_area arch r)
      0.0 Arch.all_resources
  in
  match demand arch c with
  | [] -> 0.0
  | alts -> List.fold_left (fun acc v -> min acc (of_vector v)) infinity alts

let via_count c =
  let v n = (Characterize.find n).Cell.via_sites in
  match c with
  | Invb -> v "buf"
  | Mx -> v "mux2"
  | Nd2 | Nd3 -> v "nd3wi"
  | Ndmx -> v "nd3wi" + v "mux2"
  | Xoamx -> v "xoa" + v "mux2"
  | Xoandmx -> v "xoa" + v "nd3wi" + v "mux2"
  | Mux3 -> v "xoa" + (2 * v "mux2")
  | Lut -> v "lut3"
  | Carry -> v "mux2"

let prewarm () =
  (* Force every shared lazy feasibility set (and, transitively,
     Gates.mux_tables) from one domain.  Worker domains must never race
     to force them: concurrent Lazy.force is unsafe in OCaml 5. *)
  let probe = Bfun.var ~arity:3 0 in
  List.iter (fun c -> ignore (feasible c probe)) all

let cell_name c = "cfg:" ^ name c

let of_cell_name s =
  match String.index_opt s ':' with
  | Some 3 when String.length s > 4 && String.sub s 0 3 = "cfg" ->
      let suffix = String.sub s 4 (String.length s - 4) in
      List.find_opt (fun c -> name c = suffix) all
  | Some _ | None -> None

let pp ppf c = Format.pp_print_string ppf (name c)
