type resource = Lut | Nd3 | Xoa | Mux | Ff | Bufr

let resource_name = function
  | Lut -> "lut3"
  | Nd3 -> "nd3wi"
  | Xoa -> "xoa"
  | Mux -> "mux2"
  | Ff -> "dff"
  | Bufr -> "buf"

let all_resources = [ Lut; Nd3; Xoa; Mux; Ff; Bufr ]

module Vector = struct
  type t = { lut : int; nd3 : int; xoa : int; mux : int; ff : int; bufr : int }

  let zero = { lut = 0; nd3 = 0; xoa = 0; mux = 0; ff = 0; bufr = 0 }

  let get v = function
    | Lut -> v.lut
    | Nd3 -> v.nd3
    | Xoa -> v.xoa
    | Mux -> v.mux
    | Ff -> v.ff
    | Bufr -> v.bufr

  let set v r n =
    match r with
    | Lut -> { v with lut = n }
    | Nd3 -> { v with nd3 = n }
    | Xoa -> { v with xoa = n }
    | Mux -> { v with mux = n }
    | Ff -> { v with ff = n }
    | Bufr -> { v with bufr = n }

  let of_list l =
    List.fold_left (fun v (r, n) -> set v r (get v r + n)) zero l

  let add a b =
    {
      lut = a.lut + b.lut;
      nd3 = a.nd3 + b.nd3;
      xoa = a.xoa + b.xoa;
      mux = a.mux + b.mux;
      ff = a.ff + b.ff;
      bufr = a.bufr + b.bufr;
    }

  let fits v ~cap =
    v.lut <= cap.lut && v.nd3 <= cap.nd3 && v.xoa <= cap.xoa
    && v.mux <= cap.mux && v.ff <= cap.ff && v.bufr <= cap.bufr

  let total v = v.lut + v.nd3 + v.xoa + v.mux + v.ff + v.bufr

  let pp ppf v =
    let parts =
      List.filter_map
        (fun r ->
          let n = get v r in
          if n = 0 then None else Some (Printf.sprintf "%s:%d" (resource_name r) n))
        all_resources
    in
    Format.pp_print_string ppf
      (if parts = [] then "(empty)" else String.concat " " parts)
end

type t = {
  name : string;
  capacity : Vector.t;
  library : Vpga_cells.Library.t;
  tile_area : float;
  comb_area : float;
  input_pins : int;
  output_pins : int;
  via_sites : int;
}

(* Tile areas: component cells plus local-interconnect / polarity-buffer
   overhead, calibrated to the paper's relations (granular tile = 1.20x LUT
   tile; granular combinational area = 1.266x). *)
let lut_plb =
  {
    name = "lut_plb";
    capacity = Vector.of_list [ (Lut, 1); (Nd3, 2); (Ff, 1); (Bufr, 4) ];
    library = Vpga_cells.Library.lut_plb;
    tile_area = 300.0;
    comb_area = 200.0;
    input_pins = 9;
    output_pins = 3;
    via_sites = 64;
  }

let granular_plb =
  {
    name = "granular_plb";
    capacity = Vector.of_list [ (Xoa, 1); (Mux, 2); (Nd3, 1); (Ff, 1); (Bufr, 4) ];
    library = Vpga_cells.Library.granular_plb;
    tile_area = 360.0;
    comb_area = 253.2;
    input_pins = 12;
    output_pins = 4;
    via_sites = 104;
  }

(* The future-work variant: one more flip-flop (and its mux/buffer margin)
   per tile, costed at the characterized DFF area plus interconnect
   overhead. *)
let granular_2ff =
  {
    granular_plb with
    name = "granular_2ff";
    capacity =
      Vector.of_list
        [ (Xoa, 1); (Mux, 2); (Nd3, 1); (Ff, 2); (Bufr, 4) ];
    tile_area = 410.0;
    input_pins = 13;
    output_pins = 5;
    via_sites = 112;
  }

let all = [ lut_plb; granular_plb ]

let flops_per_tile t = Vector.get t.capacity Ff

let pp ppf t =
  Format.fprintf ppf "%s: [%a] tile=%.0fum2 comb=%.1fum2 pins=%d/%d vias=%d"
    t.name Vector.pp t.capacity t.tile_area t.comb_area t.input_pins
    t.output_pins t.via_sites
