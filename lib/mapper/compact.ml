module Bfun = Vpga_logic.Bfun
module Netlist = Vpga_netlist.Netlist
module Kind = Vpga_netlist.Kind
module Aig = Vpga_aig.Aig
module Cut = Vpga_aig.Cut
module Arch = Vpga_plb.Arch
module Config = Vpga_plb.Config

let cut_k = 3
let max_cuts = 16

let config_of_tt arch tt = Config.choose arch (Bfun.extend tt ~arity:3)

(* Cover cost is the share of a PLB tile the supernode's configuration will
   occupy after packing (see {!Config.tile_cost}); evaluated inside
   [select_cover] against its per-cut config memo. *)

(* Cover selection over the AIG.  [`Area] minimizes area flow (the paper's
   compaction objective); [`Depth] minimizes estimated arrival first, with
   area flow as the tiebreak (the Design-Compiler-style timing-driven
   mode). *)
let select_cover ?(objective = `Area) arch bound =
  let aig = bound.Aig.aig in
  let n = Aig.size aig in
  let cuts = Cut.enumerate aig ~k:cut_k ~max_cuts in
  (* Reference estimate: structural fanout plus root references. *)
  let refs = Array.make n 0 in
  for id = 1 to n - 1 do
    if not (Aig.is_pi aig id) then begin
      let l0, l1 = Aig.fanins aig id in
      refs.(Aig.node_of l0) <- refs.(Aig.node_of l0) + 1;
      refs.(Aig.node_of l1) <- refs.(Aig.node_of l1) + 1
    end
  done;
  List.iter
    (fun (_, l) -> refs.(Aig.node_of l) <- refs.(Aig.node_of l) + 1)
    bound.Aig.roots;
  (* Per-cut PLB config memo: a cut's truth table has arity <= cut_k = 3,
     so (arity, table) packs into 10 bits and the NPN canonization +
     [Config.choose] behind [config_of_tt] runs once per distinct function
     instead of twice (area + arrival) per candidate evaluation. *)
  let cfg_memo = Array.make 1024 None in
  let config_of tt =
    let key = (Bfun.arity tt lsl 8) lor Bfun.table tt in
    if key >= Array.length cfg_memo then config_of_tt arch tt
    else
      match cfg_memo.(key) with
      | Some c -> c
      | None ->
          let c = config_of_tt arch tt in
          cfg_memo.(key) <- Some c;
          c
  in
  let area_flow = Array.make n 0.0 in
  let arrival = Array.make n 0.0 in
  let best_cut = Array.make n None in
  let nominal_load = 10.0 in
  for id = 1 to n - 1 do
    if not (Aig.is_pi aig id) then begin
      let eval_area cfg (c : Cut.t) =
        Array.fold_left
          (fun acc leaf -> acc +. area_flow.(leaf))
          (Config.tile_cost arch cfg) c.Cut.leaves
      in
      let eval_arrival cfg (c : Cut.t) =
        let at =
          Array.fold_left (fun acc leaf -> max acc arrival.(leaf)) 0.0 c.Cut.leaves
        in
        at +. Config.delay cfg ~load:nominal_load
      in
      let better c (bc, ba, bt) =
        let cfg = config_of c.Cut.tt in
        let a = eval_area cfg c and t = eval_arrival cfg c in
        let wins =
          match objective with
          | `Area -> a < ba || (a = ba && t < bt)
          | `Depth -> t < bt || (t = bt && a < ba)
        in
        if wins then (Some c, a, t) else (bc, ba, bt)
      in
      let candidates =
        List.filter (fun c -> Cut.leaf_count c > 1 || c.Cut.leaves.(0) <> id)
          cuts.(id)
      in
      let chosen, a, t =
        List.fold_left
          (fun acc c -> better c acc)
          (None, infinity, infinity) candidates
      in
      match chosen with
      | None -> assert false (* AND nodes always have their fanin cut *)
      | Some c ->
          best_cut.(id) <- Some c;
          area_flow.(id) <- a /. float_of_int (max 1 refs.(id));
          arrival.(id) <- t
    end
  done;
  best_cut

(* Nodes actually used by the cover, reachable from the roots through the
   chosen cuts. *)
let needed_nodes aig roots best_cut =
  let needed = Hashtbl.create 256 in
  let rec visit id =
    if not (Hashtbl.mem needed id) then begin
      Hashtbl.add needed id ();
      if (not (Aig.is_const id)) && not (Aig.is_pi aig id) then
        match best_cut.(id) with
        | Some c -> Array.iter visit c.Cut.leaves
        | None -> assert false
    end
  in
  List.iter (fun (_, l) -> visit (Aig.node_of l)) roots;
  needed

(* Full-adder extraction (paper Section 2.2): among supernodes sharing the
   same three leaves, a 3-input-XOR "sum" will be realized as an XOAMX whose
   first stage is the propagate P = x_i xor x_j; sibling supernodes of the
   form mux(P; source, source) — e.g. the majority carry — can then occupy a
   single extra MUX ([Config.Carry]) instead of their own XOA.  Only
   meaningful on architectures that have MUX resources. *)
let carry_overrides arch aig best_cut needed =
  let overrides = Hashtbl.create 16 in
  if Arch.Vector.get arch.Arch.capacity Arch.Mux = 0 then overrides
  else begin
    let groups = Hashtbl.create 64 in
    Hashtbl.iter
      (fun id () ->
        if (not (Aig.is_const id)) && not (Aig.is_pi aig id) then
          match best_cut.(id) with
          | Some c when Cut.leaf_count c = 3 ->
              let key = Array.to_list c.Cut.leaves in
              Hashtbl.replace groups key
                ((id, c.Cut.tt)
                :: Option.value ~default:[] (Hashtbl.find_opt groups key))
          | Some _ | None -> ())
      needed;
    let xor3 = Bfun.(var ~arity:3 0 ^^^ var ~arity:3 1 ^^^ var ~arity:3 2) in
    Hashtbl.iter
      (fun _key members ->
        let sums =
          List.filter
            (fun (_, tt) -> Bfun.equal tt xor3 || Bfun.equal tt (Bfun.lnot xor3))
            members
        in
        if sums <> [] then begin
          (* The XOA pair of the sum is free (XOR3 is symmetric); the first
             carry fixes it, later carries must agree. *)
          let fixed = ref None in
          List.iter
            (fun (id, tt) ->
              if not (List.exists (fun (s, _) -> s = id) sums) then
                match Config.carry_pair tt with
                | Some pair
                  when (match !fixed with None -> true | Some p -> p = pair) ->
                    fixed := Some pair;
                    Hashtbl.replace overrides id Config.Carry
                | Some _ | None -> ())
            members
        end)
      groups;
    overrides
  end

(* Emit the supernode netlist of a chosen cover. *)
let emit arch nl bound best_cut =
  let aig = bound.Aig.aig in
  let needed = needed_nodes aig bound.Aig.roots best_cut in
  let overrides = carry_overrides arch aig best_cut needed in
  let dst = Netlist.create ~name:(Netlist.design_name nl) () in
  (* Recreate the interface. *)
  let src_size = Netlist.size nl in
  let new_of_src = Array.make src_size (-1) in
  List.iter
    (fun i ->
      let name = Option.value ~default:(Printf.sprintf "pi%d" i)
          (Netlist.node nl i).Netlist.name in
      new_of_src.(i) <- Netlist.input dst name)
    (Netlist.inputs nl);
  List.iter
    (fun i -> new_of_src.(i) <- Netlist.dff ?name:(Netlist.node nl i).Netlist.name dst)
    (Netlist.flops nl);
  (* Emit selected supernodes bottom-up, positive polarity. *)
  let emitted = Array.make (Aig.size aig) (-1) in
  let rec emit_node id =
    if emitted.(id) >= 0 then emitted.(id)
    else begin
      let v =
        if Aig.is_const id then Netlist.gate dst (Kind.Const false) [||]
        else if Aig.is_pi aig id then
          new_of_src.(bound.Aig.pi_sources.(Aig.pi_index aig id))
        else begin
          let c =
            match best_cut.(id) with Some c -> c | None -> assert false
          in
          let fanins = Array.map emit_node c.Cut.leaves in
          let cfg =
            match Hashtbl.find_opt overrides id with
            | Some cfg -> cfg
            | None -> config_of_tt arch c.Cut.tt
          in
          Netlist.gate dst
            (Kind.Mapped { cell = Config.cell_name cfg; fn = c.Cut.tt })
            fanins
        end
      in
      emitted.(id) <- v;
      v
    end
  in
  (* A root literal: positive polarity reuses the node's supernode; negative
     polarity derives the complemented supernode from the same cut without
     forcing the positive one into existence (Invb for PIs/constant). *)
  let neg_emitted = Hashtbl.create 16 in
  let emit_root l =
    let id = Aig.node_of l in
    if not (Aig.is_complement l) then emit_node id
    else
      match Hashtbl.find_opt neg_emitted id with
      | Some v -> v
      | None ->
          let v =
            if Aig.is_const id then Netlist.gate dst (Kind.Const true) [||]
            else if Aig.is_pi aig id then
              let inv1 = Bfun.lnot (Bfun.var ~arity:1 0) in
              Netlist.gate dst
                (Kind.Mapped { cell = Config.cell_name Config.Invb; fn = inv1 })
                [| emit_node id |]
            else
              let c =
                match best_cut.(id) with Some c -> c | None -> assert false
              in
              let fanins = Array.map emit_node c.Cut.leaves in
              let tt = Bfun.lnot c.Cut.tt in
              let cfg =
                match Hashtbl.find_opt overrides id with
                | Some cfg -> cfg
                | None -> config_of_tt arch tt
              in
              Netlist.gate dst
                (Kind.Mapped { cell = Config.cell_name cfg; fn = tt })
                fanins
          in
          Hashtbl.replace neg_emitted id v;
          v
  in
  List.iter
    (fun (root, l) ->
      let v = emit_root l in
      match root with
      | Aig.Po o ->
          let name = Option.value ~default:(Printf.sprintf "po%d" o)
              (Netlist.node nl o).Netlist.name in
          ignore (Netlist.output dst name v)
      | Aig.Flop_d f -> Netlist.connect dst ~flop:new_of_src.(f) ~d:v)
    bound.Aig.roots;
  dst

let run ?objective arch nl =
  let bound = Aig.of_netlist nl in
  emit arch nl bound (select_cover ?objective arch bound)

let config_histogram nl =
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      match n.Netlist.kind with
      | Kind.Mapped { cell; _ } -> (
          match Config.of_cell_name cell with
          | Some c ->
              Hashtbl.replace counts c
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
          | None -> ())
      | _ -> ())
    (Netlist.nodes nl);
  List.filter_map
    (fun c ->
      match Hashtbl.find_opt counts c with
      | Some n -> Some (c, n)
      | None -> None)
    Config.all
