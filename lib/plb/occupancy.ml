module Vector = Arch.Vector

let pure_flop (it : Packer.item) =
  it.Packer.flop && it.Packer.config = Config.Invb

(* Dense index for the config-multiset signature. *)
let config_index = function
  | Config.Invb -> 0
  | Config.Mx -> 1
  | Config.Nd2 -> 2
  | Config.Nd3 -> 3
  | Config.Ndmx -> 4
  | Config.Xoamx -> 5
  | Config.Xoandmx -> 6
  | Config.Mux3 -> 7
  | Config.Lut -> 8
  | Config.Carry -> 9

(* A tile holds at most [output_pins] items (<= 5 on every architecture), so
   4 bits per config count can never saturate. *)
let sig_bit c = 1 lsl (4 * config_index c)

type cache = {
  arch : Arch.t;
  memo : (int, bool) Hashtbl.t;
  comb_cap : int;
  demands : Vector.t list array;
      (* [Config.demand] rebuilds its vectors on every call; resolved here
         once per config so the hot path never re-allocates them *)
  min_slots : int array;
  mutable fits_calls : int;
  mutable cache_hits : int;
  mutable writer : int;
      (* region id this cache's walk mutates for, or -1: sanitizer off *)
  mutable guard_checks : int;
}

exception Race of { owner : int; writer : int }

let create_cache arch =
  let demands =
    Array.make (List.length Config.all) []
  in
  List.iter
    (fun c -> demands.(config_index c) <- Config.demand arch c)
    Config.all;
  let min_slots =
    Array.map
      (fun alts ->
        List.fold_left (fun acc d -> min acc (Vector.total d)) max_int alts)
      demands
  in
  {
    arch;
    memo = Hashtbl.create 256;
    comb_cap =
      Vector.total arch.Arch.capacity
      - Vector.get arch.Arch.capacity Arch.Ff;
    demands;
    min_slots;
    fits_calls = 0;
    cache_hits = 0;
    writer = -1;
    guard_checks = 0;
  }

let fits_calls c = c.fits_calls
let cache_hits c = c.cache_hits
let set_writer c r = c.writer <- r
let writer c = c.writer
let guard_checks c = c.guard_checks

type slot = { s_item : Packer.item; s_alt : Vector.t }

type t = {
  cache : cache;
  mutable used : Vector.t;
  mutable pins : int;
  mutable outputs : int;
  mutable flops : int;
  mutable min_slots : int;
  mutable slots : slot list;
  mutable signature : int;
  mutable owner : int; (* region id owning this tile, or -1: unstamped *)
  mutable dead : bool; (* defective tile: admits nothing *)
}

let create cache =
  {
    cache;
    used = Vector.zero;
    pins = 0;
    outputs = 0;
    flops = 0;
    min_slots = 0;
    slots = [];
    signature = 0;
    owner = -1;
    dead = false;
  }

let arch t = t.cache.arch
let cache t = t.cache
let set_owner t r = t.owner <- r
let owner t = t.owner
let set_dead t b = t.dead <- b
let dead t = t.dead

(* Every mutation passes through here.  Armed (both stamps set), a
   mutation from a walk whose cache writes for region [writer] against a
   tile owned by another region is a cross-region write: the exact bug
   class the region decomposition must exclude.  Fail fast, loudly. *)
let guard t =
  let c = t.cache in
  if c.writer >= 0 && t.owner >= 0 then begin
    c.guard_checks <- c.guard_checks + 1;
    if t.owner <> c.writer then
      raise (Race { owner = t.owner; writer = c.writer })
  end
let count t = t.outputs
let is_empty t = t.slots = []
let items t = List.map (fun s -> s.s_item) t.slots

let min_slots_of (c : cache) (it : Packer.item) =
  if pure_flop it then 0 else c.min_slots.(config_index it.Packer.config)

(* The three counter checks of [Packer.fits], incrementally. *)
let counters_ok t (it : Packer.item) =
  let a = t.cache.arch in
  t.flops + (if it.Packer.flop then 1 else 0)
  <= Vector.get a.Arch.capacity Arch.Ff
  && t.outputs + 1 <= a.Arch.output_pins
  && t.pins + it.Packer.pins <= a.Arch.input_pins

(* Reference-complete backtracking over demand alternatives, returning the
   chosen alternative per item.  Same search as [Packer.fits], with the
   witness kept. *)
let solve c items =
  let cap = c.arch.Arch.capacity in
  let rec assign used acc = function
    | [] -> Some (List.rev acc)
    | it :: rest when pure_flop it -> assign used (Vector.zero :: acc) rest
    | it :: rest ->
        let rec try_alts = function
          | [] -> None
          | d :: ds -> (
              let used' = Vector.add used d in
              if Vector.fits used' ~cap then
                match assign used' (d :: acc) rest with
                | Some _ as r -> r
                | None -> try_alts ds
              else try_alts ds)
        in
        try_alts c.demands.(config_index it.Packer.config)
  in
  assign Vector.zero [] items

(* Reference-solver fallback, with its cost observed into the ambient
   trace's "occupancy.solve_us" histogram — the memoized backtracking
   misses are exactly the probes worth watching.  The clock is only read
   when a trace is installed, so untraced packing keeps the bare
   memo-miss path. *)
let timed_solve c items =
  let tr = Vpga_obs.Trace.ambient () in
  if Vpga_obs.Trace.enabled tr then begin
    let t0 = Vpga_obs.Clock.now_ns () in
    let r = solve c items in
    Vpga_obs.Trace.observe tr "occupancy.solve_us"
      (Vpga_obs.Clock.ns_to_us (Int64.sub (Vpga_obs.Clock.now_ns ()) t0));
    r
  end
  else solve c items

let fast_alt t (it : Packer.item) =
  let cap = t.cache.arch.Arch.capacity in
  let rec go = function
    | [] -> None
    | d :: ds ->
        if Vector.fits (Vector.add t.used d) ~cap then Some d else go ds
  in
  go t.cache.demands.(config_index it.Packer.config)

let query t it =
  let c = t.cache in
  c.fits_calls <- c.fits_calls + 1;
  if t.dead then false
  else if not (counters_ok t it) then false
  else if pure_flop it then true
  else if t.min_slots + min_slots_of c it > c.comb_cap then false
  else if fast_alt t it <> None then true
  else begin
    let key = t.signature + sig_bit it.Packer.config in
    match Hashtbl.find_opt c.memo key with
    | Some b ->
        c.cache_hits <- c.cache_hits + 1;
        b
    | None ->
        let b = timed_solve c (it :: items t) <> None in
        Hashtbl.add c.memo key b;
        b
  end

let item_equal (a : Packer.item) (b : Packer.item) =
  a.Packer.config = b.Packer.config
  && a.Packer.pins = b.Packer.pins
  && a.Packer.flop = b.Packer.flop

(* "Would [it] fit if resident [without] left?" — the refinement loop's
   swap probe, answered without mutating the tile.  Verdicts are exact
   functions of the resulting resident multiset (the same cascade as
   [query] over adjusted counters/vectors), so this equals
   [remove without; query it] followed by restoring [without]. *)
let query_replacing t ~without it =
  let c = t.cache in
  c.fits_calls <- c.fits_calls + 1;
  if t.dead then false
  else
  let a = c.arch in
  let flops = t.flops - (if without.Packer.flop then 1 else 0) in
  if
    flops + (if it.Packer.flop then 1 else 0)
    > Vector.get a.Arch.capacity Arch.Ff
    || t.outputs > a.Arch.output_pins (* -1 for the leaver, +1 for [it] *)
    || t.pins - without.Packer.pins + it.Packer.pins > a.Arch.input_pins
  then false
  else if pure_flop it then true
  else if
    t.min_slots - min_slots_of c without + min_slots_of c it > c.comb_cap
  then false
  else begin
    let leaver_alt =
      let rec find = function
        | [] -> invalid_arg "Occupancy.query_replacing: item not present"
        | s :: rest ->
            if item_equal s.s_item without then s.s_alt else find rest
      in
      find t.slots
    in
    let used = Vector.sub t.used leaver_alt in
    let cap = a.Arch.capacity in
    let rec probe = function
      | [] -> false
      | d :: ds -> Vector.fits (Vector.add used d) ~cap || probe ds
    in
    probe c.demands.(config_index it.Packer.config)
    ||
    let key =
      t.signature
      - (if pure_flop without then 0 else sig_bit without.Packer.config)
      + sig_bit it.Packer.config
    in
    match Hashtbl.find_opt c.memo key with
    | Some b ->
        c.cache_hits <- c.cache_hits + 1;
        b
    | None ->
        let rec drop_one acc = function
          | [] -> List.rev acc
          | s :: rest when item_equal s.s_item without ->
              List.rev_append acc (List.map (fun s -> s.s_item) rest)
          | s :: rest -> drop_one (s.s_item :: acc) rest
        in
        let b = timed_solve c (it :: drop_one [] t.slots) <> None in
        Hashtbl.add c.memo key b;
        b
  end

let bump t (it : Packer.item) =
  t.pins <- t.pins + it.Packer.pins;
  t.outputs <- t.outputs + 1;
  if it.Packer.flop then t.flops <- t.flops + 1;
  if not (pure_flop it) then begin
    t.min_slots <- t.min_slots + min_slots_of t.cache it;
    t.signature <- t.signature + sig_bit it.Packer.config
  end

let add t it =
  guard t;
  let c = t.cache in
  if t.dead then false
  else if not (counters_ok t it) then false
  else if pure_flop it then begin
    t.slots <- { s_item = it; s_alt = Vector.zero } :: t.slots;
    bump t it;
    true
  end
  else
    match fast_alt t it with
    | Some d ->
        t.used <- Vector.add t.used d;
        t.slots <- { s_item = it; s_alt = d } :: t.slots;
        bump t it;
        true
    | None -> (
        let key = t.signature + sig_bit it.Packer.config in
        if Hashtbl.find_opt c.memo key = Some false then false
        else
          let its = it :: items t in
          match solve c its with
          | None ->
              Hashtbl.replace c.memo key false;
              false
          | Some alts ->
              (* Commit the reassigned alternatives of every resident. *)
              let slots' =
                List.map2 (fun i d -> { s_item = i; s_alt = d }) its alts
              in
              t.slots <- slots';
              t.used <-
                List.fold_left
                  (fun u s -> Vector.add u s.s_alt)
                  Vector.zero slots';
              bump t it;
              Hashtbl.replace c.memo key true;
              true)

let remove t it =
  guard t;
  let rec go acc = function
    | [] -> invalid_arg "Occupancy.remove: item not present"
    | s :: rest when item_equal s.s_item it ->
        t.slots <- List.rev_append acc rest;
        t.used <- Vector.sub t.used s.s_alt;
        t.pins <- t.pins - it.Packer.pins;
        t.outputs <- t.outputs - 1;
        if it.Packer.flop then t.flops <- t.flops - 1;
        if not (pure_flop it) then begin
          t.min_slots <- t.min_slots - min_slots_of t.cache it;
          t.signature <- t.signature - sig_bit it.Packer.config
        end
    | s :: rest -> go (s :: acc) rest
  in
  go [] t.slots
