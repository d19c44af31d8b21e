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
   4 bits per config count can never saturate.  A pure flop takes no
   combinational resource and no signature bit. *)
let sig_bit (it : Packer.item) =
  if pure_flop it then 0 else 1 lsl (4 * config_index it.Packer.config)

type cache = {
  arch : Arch.t;
  memo : (int, bool) Hashtbl.t;
  mutable fits_calls : int;
  mutable cache_hits : int;
}

let create_cache arch =
  { arch; memo = Hashtbl.create 256; fits_calls = 0; cache_hits = 0 }

let fits_calls c = c.fits_calls
let cache_hits c = c.cache_hits

type t = {
  cache : cache;
  mutable items : Packer.item list;
  mutable pins : int;
  mutable outputs : int;
  mutable flops : int;
  mutable signature : int;
  mutable dead : bool; (* defective tile: admits nothing *)
}

let create cache =
  {
    cache;
    items = [];
    pins = 0;
    outputs = 0;
    flops = 0;
    signature = 0;
    dead = false;
  }

let mark_dead t = t.dead <- true
let count t = t.outputs
let is_empty t = t.items = []
let items t = t.items

(* The three counter checks of [Packer.fits], over a tile that would hold
   [flops] flops, [outputs] outputs and [pins] input pins. *)
let counters_ok a ~flops ~outputs ~pins =
  flops <= Vector.get a.Arch.capacity Arch.Ff
  && outputs <= a.Arch.output_pins
  && pins <= a.Arch.input_pins

let flop (it : Packer.item) = if it.Packer.flop then 1 else 0

(* [Packer.fits], observed into the ambient trace's "occupancy.solve_us"
   histogram: the memo misses are exactly the probes worth watching.  The
   clock is only read when a trace is installed. *)
let timed_fits c items =
  let tr = Vpga_obs.Trace.ambient () in
  if Vpga_obs.Trace.enabled tr then begin
    let t0 = Vpga_obs.Clock.now_ns () in
    let r = Packer.fits c.arch items in
    Vpga_obs.Trace.observe tr "occupancy.solve_us"
      (Vpga_obs.Clock.ns_to_us (Int64.sub (Vpga_obs.Clock.now_ns ()) t0));
    r
  end
  else Packer.fits c.arch items

(* Past the counter checks, a tile's verdict depends only on the multiset of
   its residents' configurations, which the signature [key] encodes: each
   item's demand alternatives are a function of its configuration.
   [memo_hit] raises [Not_found] on a miss; the caller then builds the
   would-be residents [items] for [memo_fill], so a hit allocates nothing. *)
let memo_hit c key =
  let b = Hashtbl.find c.memo key in
  c.cache_hits <- c.cache_hits + 1;
  b

let memo_fill c key items =
  let b = timed_fits c items in
  Hashtbl.add c.memo key b;
  b

let fits t it =
  let c = t.cache in
  (not t.dead)
  && counters_ok c.arch ~flops:(t.flops + flop it) ~outputs:(t.outputs + 1)
       ~pins:(t.pins + it.Packer.pins)
  &&
  let key = t.signature + sig_bit it in
  try memo_hit c key with Not_found -> memo_fill c key (it :: t.items)

let query t it =
  let c = t.cache in
  c.fits_calls <- c.fits_calls + 1;
  fits t it

let item_equal (a : Packer.item) (b : Packer.item) =
  a.Packer.config = b.Packer.config
  && a.Packer.pins = b.Packer.pins
  && a.Packer.flop = b.Packer.flop

let rec resident it = function
  | [] -> false
  | x :: rest -> item_equal x it || resident it rest

(* [l] without its first item equal to [it]. *)
let drop_one it l =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest when item_equal x it -> List.rev_append acc rest
    | x :: rest -> go (x :: acc) rest
  in
  go [] l

(* "Would [it] fit if resident [without] left?" — the refinement loop's
   swap probe, answered without mutating the tile: the same checks as
   [query] over the counters and signature of the replaced multiset. *)
let query_replacing t ~without it =
  if not (resident without t.items) then
    invalid_arg "Occupancy.query_replacing: item not present";
  let c = t.cache in
  c.fits_calls <- c.fits_calls + 1;
  (not t.dead)
  && counters_ok c.arch
       ~flops:(t.flops - flop without + flop it)
       ~outputs:t.outputs
       ~pins:(t.pins - without.Packer.pins + it.Packer.pins)
  &&
  let key = t.signature - sig_bit without + sig_bit it in
  try memo_hit c key
  with Not_found -> memo_fill c key (it :: drop_one without t.items)

let add t it =
  fits t it
  && begin
       t.items <- it :: t.items;
       t.pins <- t.pins + it.Packer.pins;
       t.outputs <- t.outputs + 1;
       t.flops <- t.flops + flop it;
       t.signature <- t.signature + sig_bit it;
       true
     end

let remove t it =
  if not (resident it t.items) then
    invalid_arg "Occupancy.remove: item not present";
  t.items <- drop_one it t.items;
  t.pins <- t.pins - it.Packer.pins;
  t.outputs <- t.outputs - 1;
  t.flops <- t.flops - flop it;
  t.signature <- t.signature - sig_bit it
