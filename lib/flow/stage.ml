(* The stage runner shared by {!Flow.run} and {!Minchan.search}: one [t]
   per run, [run] for a stage boundary (span, then memoization with
   recovery-event replay, then compute), the pieces a boundary is built
   from — [memo], [revive], [fail], [check] for the verification gates,
   and [ladder] for {!Flow.run}'s route and anneal stages — and the stage
   definitions both drivers share, so their front-ends build identical
   cache keys.  Only {!Minchan} sets a defect map. *)

module Netlist = Vpga_netlist.Netlist
module Arch = Vpga_plb.Arch
module Compact = Vpga_mapper.Compact
module Buffering = Vpga_place.Buffering
module Placement = Vpga_place.Placement
module Global = Vpga_place.Global
module Quadrisect = Vpga_pack.Quadrisect
module Diag = Vpga_verify.Diag
module Fail = Vpga_resil.Fail
module Log = Vpga_resil.Log
module Defect = Vpga_resil.Defect
module Retry = Vpga_resil.Retry
module Trace = Vpga_obs.Trace
module Attr = Vpga_obs.Span
module Cache = Vpga_cache.Cache
module Ckey = Vpga_cache.Key

type t = {
  arch : Arch.t;
  nl : Netlist.t;
  design : string;
  opts : Stagekey.options;
  log : Log.t;
  trace : Trace.t;
  cache : Cache.t;
  d_nl : string Lazy.t;
  d_arch : string Lazy.t;
}

(* An empty defect map is the healthy fabric: normalizing it away keeps
   {!Minchan}'s defect-free rate bit-identical to a run without a map
   (shared full-track arrays, no dead-tile plumbing, the same keys). *)
let create ~opts ~log ~trace ~cache arch nl =
  let defect =
    match opts.Stagekey.defect with
    | Some d when Defect.is_empty d -> None
    | d -> d
  in
  {
    arch;
    nl;
    design = Netlist.design_name nl;
    opts = { opts with Stagekey.defect };
    log = (match log with Some l -> l | None -> Log.create ());
    trace;
    cache;
    d_nl = lazy (Ckey.netlist_hex nl);
    d_arch = lazy (Ckey.arch_hex arch);
  }

(* A netlist artifact's digest, forced only when a key reads it. *)
let digest nl = lazy (Ckey.netlist_hex nl)

(* Placements mutate in place downstream, so their digest is taken
   eagerly at the boundary — and only when some key will read it. *)
let placement_hex s pl =
  if Cache.enabled s.cache then Stagekey.placement_hex pl else ""

(* Every stage boundary opens a span on the run's trace;
   [Trace.with_span] also installs it as the domain's ambient sink, so
   counters emitted deep inside the kernels land in this task's
   registry.  With [Trace.null] every span is one branch. *)
let span ?attrs s name f = Trace.with_span ?attrs s.trace name f

(* Look the stage up under [key ()]; on a hit, replay the recovery
   events its compute recorded (so warm summaries match cold ones) and
   mark the timeline; on a miss, run [compute] and store its value with
   the event suffix it appended to the log.  Failures propagate and are
   never cached.  Values revive as fresh copies ([Cache]'s put-time
   serialization), so in-place mutation never reaches an entry. *)
let memo s stage key compute =
  if not (Cache.enabled s.cache) then compute ()
  else
    let k = key () in
    match Cache.find s.cache k with
    | Some (v, events) ->
        List.iter (Log.record s.log) events;
        Trace.instant ~attrs:[ ("stage", Attr.Str stage) ] s.trace "cache:hit";
        v
    | None ->
        let before = List.length (Log.events s.log) in
        let v = compute () in
        Cache.put s.cache k
          (v, List.filteri (fun i _ -> i >= before) (Log.events s.log));
        v

let run s stage key compute = span s stage (fun () -> memo s stage key compute)

(* Blit a cached array over the live one.  A miss hands back the live
   array itself, so only a hit's fresh copy is blitted. *)
let revive src dst =
  if src != dst then Array.blit src 0 dst 0 (Array.length src)

(* The placement stages cache their coordinate arrays and revive them
   into this run's own placement. *)
let memo_coords s stage key pl compute =
  let x, y =
    memo s stage key (fun () ->
        compute ();
        (pl.Placement.x, pl.Placement.y))
  in
  revive x pl.Placement.x;
  revive y pl.Placement.y

(* Raise the stage's typed failure after one attempt, carrying the run's
   event trail. *)
let fail s stage diags =
  Fail.raise_
    (Fail.make ~stage ~design:s.design ~attempts:1 ~diags
       ~events:(Log.strings s.log) ())

(* The one gate protocol: a checker's error diagnostics, as it reported
   them, fail the stage; warnings and infos pass. *)
let check s stage diags =
  match Diag.errors diags with [] -> () | errs -> fail s stage errs

(* The escalation-ladder driver ({!Vpga_resil.Retry.run}) on the run's
   log and design. *)
let ladder s ~stage = Retry.run ~log:s.log ~stage ~design:s.design

(* Replay the recovery log onto the trace timeline as instant events;
   [Log.record] stamps the same monotonic clock the spans use. *)
let recovery_instants s =
  List.iter
    (fun { Log.at_ns; event } ->
      let name, stage, detail =
        match event with
        | Log.Retry { stage; attempt; reason } ->
            ("resil:retry", stage, Printf.sprintf "attempt %d: %s" attempt reason)
        | Log.Escalation { stage; what } -> ("resil:escalate", stage, what)
        | Log.Degraded { stage; what } -> ("resil:degrade", stage, what)
      in
      Trace.instant ~ts_ns:at_ns
        ~attrs:[ ("stage", Attr.Str stage); ("detail", Attr.Str detail) ]
        s.trace name)
    (Log.timed s.log)

(* --- shared stage definitions: memoized, without spans (each driver
   shapes its own trace around them) ----------------------------------- *)

let compact s =
  memo s "compact"
    (fun () ->
      Stagekey.compact ~nl:(Lazy.force s.d_nl) ~arch:(Lazy.force s.d_arch)
        s.opts)
    (fun () -> Compact.run s.arch s.nl)

let buffer s compacted d_compacted =
  memo s "buffer"
    (fun () ->
      Stagekey.buffer ~compacted:(Lazy.force d_compacted) ~max_fanout:8 s.opts)
    (fun () -> Buffering.insert ~max_fanout:8 compacted)

(* [Placement.create] (graph construction) reruns on a hit — cheap — and
   the cached coordinates blit into the fresh placement. *)
let place_global s buffered d_buffered =
  let pl = Placement.create buffered in
  memo_coords s "place:global"
    (fun () -> Stagekey.place_global ~buffered:(Lazy.force d_buffered) s.opts)
    pl
    (fun () -> Global.place ~seed:s.opts.Stagekey.seed pl);
  pl

(* Legalization: quadrisection grows its own array until the design
   fits, so there is no retry ladder around it, and an unfittable design
   fails the stage at once — there is no packed flow without a legal
   packing.  [key] is the stage's {!Stagekey} builder; dead tiles come
   from the run's defect map. *)
let pack s ~stage ~key ~criticality d_buffered pl d_pl =
  let dead_tile = Option.map Defect.tile_dead s.opts.Stagekey.defect in
  memo s stage
    (fun () ->
      key ~arch:(Lazy.force s.d_arch) ~buffered:(Lazy.force d_buffered)
        ~pl:d_pl s.opts)
  @@ fun () ->
  match Quadrisect.legalize_result ?criticality ?dead_tile s.arch pl with
  | Ok q -> q
  | Error fe ->
      fail s stage
        [ Diag.error "pack-unfit" "%s" (Quadrisect.fit_error_to_string fe) ]

(* The gate-free packed front-end: compact -> buffer -> place:global ->
   criticality-free legalization ([stress:pack]) -> snap.  Returns the
   buffered netlist, the packing and the snapped placement. *)
let packed s =
  let compacted = compact s in
  let buffered = buffer s compacted (digest compacted) in
  let d_buffered = digest buffered in
  let pl = place_global s buffered d_buffered in
  let q =
    pack s ~stage:"stress:pack" ~key:Stagekey.stress_pack ~criticality:None
      d_buffered pl (placement_hex s pl)
  in
  (buffered, q, Quadrisect.snap q pl)

(* One sweep task in isolation: a fresh recovery log, a trace created on
   the worker domain (so every event it records belongs to exactly one
   task), and whatever the task dies with as its own typed failure
   record ([Fail.of_exn] passes a [Stage_failure] payload through). *)
let isolate ~traced ~tid ~label ~stage ~design f =
  let log = Log.create () in
  let trace = if traced then Trace.create ~tid ~label () else Trace.null in
  let result =
    try Ok (f ~log ~trace)
    with e ->
      Error (Fail.of_exn ~stage ~design ~attempts:1 ~events:(Log.strings log) e)
  in
  (result, log, trace)
