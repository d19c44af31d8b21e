(* Recovery-event recorder.  One [t] per flow run (tasks never share
   one, so no locking); the flow appends an event whenever a policy
   retries a stage, escalates a knob, or degrades a verification level.
   The sweep aggregates per-task summaries into the recovery counters
   reported by [vpga sweep] and the [recovery] block of the bench's
   BENCH_sweep.json record. *)

type event =
  | Retry of { stage : string; attempt : int; reason : string }
  | Escalation of { stage : string; what : string }
  | Degraded of { stage : string; what : string }

type timed = { at_ns : int64; event : event }

type t = { mutable rev_timed : timed list (* newest first *) }

let create () = { rev_timed = [] }

let record t e =
  t.rev_timed <-
    { at_ns = Vpga_obs.Clock.now_ns (); event = e } :: t.rev_timed

let events t = List.rev_map (fun te -> te.event) t.rev_timed
let timed t = List.rev t.rev_timed

let event_to_string = function
  | Retry { stage; attempt; reason } ->
      Printf.sprintf "retry %s (attempt %d): %s" stage attempt reason
  | Escalation { stage; what } -> Printf.sprintf "escalate %s: %s" stage what
  | Degraded { stage; what } -> Printf.sprintf "degrade %s: %s" stage what

let strings t = List.map event_to_string (events t)

type summary = { retries : int; escalations : int; degraded : int }

let zero = { retries = 0; escalations = 0; degraded = 0 }

let add a b =
  {
    retries = a.retries + b.retries;
    escalations = a.escalations + b.escalations;
    degraded = a.degraded + b.degraded;
  }

let summary t =
  List.fold_left
    (fun acc e ->
      match e with
      | Retry _ -> { acc with retries = acc.retries + 1 }
      | Escalation _ -> { acc with escalations = acc.escalations + 1 }
      | Degraded _ -> { acc with degraded = acc.degraded + 1 })
    zero (events t)
