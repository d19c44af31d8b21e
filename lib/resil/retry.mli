(** The escalation-ladder driver shared by every retrying stage.

    A ladder is an attempt function, a first rung (the knob attempt [0]
    runs with) and a [next] function that derives each later rung from
    the one that just failed.  The contract:

    - attempt [i] runs rung [i]; it fails with [Error (reason, detail)],
      where [detail] is whatever [next] and [exhausted] need;
    - a failed attempt [i] with a next rung (fewer than [max_attempts]
      attempts made, and [next rung detail = Some (rung', what)]) records
      exactly [Retry {attempt = i + 1; reason}] then [Escalation {what}]
      and runs attempt [i + 1] on [rung'];
    - otherwise the ladder is exhausted (a [None] from [next] ends it
      early: a rung list shorter than [max_attempts]) and
      [exhausted reason detail] decides: {!Fatal} raises a typed
      {!Fail.Stage_failure} with [attempts = i + 1] and the full event
      trail, {!Degrade} records one [Degraded] event and returns its
      fallback value.

    Rungs are pure functions of the policy and the failures seen, and
    every reseed derives from {!reseed}, so a retried stage is as
    deterministic as a first-try one. *)

type 'a exhausted =
  | Fatal of Vpga_verify.Diag.t  (** condemn the stage *)
  | Degrade of string * 'a
      (** give up the strong guarantee: the [Degraded] text and the
          fallback value the flow continues with *)

val run :
  log:Log.t ->
  stage:string ->
  design:string ->
  max_attempts:int ->
  next:('k -> 'f -> ('k * string) option) ->
  exhausted:(string -> 'f -> 'a exhausted) ->
  (int -> 'k -> ('a, string * 'f) result) ->
  'k ->
  'a
(** [run ~log ~stage ~design ~max_attempts ~next ~exhausted attempt rung0]
    drives the ladder from [rung0] until an attempt returns [Ok].
    @raise Fail.Stage_failure when [exhausted] returns {!Fatal}. *)

val reseed : seed:int -> attempt:int -> int
(** The derived seed for attempt [attempt] of a randomized stage.
    [reseed ~seed ~attempt:0] is [seed] itself (attempt 0 reproduces the
    un-retried flow bit for bit); later attempts step deterministically,
    so retried flows remain independent of worker count and completion
    order. *)
