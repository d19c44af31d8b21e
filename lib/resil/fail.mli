(** Typed stage failures.

    A flow stage whose retry policy is exhausted reports a {!t}: the
    stage name, the design, the number of attempts made, the
    {!Vpga_verify.Diag} diagnostics that condemned the last attempt, and
    the recovery-event trail ({!Log.strings}) leading up to it.
    {!Stage_failure} is the one exception a policy-driven flow run dies
    with: every verification gate raises it with its checker's own
    diagnostics.  A raw exception from stage code (a compute kernel's
    [Failure], say) is adopted via {!of_exn} at the task boundary. *)

type t = {
  stage : string;  (** the stage boundary that gave up, e.g. ["route:a"] *)
  design : string;
  attempts : int;  (** attempts made, including the first *)
  diags : Vpga_verify.Diag.t list;
  events : string list;  (** rendered recovery events, oldest first *)
}

exception Stage_failure of t

val make :
  ?diags:Vpga_verify.Diag.t list ->
  ?events:string list ->
  stage:string ->
  design:string ->
  attempts:int ->
  unit ->
  t

val of_exn :
  ?events:string list ->
  stage:string ->
  design:string ->
  attempts:int ->
  exn ->
  t
(** Adopt any exception as a typed failure.  A {!Stage_failure} payload
    passes through unchanged; a [Failure msg] becomes a [stage-failed]
    diagnostic; anything else becomes [stage-exception]. *)

val to_string : t -> string
val raise_ : t -> 'a
