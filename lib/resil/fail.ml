(* Typed stage failures.  A [t] is what a flow stage reports when its
   retry policy is exhausted: which stage, on which design, how many
   attempts were made, the verification diagnostics that condemned the
   last attempt, and the recovery events (retries/escalations) that led
   up to it.  [Stage_failure] is the only exception a policy-driven flow
   run is supposed to die with; a raw exception from stage code (a
   compute kernel's [Failure], say) is converted at the task boundary. *)

module Diag = Vpga_verify.Diag

type t = {
  stage : string;
  design : string;
  attempts : int;
  diags : Diag.t list;
  events : string list;
}

exception Stage_failure of t

let make ?(diags = []) ?(events = []) ~stage ~design ~attempts () =
  { stage; design; attempts; diags; events }

(* Adopt an arbitrary exception as a typed failure (used at task
   boundaries, where stage code can still raise raw exceptions). *)
let of_exn ?(events = []) ~stage ~design ~attempts = function
  | Stage_failure f -> f
  | Failure msg ->
      make
        ~diags:[ Diag.error "stage-failed" "%s" msg ]
        ~events ~stage ~design ~attempts ()
  | e ->
      make
        ~diags:[ Diag.error "stage-exception" "%s" (Printexc.to_string e) ]
        ~events ~stage ~design ~attempts ()

let to_string f =
  Printf.sprintf "%s failed on %s after %d attempt%s: %s" f.stage f.design
    f.attempts
    (if f.attempts = 1 then "" else "s")
    (String.concat "; " (List.map Diag.to_string f.diags))

let raise_ f = raise (Stage_failure f)

let () =
  Printexc.register_printer (function
    | Stage_failure f -> Some ("Stage_failure: " ^ to_string f)
    | _ -> None)
