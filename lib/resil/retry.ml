(* The one escalation-ladder driver behind every retrying stage; the
   contract is spelled out in retry.mli. *)

module Diag = Vpga_verify.Diag

type 'a exhausted = Fatal of Diag.t | Degrade of string * 'a

let run ~log ~stage ~design ~max_attempts ~next ~exhausted attempt rung =
  let rec go i rung =
    match attempt i rung with
    | Ok v -> v
    | Error (reason, failure) -> (
        if i + 1 < max_attempts then begin
          let rung', what = next rung failure in
          Log.record log (Log.Retry { stage; attempt = i + 1; reason });
          Log.record log (Log.Escalation { stage; what });
          go (i + 1) rung'
        end
        else
          match exhausted reason failure with
          | Fatal diag ->
              Fail.raise_
                (Fail.make ~stage ~design ~attempts:(i + 1) ~diags:[ diag ]
                   ~events:(Log.strings log) ())
          | Degrade (what, v) ->
              Log.record log (Log.Degraded { stage; what });
              v)
  in
  go 0 rung

(* Attempt [0] must reproduce the un-retried flow exactly, so the
   derived seed is the base seed itself; later attempts step by a prime
   far from the small per-stage seed offsets the flow already uses. *)
let reseed ~seed ~attempt = (seed + (7919 * attempt)) land 0x3FFFFFFF
