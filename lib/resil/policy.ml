(* Per-stage retry-with-escalation knobs.  One record covers the whole
   flow; each stage reads the fields it cares about.  Every ladder is a
   pure function of (policy, attempt index), and every reseed derives
   from the base seed plus the attempt index, so a retried flow is as
   deterministic as a first-try one. *)

type t = {
  max_attempts : int;
  route_capacity : int option;
  anneal_t_start : float option;
  anneal_cooling : float;
}

let default =
  {
    max_attempts = 4;
    route_capacity = None;
    anneal_t_start = None;
    anneal_cooling = 1.0 /. 16.0;
  }

let strict = { default with max_attempts = 1 }
