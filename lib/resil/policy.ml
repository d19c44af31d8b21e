(* Per-stage retry-with-escalation knobs.  One record covers the whole
   flow; each stage reads the fields it cares about.  Every ladder is a
   pure function of (policy, attempt index), and every reseed derives
   from the base seed plus the attempt index, so a retried flow is as
   deterministic as a first-try one. *)

type t = {
  max_attempts : int;
  route_capacity : int option;
  route_capacity_growth : float;
  route_extra_iterations : int;
  anneal_t_start : float option;
  anneal_cooling : float;
  pack_utilization : float;
  pack_relaxation : float;
}

let default =
  {
    max_attempts = 4;
    route_capacity = None;
    route_capacity_growth = 1.5;
    route_extra_iterations = 10;
    anneal_t_start = None;
    anneal_cooling = 1.0 /. 16.0;
    pack_utilization = 0.9;
    pack_relaxation = 0.8;
  }

let strict = { default with max_attempts = 1 }
