(** Retry-with-escalation policy for the flow.

    One record carries every stage's knobs; {!Flow.run}[ ?policy] reads
    the fields relevant to each stage: detailed routing, annealing and
    quadrisection.  The equivalence gates take no policy: a Formal proof
    either holds or yields a counterexample.

    Determinism rule: every ladder value and every reseed is a pure
    function of the policy and the attempt index (see {!Retry.reseed}),
    never of wall-clock, worker count or completion order — a retried
    flow stays byte-identical across [jobs] settings. *)

type t = {
  max_attempts : int;
      (** per-stage attempt cap, including the first try (>= 1) *)
  route_capacity : int option;
      (** starting channel capacity for the routing grid ([None] = the
          geometric default of {!Vpga_route.Grid.of_placement}) *)
  route_capacity_growth : float;
      (** capacity multiplier per routing retry (> 1) *)
  route_extra_iterations : int;
      (** extra PathFinder rip-up iterations granted per retry *)
  anneal_t_start : float option;
      (** starting annealing temperature ([None] = adaptive default) *)
  anneal_cooling : float;
      (** temperature multiplier per anneal restart (< 1): restarts get
          {e cooler} so a diverging walk turns into a safe greedy pass *)
  pack_utilization : float;
      (** target PLB-array resource utilization for legalization *)
  pack_relaxation : float;
      (** utilization multiplier per packing retry (< 1): each retry
          sizes a roomier array *)
}

val default : t
(** 4 attempts per stage, routing capacity x1.5 + 10 rip-up iterations
    per retry, cooling anneal restarts (x1/16), packing utilization x0.8
    per retry. *)

val strict : t
(** One attempt per stage: any stage failure is final.  This reproduces
    the pre-policy fail-fast behavior, with the typed
    {!Fail.Stage_failure} instead of a bare [Failure]. *)
