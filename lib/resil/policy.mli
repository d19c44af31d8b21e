(** Retry-with-escalation policy for the flow.

    One record carries the knobs of the two ladders a flow runs;
    {!Flow.run}[ ?policy] feeds them to detailed routing and annealing.
    Legalization and the equivalence gates take no policy: quadrisection
    grows its own array, and a Formal proof either holds or yields a
    counterexample.

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
  anneal_t_start : float option;
      (** starting annealing temperature ([None] = adaptive default) *)
  anneal_cooling : float;
      (** temperature multiplier per anneal restart (< 1): restarts get
          {e cooler} so a diverging walk turns into a safe greedy pass *)
}

val default : t
(** 4 attempts per stage and cooling anneal restarts (x1/16).  Each
    routing retry grows the channel capacity x1.5 and grants 10 more
    rip-up iterations (constants of the flow's route ladder). *)

val strict : t
(** One attempt per stage: any stage failure is final.  This reproduces
    the pre-policy fail-fast behavior, with the typed
    {!Fail.Stage_failure} instead of a bare [Failure]. *)
