(** Fan-out of a known list of tasks over OCaml 5 domains.

    {!run_stats} spawns [min jobs n] worker domains for [n] tasks.  Each
    worker claims the next unclaimed task index from one atomic counter
    and writes the task's value, or its exception and backtrace, into
    that task's own slot; after the workers join, results come back in
    submission order.  Every caller builds its whole task list before
    fanning it out (the sweep's (design, arch) runs, the stress matrix,
    the refiner's region walks), so there is no queue to bound and
    nothing to await task by task.  Tasks are coarse (a whole flow run,
    a region walk); nothing here is tuned for fine-grained parallelism.

    Determinism: execution order across workers is unspecified, so tasks
    must not share mutable state or a common RNG.  Callers that need
    run-to-run reproducibility derive each task's seed from the task's
    identity (see [Experiments.task_seed]), never from scheduling.  With
    one worker ([jobs = 1], or at most one task) every thunk runs inline
    on the calling domain, in submission order, without spawning a
    domain: the sequential reference semantics. *)

type stats = {
  tasks : int;  (** tasks executed, failed ones included *)
  queue_wait_ns : int64;  (** sum of [wait_samples_ns] *)
  busy_ns : int64 array;
      (** per-worker time spent executing tasks, by worker index; one
          slot per worker, [min jobs n] (at least 1) *)
  wait_samples_ns : int64 array;
      (** per-task wait, in submission order: from the start of the run
          to the moment a worker claimed the task (all zero when the
          tasks run inline) *)
}
(** Fan-out accounting on the monotonic clock ({!Vpga_obs.Clock}),
    taken twice per task, so the cost is invisible next to coarse
    tasks. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], floor 1: leave one
    hardware context for the calling domain. *)

val run_stats : ?jobs:int -> (unit -> 'a) list -> 'a list * stats
(** [run_stats ~jobs thunks] runs every thunk on [min jobs n] workers
    and returns the results in submission order with the run's
    {!type-stats}.  [jobs] defaults to {!default_jobs}; values below 1
    count as 1.  Every task runs even when another raises; the first
    failure in submission order is then re-raised with its backtrace. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [fst (run_stats ?jobs thunks)]. *)

val publish_stats : stats -> Vpga_obs.Trace.t -> unit
(** Surface a stats snapshot on a trace: [pool.tasks], [pool.workers],
    [pool.queue_wait_ms], [pool.busy_ms_total] and [pool.busy_ms_max]
    gauges, plus every per-task wait observed into the
    [pool.queue_wait_us] histogram.  No-op on a null trace. *)
