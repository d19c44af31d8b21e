(** A fixed worker pool over OCaml 5 domains.

    [jobs] worker domains pull thunks from one bounded FIFO queue
    (mutex + condition variables, no work stealing).  Results come back
    through futures; a worker exception is captured and re-raised, with
    its backtrace, at the {!await} site.  Submission blocks while the
    queue holds [capacity] pending tasks, which keeps a producer that is
    faster than the workers from buffering the whole workload.

    The pool is intended for coarse tasks (an entire RTL-to-layout flow
    run per task); nothing here is tuned for fine-grained parallelism.

    Determinism: the pool imposes no ordering on task execution, so tasks
    must not share mutable state or a common RNG.  Callers that need
    run-to-run reproducibility derive an independent seed per task (see
    [Experiments.run_all]).  {!run} returns results in
    submission order regardless of completion order, and with [jobs = 1]
    they run every thunk inline on the calling domain — the sequential
    reference semantics. *)

type t
(** A running pool.  Workers live until {!shutdown}. *)

type 'a future
(** The pending result of a submitted task. *)

type stats = {
  tasks : int;  (** tasks executed to completion *)
  queue_wait_ns : int64;
      (** total time tasks spent queued (submit to dequeue), summed *)
  busy_ns : int64 array;
      (** per-worker time spent executing tasks, by worker index *)
  wait_samples_ns : int64 array;
      (** per-task queue wait, in completion order (all zero for inline
          [jobs = 1] execution) *)
}
(** Pool accounting on the monotonic clock ({!Vpga_obs.Clock}); updated
    once per task, so the cost is invisible next to coarse tasks. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], floor 1: leave one
    hardware context for the submitting domain. *)

val create : ?capacity:int -> jobs:int -> unit -> t
(** Spawn [jobs] worker domains (at least 1) sharing a bounded queue of
    [capacity] pending tasks (default [2 * jobs]).
    @raise Invalid_argument if [jobs < 1] or [capacity < 1]. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task; blocks while the queue is full.
    @raise Invalid_argument if the pool is already shut down. *)

val await : 'a future -> 'a
(** Block until the task finishes.  Re-raises the task's exception (with
    the worker-side backtrace) if it failed.  May be called more than
    once and from any domain. *)

val shutdown : t -> unit
(** Drain the queue, stop the workers and join their domains.  Already
    submitted tasks all run before the workers exit.  Idempotent. *)

val stats : t -> stats
(** A consistent snapshot of the pool's accounting so far. *)

val with_pool : ?capacity:int -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] against a freshly created pool and
    guarantees {!shutdown} on every exit path — the scoped-submission
    helper for finer-grained fan-out (e.g. region-parallel refinement
    inside one flow stage) that must not leak worker domains when a task
    raises.  The pool argument is only valid during [f]. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs thunks]: execute every thunk on a transient pool of
    [min jobs (length thunks)] workers and return the results in
    submission order.  [jobs] defaults to {!default_jobs}; [jobs = 1]
    runs inline, sequentially, without spawning a domain.  If any task
    raised, the pool is still shut down cleanly and then the first
    failure (in submission order) is re-raised. *)

val run_stats : ?jobs:int -> (unit -> 'a) list -> 'a list * stats
(** {!run}, also returning the transient pool's {!type-stats}.  With
    [jobs = 1] (inline execution) the stats carry one busy slot and zero
    queue wait. *)

val try_run : ?jobs:int -> (unit -> 'a) list -> ('a, exn) result list
(** Like {!run}, but a task's exception is captured into its own slot
    instead of being re-raised, so one failing task never hides the
    results of its siblings.  [jobs = 1] runs inline with the same
    per-task capture. *)

val publish_stats : stats -> Vpga_obs.Trace.t -> unit
(** Surface a stats snapshot on a trace: [pool.tasks], [pool.workers],
    [pool.queue_wait_ms], [pool.busy_ms_total] and [pool.busy_ms_max]
    gauges, plus every per-task queue wait observed into the
    [pool.queue_wait_us] histogram.  No-op on a null trace. *)
