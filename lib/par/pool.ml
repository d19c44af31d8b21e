(* Fixed worker pool over OCaml 5 domains: a bounded FIFO protected by one
   mutex and two condition variables ([not_empty] for workers, [not_full]
   for producers).  No work stealing — tasks here are whole flow runs, so
   queue contention is negligible next to task cost. *)

type task = Run of { f : unit -> unit; enq_ns : int64 } | Stop

type stats = {
  tasks : int;
  queue_wait_ns : int64;
  busy_ns : int64 array;
  wait_samples_ns : int64 array;
}

type t = {
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  queue : task Queue.t;
  capacity : int;
  mutable workers : unit Domain.t list;
  mutable stopped : bool;
  (* Accounting, guarded by [lock]; touched once per task, so contention
     stays negligible next to task cost. *)
  mutable tasks_run : int;
  mutable wait_ns : int64;
  mutable rwait_samples : int64 list; (* per-task queue wait, newest first *)
  worker_busy_ns : int64 array;
}

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_lock : Mutex.t;
  f_done : Condition.t;
  mutable state : 'a state;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let rec worker p i =
  Mutex.lock p.lock;
  while Queue.is_empty p.queue do
    Condition.wait p.not_empty p.lock
  done;
  let task = Queue.pop p.queue in
  Condition.signal p.not_full;
  Mutex.unlock p.lock;
  match task with
  | Stop -> ()
  | Run { f; enq_ns } ->
      let deq_ns = Vpga_obs.Clock.now_ns () in
      (* [submit] already captures task exceptions into the future, but a
         worker domain must survive (and keep serving siblings) even if a
         raw task leaks one — a dead worker would strand every queued
         task behind it and leak the domain at shutdown. *)
      (try f () with _ -> ());
      let done_ns = Vpga_obs.Clock.now_ns () in
      Mutex.lock p.lock;
      p.tasks_run <- p.tasks_run + 1;
      p.wait_ns <- Int64.add p.wait_ns (Int64.sub deq_ns enq_ns);
      p.rwait_samples <- Int64.sub deq_ns enq_ns :: p.rwait_samples;
      p.worker_busy_ns.(i) <-
        Int64.add p.worker_busy_ns.(i) (Int64.sub done_ns deq_ns);
      Mutex.unlock p.lock;
      worker p i

let create ?capacity ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let capacity = match capacity with Some c -> c | None -> 2 * jobs in
  if capacity < 1 then invalid_arg "Pool.create: capacity must be >= 1";
  let p =
    {
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      queue = Queue.create ();
      capacity;
      workers = [];
      stopped = false;
      tasks_run = 0;
      wait_ns = 0L;
      rwait_samples = [];
      worker_busy_ns = Array.make jobs 0L;
    }
  in
  p.workers <- List.init jobs (fun i -> Domain.spawn (fun () -> worker p i));
  p

let stats p =
  Mutex.lock p.lock;
  let s =
    {
      tasks = p.tasks_run;
      queue_wait_ns = p.wait_ns;
      busy_ns = Array.copy p.worker_busy_ns;
      wait_samples_ns = Array.of_list (List.rev p.rwait_samples);
    }
  in
  Mutex.unlock p.lock;
  s

let enqueue p task =
  Mutex.lock p.lock;
  if p.stopped then begin
    Mutex.unlock p.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  while Queue.length p.queue >= p.capacity do
    Condition.wait p.not_full p.lock
  done;
  Queue.push task p.queue;
  Condition.signal p.not_empty;
  Mutex.unlock p.lock

let submit p f =
  let fut = { f_lock = Mutex.create (); f_done = Condition.create (); state = Pending } in
  let run () =
    let result =
      (* The worker loop must survive any task failure: capture it here and
         hand it to whoever awaits. *)
      try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.f_lock;
    fut.state <- result;
    Condition.broadcast fut.f_done;
    Mutex.unlock fut.f_lock
  in
  enqueue p (Run { f = run; enq_ns = Vpga_obs.Clock.now_ns () });
  fut

let await_state fut =
  Mutex.lock fut.f_lock;
  while (match fut.state with Pending -> true | Done _ | Failed _ -> false) do
    Condition.wait fut.f_done fut.f_lock
  done;
  let s = fut.state in
  Mutex.unlock fut.f_lock;
  s

let await fut =
  match await_state fut with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let shutdown p =
  let to_join =
    Mutex.lock p.lock;
    if p.stopped then begin
      Mutex.unlock p.lock;
      []
    end
    else begin
      p.stopped <- true;
      let ws = p.workers in
      p.workers <- [];
      Mutex.unlock p.lock;
      (* Stop tokens go through the same bounded queue, behind every already
         submitted task: workers drain the backlog before exiting.  Bypass
         [enqueue]'s stopped check (we just set it) but keep the bound. *)
      List.iter
        (fun _ ->
          Mutex.lock p.lock;
          while Queue.length p.queue >= p.capacity do
            Condition.wait p.not_full p.lock
          done;
          Queue.push Stop p.queue;
          Condition.signal p.not_empty;
          Mutex.unlock p.lock)
        ws;
      ws
    end
  in
  List.iter Domain.join to_join

let with_pool ?capacity ~jobs f =
  let p = create ?capacity ~jobs () in
  match f p with
  | v ->
      shutdown p;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      shutdown p;
      Printexc.raise_with_backtrace e bt

let run ?jobs thunks =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length thunks in
  if jobs = 1 || n <= 1 then List.map (fun f -> f ()) thunks
  else begin
    let p = create ~jobs:(min jobs n) () in
    (* Submission blocks when the queue fills, so collect futures as we go. *)
    let futs = List.map (submit p) thunks in
    let states = List.map await_state futs in
    shutdown p;
    List.map
      (function
        | Done v -> v
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false)
      states
  end

let run_stats ?jobs thunks =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length thunks in
  if jobs = 1 || n <= 1 then begin
    (* Inline reference semantics, still accounted: one "worker" slot,
       zero queue wait. *)
    let busy = ref 0L in
    let results =
      List.map
        (fun f ->
          let t0 = Vpga_obs.Clock.now_ns () in
          let v = f () in
          busy := Int64.add !busy (Int64.sub (Vpga_obs.Clock.now_ns ()) t0);
          v)
        thunks
    in
    ( results,
      {
        tasks = n;
        queue_wait_ns = 0L;
        busy_ns = [| !busy |];
        (* inline tasks never queue: n waits of exactly zero *)
        wait_samples_ns = Array.make n 0L;
      } )
  end
  else begin
    let p = create ~jobs:(min jobs n) () in
    let futs = List.map (submit p) thunks in
    let states = List.map await_state futs in
    (* Snapshot only after the workers have joined: a worker fulfills a
       task's future before it books the task's accounting, so a snapshot
       taken right after the last await could miss the final task. *)
    shutdown p;
    let st = stats p in
    ( List.map
        (function
          | Done v -> v
          | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
          | Pending -> assert false)
        states,
      st )
  end

let try_run ?jobs thunks =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length thunks in
  if jobs = 1 || n <= 1 then
    List.map
      (fun f -> match f () with v -> Ok v | exception e -> Error e)
      thunks
  else begin
    let p = create ~jobs:(min jobs n) () in
    let futs = List.map (submit p) thunks in
    let states = List.map await_state futs in
    shutdown p;
    List.map
      (function
        | Done v -> Ok v
        | Failed (e, _) -> Error e
        | Pending -> assert false)
      states
  end


(* Publish a stats snapshot onto a trace: scheduling health as gauges,
   the per-task queue waits as a histogram (so snapshots get p50/p90/p99
   of queue wait, the [vpga serve] fairness signal). *)
let publish_stats st tr =
  let ms ns = Int64.to_float ns /. 1e6 in
  Vpga_obs.Trace.set tr "pool.tasks" (float_of_int st.tasks);
  Vpga_obs.Trace.set tr "pool.workers" (float_of_int (Array.length st.busy_ns));
  Vpga_obs.Trace.set tr "pool.queue_wait_ms" (ms st.queue_wait_ns);
  Vpga_obs.Trace.set tr "pool.busy_ms_total"
    (Array.fold_left (fun acc b -> acc +. ms b) 0.0 st.busy_ns);
  Vpga_obs.Trace.set tr "pool.busy_ms_max"
    (Array.fold_left (fun acc b -> Float.max acc (ms b)) 0.0 st.busy_ns);
  Array.iter
    (fun w ->
      Vpga_obs.Trace.observe tr "pool.queue_wait_us"
        (Int64.to_float w /. 1e3))
    st.wait_samples_ns
