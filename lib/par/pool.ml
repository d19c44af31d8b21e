(* One fan-out over a known task list: workers claim task indices from an
   atomic counter and write each outcome into the task's own slot.  Every
   slot, wait sample and busy cell has exactly one writer, and
   [Domain.join] orders those writes before the caller reads them, so no
   lock is needed. *)

type stats = {
  tasks : int;
  queue_wait_ns : int64;
  busy_ns : int64 array;
  wait_samples_ns : int64 array;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let run_stats ?jobs thunks =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let tasks = Array.of_list thunks in
  let n = Array.length tasks in
  let workers = max 1 (min jobs n) in
  let slots = Array.make n None in
  let waits = Array.make n 0L in
  let busy = Array.make workers 0L in
  let next = Atomic.make 0 in
  let start_ns = Vpga_obs.Clock.now_ns () in
  let rec work w =
    let k = Atomic.fetch_and_add next 1 in
    if k < n then begin
      let claimed_ns = Vpga_obs.Clock.now_ns () in
      (* Inline tasks never wait for a worker: their samples stay 0. *)
      if workers > 1 then waits.(k) <- Int64.sub claimed_ns start_ns;
      slots.(k) <-
        Some
          (match tasks.(k) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      busy.(w) <-
        Int64.add busy.(w) (Int64.sub (Vpga_obs.Clock.now_ns ()) claimed_ns);
      work w
    end
  in
  if workers = 1 then work 0
  else
    List.iter Domain.join
      (List.init workers (fun w -> Domain.spawn (fun () -> work w)));
  let results =
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      slots
  in
  ( Array.to_list results,
    {
      tasks = n;
      queue_wait_ns = Array.fold_left Int64.add 0L waits;
      busy_ns = busy;
      wait_samples_ns = waits;
    } )

let run ?jobs thunks = fst (run_stats ?jobs thunks)

(* Publish a stats snapshot onto a trace: scheduling health as gauges,
   the per-task waits as a histogram (so snapshots get p50/p90/p99 of
   queue wait). *)
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
