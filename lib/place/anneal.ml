type stats = {
  initial_cost : float;
  final_cost : float;
  moves : int;
  accepted : int;
}

let refine ?iterations ?t_start ?criticality ~seed pl =
  let movable = pl.Placement.graph.Hypergraph.node_of_vertex in
  let n_cells = Array.length movable in
  if n_cells = 0 then
    { initial_cost = 0.0; final_cost = 0.0; moves = 0; accepted = 0 }
  else begin
    let rng = Random.State.make [| seed |] in
    let st = Wirecost.state (Wirecost.model ?criticality pl) pl in
    let initial_cost = Wirecost.total st in
    let iterations =
      match iterations with Some i -> i | None -> 100 * n_cells
    in
    Wirecost.schedule ?t_start st ~iterations;
    let accepted = ref 0 in
    let xs = pl.Placement.x and ys = pl.Placement.y in
    let window_w = ref (pl.Placement.die_w /. 2.0) in
    let window_h = ref (pl.Placement.die_h /. 2.0) in
    (* Convergence series: ~64 samples per walk of temperature, running
       cost, and acceptance rate over the sampling window.  Sampling
       never touches [rng], so traced and untraced walks are
       move-for-move identical. *)
    let sample_every = max 1 (iterations / 64) in
    let accepted_at_sample = ref 0 in
    for step = 1 to iterations do
      (* A swap with another cell, or a displacement inside the shrinking
         window, clamped to the die. *)
      let id = movable.(Random.State.int rng n_cells) in
      let swap = Random.State.bool rng && n_cells > 1 in
      let id2 = if swap then movable.(Random.State.int rng n_cells) else id in
      let ox = xs.(id) and oy = ys.(id) in
      if id2 <> id then begin
        Wirecost.touch_pair_registered st id id2;
        xs.(id) <- xs.(id2);
        ys.(id) <- ys.(id2);
        xs.(id2) <- ox;
        ys.(id2) <- oy
      end
      else begin
        Wirecost.touch st id;
        let clamp v lo hi = max lo (min hi v) in
        xs.(id) <-
          clamp (ox +. Random.State.float rng (2.0 *. !window_w) -. !window_w)
            0.0 pl.Placement.die_w;
        ys.(id) <-
          clamp (oy +. Random.State.float rng (2.0 *. !window_h) -. !window_h)
            0.0 pl.Placement.die_h
      end;
      if Wirecost.metropolis st rng then begin
        Wirecost.commit st;
        incr accepted
      end
      else begin
        if id2 <> id then begin
          xs.(id2) <- xs.(id);
          ys.(id2) <- ys.(id)
        end;
        xs.(id) <- ox;
        ys.(id) <- oy
      end;
      Wirecost.cool st;
      if step mod sample_every = 0 then begin
        Vpga_obs.Trace.emit_sample "anneal.temperature"
          (Wirecost.temperature st);
        Vpga_obs.Trace.emit_sample "anneal.cost" (Wirecost.total st);
        Vpga_obs.Trace.emit_sample "anneal.acceptance"
          (float_of_int (!accepted - !accepted_at_sample)
          /. float_of_int sample_every);
        accepted_at_sample := !accepted
      end;
      if step mod (max 1 (iterations / 20)) = 0 then begin
        window_w := max (pl.Placement.die_w /. 50.0) (!window_w *. 0.8);
        window_h := max (pl.Placement.die_h /. 50.0) (!window_h *. 0.8)
      end
    done;
    (* Feed the ambient trace's counter registry (no-op when tracing is
       off); one walk may run several times under a restart policy, so
       these accumulate across attempts. *)
    Vpga_obs.Trace.emit "anneal.walks" 1.0;
    Vpga_obs.Trace.emit "anneal.moves" (float_of_int iterations);
    Vpga_obs.Trace.emit "anneal.accepted" (float_of_int !accepted);
    {
      initial_cost;
      final_cost = Wirecost.total st;
      moves = iterations;
      accepted = !accepted;
    }
  end
