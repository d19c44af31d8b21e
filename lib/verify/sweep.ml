(* Simulation-guided SAT sweeping (fraiging).

   A monolithic miter between two versions of an arithmetic-heavy design
   (the FPU's multiplier, say) is exactly the classic hard case for CDCL.
   The standard cure is to exploit the huge number of *internal*
   equivalences the flow preserves: random simulation partitions the shared
   AIG's nodes into candidate-equivalence classes, and each candidate is
   then proven (or refuted) with a small budgeted SAT call against an
   already-processed member of its class, bottom-up.  Proven nodes are
   merged, so by the time the primary-output miter is formed almost all of
   it has collapsed by structural hashing, and what remains is trivial for
   the solver.

   Random patterns alone alias badly on arithmetic logic (deep AND cones
   are heavily probability-skewed), so every refuting SAT model is fed
   back as a fresh simulation pattern that splits *all* classes it
   distinguishes — the counterexample-guided refinement loop of
   fraig-style sweeping.

   [reduce] rebuilds [aig] into a fresh AIG, returning it with a
   substitution from old literals to new ones.  Every merge is either
   structural or SAT-proven (UNSAT), so the substitution is exact: the new
   literal computes the same function of the (order-preserved) primary
   inputs as the old one. *)

module Aig = Vpga_aig.Aig

let sim_words = 4 (* 4 x 62 random patterns per initial signature *)
let seed = 97 (* of the initial random patterns *)
let merge_budget = 4_000 (* CDCL conflicts per candidate merge proof *)

(* Bit-parallel random simulation of the whole AIG: [sim_words] signature
   words per node, read as [sigs.(w).(id)].  PI words are drawn PI by PI, all
   of a PI's words at once; node 0 (constant false) keeps an all-zero
   signature, so constant cones class with it. *)
let simulate aig =
  let rng = Random.State.make [| seed |] in
  let draws =
    Array.init (Aig.num_pis aig) (fun _ ->
        Array.init sim_words (fun _ ->
            Random.State.bits rng
            lor (Random.State.bits rng lsl 30)
            lor ((Random.State.bits rng land 3) lsl 60)))
  in
  Array.init sim_words (fun w ->
      Aig.simulate aig (Array.map (fun ws -> ws.(w)) draws))

let reduce aig =
  let n = Aig.size aig in
  let sigs = simulate aig in
  (* Normalization phase per node: complement-equivalent nodes share a
     class.  The phase is fixed by the initial signature and never changes
     (refinement patterns are compared phase-relative). *)
  let phase = Array.init n (fun id -> sigs.(0).(id) land 1) in
  (* Initial candidate classes: nodes with equal normalized signatures. *)
  let class_of = Array.make n (-1) in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let n_classes = ref 0 in
  let tbl = Hashtbl.create (2 * n) in
  for id = 0 to n - 1 do
    let key =
      List.init sim_words (fun w ->
          (sigs.(w).(id) lxor -phase.(id)) land Aig.lane_mask)
    in
    let c =
      match Hashtbl.find_opt tbl key with
      | Some c -> c
      | None ->
          let c = !n_classes in
          incr n_classes;
          Hashtbl.add tbl key c;
          c
    in
    class_of.(id) <- c;
    Hashtbl.replace members c
      (id :: (try Hashtbl.find members c with Not_found -> []))
  done;
  let keys = Hashtbl.fold (fun c ms acc -> (c, ms) :: acc) members [] in
  List.iter (fun (c, ms) -> Hashtbl.replace members c (List.rev ms)) keys;
  (* Split every class along one distinguishing pattern. *)
  let refine pi_values =
    let values = Aig.simulate aig (Array.map Bool.to_int pi_values) in
    let nv id = values.(id) land 1 <> phase.(id) in
    let split c ms =
      let zeros, ones = List.partition (fun id -> not (nv id)) ms in
      match (zeros, ones) with
      | [], _ | _, [] -> ()
      | _ ->
          Hashtbl.replace members c zeros;
          let c' = !n_classes in
          incr n_classes;
          Hashtbl.replace members c' ones;
          List.iter (fun id -> class_of.(id) <- c') ones
    in
    let snapshot = Hashtbl.fold (fun c ms acc -> (c, ms) :: acc) members [] in
    List.iter (fun (c, ms) -> split c ms) snapshot
  in
  (* Rebuild in topological (id) order.  [subl] is the image literal of
     each processed node; merging picks the first already-processed class
     member that the SAT solver proves equal. *)
  let dst = Aig.create () in
  let subl = Array.make n Aig.const0 in
  let nimg id = subl.(id) lxor phase.(id) in
  (* One encoding scratch for every merge proof, grown with [dst]. *)
  let scratch = Cnf.scratch () in
  for id = 1 to n - 1 do
    if Aig.is_pi aig id then subl.(id) <- Aig.add_pi dst
    else begin
      let f0, f1 = Aig.fanins aig id in
      let map l = subl.(Aig.node_of l) lxor (l land 1) in
      let fresh = Aig.and_ dst (map f0) (map f1) in
      let nfresh = fresh lxor phase.(id) in
      (* Try to merge with processed members of the current class; a
         refuting model refines the classes, after which the candidate
         list is recomputed from the (smaller) new class. *)
      let merged = ref false in
      let finished = ref false in
      while not !finished do
        let candidates =
          List.filter (fun m -> m < id)
            (try Hashtbl.find members class_of.(id) with Not_found -> [])
        in
        let rec go = function
          | [] -> finished := true
          | m :: rest -> (
              if nimg m = nfresh then begin
                subl.(id) <- fresh;
                merged := true;
                finished := true
              end
              else
                let cnf = Cnf.of_inequiv scratch dst (nimg m) nfresh in
                match
                  Sat.solve ~max_conflicts:merge_budget
                    ~nvars:cnf.Cnf.nvars cnf.Cnf.clauses
                with
                | Sat.Unsat ->
                    subl.(id) <- nimg m lxor phase.(id);
                    merged := true;
                    finished := true
                | Sat.Unknown -> go rest
                | Sat.Sat model ->
                    (* [m] and [id] genuinely differ: refine and retry
                       against the node's reduced class.  Primary inputs
                       of [dst] are created in the same order as [aig]'s,
                       so PI k of [dst] is PI k of the original. *)
                    refine (Cnf.pi_values cnf dst model))
        in
        go candidates
      done;
      if not !merged then subl.(id) <- fresh
    end
  done;
  (dst, fun l -> subl.(Aig.node_of l) lxor (l land 1))
