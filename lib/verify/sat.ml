(* A small self-contained CDCL SAT solver for the combinational equivalence
   checker: two-watched-literal unit propagation, first-UIP conflict
   analysis with clause learning and non-chronological backjumping, VSIDS
   variable activities, phase saving, and geometric restarts.

   Literal encoding follows the AIG's: variable [v] appears as literal
   [2*v] (positive) and [2*v+1] (negated).  {!Cnf} numbers the variables
   of a cone 0..k-1, so every array here is cone-sized.  An assignment maps
   variables to booleans; a clause is an int array of literals. *)

type result = Sat of bool array | Unsat | Unknown

type solver = {
  nvars : int;
  mutable clauses : int array array; (* problem + learned clauses *)
  mutable n_clauses : int;
  watches : int list array; (* watches.(l) = clauses watching literal l *)
  assign : int array; (* -1 unassigned / 0 false / 1 true, per var *)
  level : int array; (* decision level, per var *)
  reason : int array; (* antecedent clause index or -1, per var *)
  trail : int array;
  mutable trail_n : int;
  mutable qhead : int;
  trail_lim : int array; (* trail length at each decision level *)
  mutable dlevel : int;
  activity : float array;
  mutable var_inc : float;
  phase : bool array; (* saved phase per var *)
  seen : bool array; (* scratch for conflict analysis *)
  (* effort counters, reported through [solve_stats] and the ambient
     trace *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_props : int;
}

let var l = l lsr 1
let neg l = l lxor 1

(* 1 true / 0 false / -1 unassigned. *)
let lit_value s l =
  let a = s.assign.(var l) in
  if a < 0 then -1 else a lxor (l land 1)

let create nvars =
  {
    nvars;
    clauses = Array.make 64 [||];
    n_clauses = 0;
    watches = Array.make (max 2 (2 * nvars)) [];
    assign = Array.make (max 1 nvars) (-1);
    level = Array.make (max 1 nvars) 0;
    reason = Array.make (max 1 nvars) (-1);
    trail = Array.make (max 1 nvars) 0;
    trail_n = 0;
    qhead = 0;
    trail_lim = Array.make (max 1 (nvars + 1)) 0;
    dlevel = 0;
    activity = Array.make (max 1 nvars) 0.0;
    var_inc = 1.0;
    phase = Array.make (max 1 nvars) false;
    seen = Array.make (max 1 nvars) false;
    n_conflicts = 0;
    n_decisions = 0;
    n_props = 0;
  }

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay s = s.var_inc <- s.var_inc /. 0.95

let enqueue s l reason =
  s.n_props <- s.n_props + 1;
  let v = var l in
  s.assign.(v) <- 1 - (l land 1);
  s.level.(v) <- s.dlevel;
  s.reason.(v) <- reason;
  s.phase.(v) <- l land 1 = 0;
  s.trail.(s.trail_n) <- l;
  s.trail_n <- s.trail_n + 1

let add_clause_watched s c =
  if s.n_clauses >= Array.length s.clauses then begin
    let bigger = Array.make (2 * Array.length s.clauses) [||] in
    Array.blit s.clauses 0 bigger 0 s.n_clauses;
    s.clauses <- bigger
  end;
  let ci = s.n_clauses in
  s.clauses.(ci) <- c;
  s.n_clauses <- ci + 1;
  s.watches.(c.(0)) <- ci :: s.watches.(c.(0));
  s.watches.(c.(1)) <- ci :: s.watches.(c.(1));
  ci

(* Unit propagation.  Returns the index of a conflicting clause, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_n do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let falsified = neg p in
    let ws = s.watches.(falsified) in
    s.watches.(falsified) <- [];
    let rec go = function
      | [] -> ()
      | ci :: rest -> (
          let c = s.clauses.(ci) in
          (* Normalize: the falsified literal sits at position 1. *)
          if c.(0) = falsified then begin
            c.(0) <- c.(1);
            c.(1) <- falsified
          end;
          if lit_value s c.(0) = 1 then begin
            (* Clause already satisfied by the other watch. *)
            s.watches.(falsified) <- ci :: s.watches.(falsified);
            go rest
          end
          else
            (* Look for a replacement watch. *)
            let len = Array.length c in
            let rec find k =
              if k >= len then -1
              else if lit_value s c.(k) <> 0 then k
              else find (k + 1)
            in
            match find 2 with
            | k when k >= 0 ->
                c.(1) <- c.(k);
                c.(k) <- falsified;
                s.watches.(c.(1)) <- ci :: s.watches.(c.(1));
                go rest
            | _ ->
                s.watches.(falsified) <- ci :: s.watches.(falsified);
                if lit_value s c.(0) = 0 then begin
                  (* Conflict: restore the remaining watch list. *)
                  conflict := ci;
                  List.iter
                    (fun cj ->
                      s.watches.(falsified) <- cj :: s.watches.(falsified))
                    rest
                end
                else begin
                  enqueue s c.(0) ci;
                  go rest
                end)
    in
    go ws
  done;
  !conflict

(* First-UIP conflict analysis.  Returns the learned clause (asserting
   literal first, a maximal-level literal second) and the backjump level. *)
let analyze s confl =
  let learned = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (s.trail_n - 1) in
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!confl) in
    let start = if !p < 0 then 0 else 1 in
    for k = start to Array.length c - 1 do
      let q = c.(k) in
      let v = var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        bump s v;
        if s.level.(v) >= s.dlevel then incr counter
        else learned := q :: !learned
      end
    done;
    (* Next marked literal on the trail. *)
    while not s.seen.(var s.trail.(!index)) do
      decr index
    done;
    p := s.trail.(!index);
    decr index;
    s.seen.(var !p) <- false;
    decr counter;
    if !counter > 0 then confl := s.reason.(var !p) else continue := false
  done;
  let learned = !learned in
  List.iter (fun q -> s.seen.(var q) <- false) learned;
  let asserting = neg !p in
  (* Backjump to the highest level among the remaining literals; put one
     literal of that level in watch position 1. *)
  match learned with
  | [] -> ([| asserting |], 0)
  | _ ->
      let blevel =
        List.fold_left (fun acc q -> max acc s.level.(var q)) 0 learned
      in
      let rest =
        match
          List.partition (fun q -> s.level.(var q) = blevel) learned
        with
        | at :: ats, others -> at :: (ats @ others)
        | [], _ -> assert false
      in
      (Array.of_list (asserting :: rest), blevel)

let cancel_until s blevel =
  if s.dlevel > blevel then begin
    let target = s.trail_lim.(blevel) in
    for k = s.trail_n - 1 downto target do
      let v = var s.trail.(k) in
      s.assign.(v) <- -1;
      s.reason.(v) <- -1
    done;
    s.trail_n <- target;
    s.qhead <- target;
    s.dlevel <- blevel
  end

(* Branch on the unassigned variable of highest activity, the lowest
   index among ties.  The scan covers all [nvars]: a {!Cnf} encoding
   numbers only its cone's nodes, each of which occurs in some clause.  A
   variable no clause mentions is decided at its saved phase, [false],
   which is the value an unassigned variable reads in a model. *)
let decide s =
  let best = ref (-1) in
  let best_act = ref neg_infinity in
  for v = 0 to s.nvars - 1 do
    if s.assign.(v) < 0 && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  match !best with
  | -1 -> false
  | v ->
      s.n_decisions <- s.n_decisions + 1;
      s.trail_lim.(s.dlevel) <- s.trail_n;
      s.dlevel <- s.dlevel + 1;
      enqueue s ((2 * v) lor (if s.phase.(v) then 0 else 1)) (-1);
      true

exception Trivially_unsat

(* Preprocess one input clause: drop duplicate and false literals,
   recognize tautologies and satisfied clauses.  Level-0 units are enqueued
   directly.  Returns [None] when the clause needs no watching; the kept
   literals come in reverse order. *)
let simplify_clause s c =
  let lits = ref [] in
  let taut = ref false in
  let sat = ref false in
  Array.iter
    (fun l ->
      if l < 0 || var l >= s.nvars then invalid_arg "Sat.solve: bad literal";
      if not (List.mem l !lits) then
        match lit_value s l with
        | 1 -> sat := true
        | 0 -> () (* already false at level 0 *)
        | _ ->
            if List.mem (neg l) !lits then taut := true
            else lits := l :: !lits)
    c;
  if !sat || !taut then None
  else
    match !lits with
    | [] -> raise Trivially_unsat
    | [ l ] ->
        if lit_value s l = 0 then raise Trivially_unsat;
        if lit_value s l < 0 then enqueue s l (-1);
        None
    | lits -> Some (Array.of_list lits)

(* [max_conflicts] bounds the search effort; when exhausted the solver
   answers [Unknown] (used by the SAT sweeper, whose merges are optional).
   Without it the search runs to completion. *)

type stats = { conflicts : int; decisions : int; propagations : int }

(* A literal [simplify_clause] would keep unchanged: valid and unassigned. *)
let free s l = l >= 0 && var l < s.nvars && s.assign.(var l) < 0

(* Load one input clause.  A Tseitin clause of 2 or 3 literals over
   distinct unassigned variables is watched as is, reversed exactly as
   [simplify_clause] would return it, without building its list; any other
   clause goes through [simplify_clause]. *)
let load_clause s c =
  match c with
  | [| a; b |] when free s a && free s b && var a <> var b ->
      ignore (add_clause_watched s [| b; a |])
  | [| a; b; d |]
    when free s a && free s b && free s d
         && var a <> var b && var a <> var d && var b <> var d ->
      ignore (add_clause_watched s [| d; b; a |])
  | _ -> (
      match simplify_clause s c with
      | None -> ()
      | Some c -> ignore (add_clause_watched s c))

let solve_counted ?max_conflicts ~nvars clauses =
  let s = create nvars in
  match List.iter (load_clause s) clauses with
  | exception Trivially_unsat -> (Unsat, s)
  | () ->
      let restart_limit = ref 100 in
      let conflicts_here = ref 0 in
      let conflicts_total = ref 0 in
      let answer = ref None in
      (* Top-level propagation of input units. *)
      if propagate s >= 0 then (Unsat, s)
      else begin
        while !answer = None do
          let confl = propagate s in
          if confl >= 0 then begin
            incr conflicts_here;
            incr conflicts_total;
            s.n_conflicts <- s.n_conflicts + 1;
            (* A conflict at level 0 is a finished refutation, even when it
               is the last one the budget allows. *)
            if s.dlevel = 0 then answer := Some Unsat
            else
              match max_conflicts with
              | Some limit when !conflicts_total >= limit ->
                  answer := Some Unknown
              | _ ->
                  let learned, blevel = analyze s confl in
                  cancel_until s blevel;
                  decay s;
                  if Array.length learned = 1 then enqueue s learned.(0) (-1)
                  else begin
                    let ci = add_clause_watched s learned in
                    enqueue s learned.(0) ci
                  end
          end
          else if !conflicts_here >= !restart_limit then begin
            conflicts_here := 0;
            restart_limit := !restart_limit + (!restart_limit / 2);
            cancel_until s 0
          end
          else if not (decide s) then
            answer :=
              Some (Sat (Array.map (fun a -> a = 1) (Array.sub s.assign 0 nvars)))
        done;
        match !answer with Some r -> (r, s) | None -> assert false
      end

let stats_of s =
  {
    conflicts = s.n_conflicts;
    decisions = s.n_decisions;
    propagations = s.n_props;
  }

(* Every solve reports its effort into the ambient trace's counter
   registry (no-op when tracing is off), so the flow's per-task counters
   see all SAT work — CEC miters and sweeping merge proofs alike. *)
let emit_stats st =
  Vpga_obs.Trace.emit "sat.solves" 1.0;
  Vpga_obs.Trace.emit "sat.conflicts" (float_of_int st.conflicts);
  Vpga_obs.Trace.emit "sat.decisions" (float_of_int st.decisions);
  Vpga_obs.Trace.emit "sat.propagations" (float_of_int st.propagations);
  (* Conflict-rate series: one sample per solve, so a verify stage's
     hardness profile over time is visible, not just its total. *)
  Vpga_obs.Trace.emit_sample "sat.conflicts_per_solve"
    (float_of_int st.conflicts)

let solve_stats ?max_conflicts ~nvars clauses =
  let r, s = solve_counted ?max_conflicts ~nvars clauses in
  let st = stats_of s in
  emit_stats st;
  (r, st)

let solve ?max_conflicts ~nvars clauses =
  fst (solve_stats ?max_conflicts ~nvars clauses)

(* Convenience for tests: check a full assignment against a CNF. *)
let satisfies assignment clauses =
  List.for_all
    (fun c ->
      Array.exists
        (fun l -> assignment.(var l) <> (l land 1 = 1))
        c)
    clauses
