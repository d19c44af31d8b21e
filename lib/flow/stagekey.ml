(* One place that decides, per flow stage, which inputs reach the cache
   key.  Every builder destructures the full {!options} record — field
   punning with no wildcard — so adding a result-affecting option breaks
   every builder here until someone routes the new field into (or
   deliberately out of) each stage's digest.  Warning 9 is fatal under
   the dev profile, which is what makes the destructure load-bearing. *)

module E = Vpga_cache.Enc
module Key = Vpga_cache.Key
module Policy = Vpga_resil.Policy
module Defect = Vpga_resil.Defect
module Placement = Vpga_place.Placement
module Quadrisect = Vpga_pack.Quadrisect

type options = {
  seed : int;
  anneal_iterations : int option;
  use_criticality : bool;
  verify : int;
  policy : Policy.t;
  defect : Defect.t option;
}

(* Exhaustive over {!Policy.t}: a new knob cannot ship without being fed
   here (or explicitly bound away), so policy-sensitive stages never hit
   on entries computed under a different ladder. *)
let policy e (p : Policy.t) =
  let { Policy.max_attempts; route_capacity; anneal_t_start; anneal_cooling } =
    p
  in
  E.int e max_attempts;
  E.opt E.int e route_capacity;
  E.opt E.float e anneal_t_start;
  E.float e anneal_cooling

(* Exhaustive over {!Defect.t}: the full map content, not a summary —
   two maps drawn from different seeds must never collide. *)
let defect e (d : Defect.t) =
  let { Defect.seed; dist; dead_tiles; dead_edges; derated } = d in
  E.int e seed;
  E.int e (match dist with Defect.Uniform -> 0 | Defect.Clustered -> 1);
  E.int e (Array.length dead_tiles);
  Array.iter
    (fun (x, y) ->
      E.float e x;
      E.float e y)
    dead_tiles;
  E.int e (Array.length dead_edges);
  Array.iter
    (fun (x, y, vertical) ->
      E.float e x;
      E.float e y;
      E.bool e vertical)
    dead_edges;
  E.int e (Array.length derated);
  Array.iter
    (fun (x0, y0, x1, y1, keep) ->
      E.float e x0;
      E.float e y0;
      E.float e x1;
      E.float e y1;
      E.float e keep)
    derated

let opt_defect e d = E.opt defect e d

(* --- artifact digests (inputs that are earlier stages' outputs) ------- *)

let placement_hex (pl : Placement.t) =
  let e = E.create () in
  E.float e pl.Placement.die_w;
  E.float e pl.Placement.die_h;
  E.float_array e pl.Placement.x;
  E.float_array e pl.Placement.y;
  E.digest_hex e

let quad_hex (q : Quadrisect.t) =
  let e = E.create () in
  E.int e q.Quadrisect.cols;
  E.int e q.Quadrisect.rows;
  E.int_array e q.Quadrisect.tile_of_node;
  E.digest_hex e

(* --- per-stage keys (each stage's value type: see stagekey.mli) ------ *)

let map ~nl ~arch o =
  let {
    seed = _;
    anneal_iterations = _;
    use_criticality = _;
    verify = _;
    policy = _;
    defect = _;
  } =
    o
  in
  Key.make ~stage:"map" (fun e ->
      E.str e nl;
      E.str e arch)

let compact ~nl ~arch o =
  let {
    seed = _;
    anneal_iterations = _;
    use_criticality = _;
    verify = _;
    policy = _;
    defect = _;
  } =
    o
  in
  Key.make ~stage:"compact" (fun e ->
      E.str e nl;
      E.str e arch)

let buffer ~compacted ~max_fanout o =
  let {
    seed = _;
    anneal_iterations = _;
    use_criticality = _;
    verify = _;
    policy = _;
    defect = _;
  } =
    o
  in
  Key.make ~stage:"buffer" (fun e ->
      E.str e compacted;
      E.int e max_fanout)

(* A gate's verdict depends on its two endpoints and the verify level
   alone — no retry ladder runs inside it — so every policy shares the
   entry. *)
let verify_gate ~stage ~source ~candidate o =
  let {
    seed = _;
    anneal_iterations = _;
    use_criticality = _;
    verify;
    policy = _;
    defect = _;
  } =
    o
  in
  Key.make ~stage (fun e ->
      E.str e source;
      E.str e candidate;
      E.int e verify)

(* No defect feed: the healthy front-end is shared across defect maps —
   the property the stress sweep's compute-once-per-(design, arch)
   invariant rests on. *)
let place_global ~buffered o =
  let {
    seed;
    anneal_iterations = _;
    use_criticality = _;
    verify = _;
    policy = _;
    defect = _;
  } =
    o
  in
  Key.make ~stage:"place:global" (fun e ->
      E.str e buffered;
      E.int e seed)

let place_anneal ~buffered ~pl o =
  let {
    seed;
    anneal_iterations;
    use_criticality;
    verify = _;
    policy = p;
    defect = _;
  } =
    o
  in
  Key.make ~stage:"place:anneal" (fun e ->
      E.str e buffered;
      E.str e pl;
      E.int e seed;
      E.opt E.int e anneal_iterations;
      E.bool e use_criticality;
      policy e p)

let activities ~buffered o =
  let {
    seed;
    anneal_iterations = _;
    use_criticality = _;
    verify = _;
    policy = _;
    defect = _;
  } =
    o
  in
  Key.make ~stage:"power:activities" (fun e ->
      E.str e buffered;
      E.int e seed)

(* Covers the whole escalation ladder including the embedded detailed
   routing and its verify:tracks gate, hence policy + verify.  No defect
   feed here or in the other flow-only stages ([pack:quadrisect],
   [pack:refine]): {!Flow.run} always runs the healthy fabric. *)
let route ~tag ~buffered ~pl o =
  let {
    seed = _;
    anneal_iterations = _;
    use_criticality = _;
    verify;
    policy = p;
    defect = _;
  } =
    o
  in
  Key.make ~stage:("route:" ^ tag) (fun e ->
      E.str e buffered;
      E.str e pl;
      E.int e verify;
      policy e p)

(* Legalization escalates only through its own array growth — no retry
   ladder runs inside it — so, like the gates, every policy shares the
   entry. *)
let quadrisect ~arch ~buffered ~pl o =
  let {
    seed = _;
    anneal_iterations = _;
    use_criticality;
    verify = _;
    policy = _;
    defect = _;
  } =
    o
  in
  Key.make ~stage:"pack:quadrisect" (fun e ->
      E.str e arch;
      E.str e buffered;
      E.str e pl;
      E.bool e use_criticality)

let refine ~buffered ~q o =
  let {
    seed;
    anneal_iterations = _;
    use_criticality;
    verify = _;
    policy = _;
    defect = _;
  } =
    o
  in
  Key.make ~stage:"pack:refine" (fun e ->
      E.str e buffered;
      E.str e q;
      E.int e seed;
      E.bool e use_criticality)

(* Minchan's criticality-free legalization: distinct stage (distinct
   compute, distinct value provenance) even though it shares the
   Quadrisect.t value shape. *)
let stress_pack ~arch ~buffered ~pl o =
  let {
    seed = _;
    anneal_iterations = _;
    use_criticality = _;
    verify = _;
    policy = _;
    defect = d;
  } =
    o
  in
  Key.make ~stage:"stress:pack" (fun e ->
      E.str e arch;
      E.str e buffered;
      E.str e pl;
      opt_defect e d)

let minchan_probe ~plb ~w ~max_iterations o =
  let {
    seed = _;
    anneal_iterations = _;
    use_criticality = _;
    verify = _;
    policy = _;
    defect = d;
  } =
    o
  in
  Key.make ~stage:"minchan:probe" (fun e ->
      E.str e plb;
      E.int e w;
      E.int e max_iterations;
      opt_defect e d)
