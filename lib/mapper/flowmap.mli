(** Exact FlowMap labeling (Cong & Ding) via max-flow min-cut — the
    "maxflow-mincut algorithm similar to Flowmap" the paper's compaction is
    built on.

    [label v] is the depth of a depth-optimal k-feasible-cut cover at node
    [v]; a node's label exceeds the max fanin label only when no k-feasible
    cut of that height exists, decided by a unit-node-capacity max-flow
    computation on the collapsed fanin cone.

    Per-node decisions run on a reused arena (stamp-array cone collection
    plus one {!Vpga_maxflow.Maxflow} network rewound per node), and emit
    the ambient counter [flowmap.maxflow_calls].

    Exact labeling is quadratic; use it on blocks up to a few thousand AND
    nodes (the production cover in {!Compact} uses priority cuts instead,
    which this module's tests cross-validate). *)

val labels : Vpga_aig.Aig.t -> k:int -> int array
(** Per-node FlowMap label; PIs and the constant are 0. *)

val depth : Vpga_aig.Aig.t -> k:int -> int
(** Maximum label = depth of the depth-optimal k-LUT mapping. *)

val min_height_cut_exists : Vpga_aig.Aig.t -> k:int -> int -> int array -> bool
(** [min_height_cut_exists aig ~k v labels] decides, via max-flow, whether
    node [v] has a k-feasible cut all of whose leaves have labels strictly
    below the maximum fanin label (exposed for testing). *)
