module Aig = Vpga_aig.Aig
module Maxflow = Vpga_maxflow.Maxflow

(* Labeling arena: epoch-stamped cone membership / flow-network indexing
   scratch plus one Dinic network, all sized once per AIG and reused for
   every per-node cut decision instead of allocating a fresh [Hashtbl]
   and network per node. *)
type arena = {
  aig : Aig.t;
  k : int;
  stamp : int array; (* cone membership, valid when equal to [epoch] *)
  index : int array; (* flow-network index of a non-collapsed cone node *)
  order : int array; (* cone members in discovery order *)
  mutable n_cone : int;
  mutable epoch : int;
  net : Maxflow.t;
  mutable maxflow_calls : int;
}

let arena aig ~k =
  let n = Aig.size aig in
  {
    aig;
    k;
    stamp = Array.make (max 1 n) 0;
    index = Array.make (max 1 n) (-1);
    order = Array.make (max 1 n) 0;
    n_cone = 0;
    epoch = 0;
    net = Maxflow.create 2;
    maxflow_calls = 0;
  }

(* Transitive fanin cone of [t] (including [t], PIs and const) into
   [a.order.(0 .. a.n_cone - 1)]. *)
let rec collect a id =
  if a.stamp.(id) <> a.epoch then begin
    a.stamp.(id) <- a.epoch;
    a.order.(a.n_cone) <- id;
    a.n_cone <- a.n_cone + 1;
    if (not (Aig.is_pi a.aig id)) && not (Aig.is_const id) then begin
      let l0, l1 = Aig.fanins a.aig id in
      collect a (Aig.node_of l0);
      collect a (Aig.node_of l1)
    end
  end

(* Does node [t] admit a k-feasible cut all of whose leaves have labels < p,
   where p is the max fanin label?  Decided by max-flow on the node-split
   cone with label-p nodes collapsed into the sink. *)
let decide a t labels =
  let aig = a.aig in
  let l0, l1 = Aig.fanins aig t in
  let p = max labels.(Aig.node_of l0) labels.(Aig.node_of l1) in
  if p = 0 then
    (* Every source of the cone carries label 0 = p and would be collapsed
       into the sink, making it inseparable from the source: no cut of
       height p - 1 exists.  (This is the common case for nodes directly
       above the PIs; skipping the flow solve preserves the result.) *)
    false
  else begin
    a.epoch <- a.epoch + 1;
    a.n_cone <- 0;
    collect a t;
    let collapsed id = id = t || labels.(id) = p in
    (* Assign flow-network indices to non-collapsed cone nodes. *)
    let n_split = ref 0 in
    for i = 0 to a.n_cone - 1 do
      let id = a.order.(i) in
      if collapsed id then a.index.(id) <- -1
      else begin
        a.index.(id) <- !n_split;
        incr n_split
      end
    done;
    let source = 0 and sink = 1 in
    let v_in id = 2 + (2 * a.index.(id)) in
    let v_out id = 3 + (2 * a.index.(id)) in
    let net = a.net in
    Maxflow.reset net (2 + (2 * !n_split));
    let inf = Maxflow.infinity in
    let infeasible = ref false in
    for i = 0 to a.n_cone - 1 do
      let id = a.order.(i) in
      let c = collapsed id in
      (* Node capacity. *)
      if not c then Maxflow.add_edge net ~src:(v_in id) ~dst:(v_out id) ~cap:1;
      if Aig.is_pi aig id || Aig.is_const id then begin
        (* Source feeds the cone's own sources (PIs / const). *)
        if c then infeasible := true
        else Maxflow.add_edge net ~src:source ~dst:(v_in id) ~cap:inf
      end
      else begin
        (* Internal edges. *)
        let f0, f1 = Aig.fanins aig id in
        let connect src_id =
          if not (collapsed src_id) then
            Maxflow.add_edge net ~src:(v_out src_id)
              ~dst:(if c then sink else v_in id)
              ~cap:inf
        in
        connect (Aig.node_of f0);
        connect (Aig.node_of f1)
      end
    done;
    if !infeasible then false
    else begin
      a.maxflow_calls <- a.maxflow_calls + 1;
      Maxflow.max_flow ~limit:a.k net ~source ~sink <= a.k
    end
  end

let min_height_cut_exists aig ~k t labels = decide (arena aig ~k) t labels

let label_node a labels id =
  let l0, l1 = Aig.fanins a.aig id in
  let p = max labels.(Aig.node_of l0) labels.(Aig.node_of l1) in
  if decide a id labels then p else p + 1

let labels aig ~k =
  let a = arena aig ~k in
  let labels = Array.make (Aig.size aig) 0 in
  for id = 1 to Aig.size aig - 1 do
    if not (Aig.is_pi aig id) then labels.(id) <- label_node a labels id
  done;
  Vpga_obs.Trace.emit "flowmap.maxflow_calls" (float_of_int a.maxflow_calls);
  labels

let depth aig ~k = Array.fold_left max 0 (labels aig ~k)
