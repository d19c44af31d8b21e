(** K-feasible cut enumeration with cut functions (priority cuts).

    A cut of node [n] is a set of at most [k] nodes ("leaves") such that
    every path from a PI to [n] passes through a leaf; its function is the
    truth table of [n] over the leaves.  These are the "supernodes
    corresponding to functions with 3 or less inputs" of the paper's
    compaction step. *)

type t = {
  leaves : int array;  (** AIG node ids, ascending *)
  tt : Vpga_logic.Bfun.t;  (** function of the node over the leaves *)
}

val trivial : int -> t
(** The singleton cut of a node (identity function). *)

val enumerate : Aig.t -> k:int -> max_cuts:int -> t list array
(** [enumerate aig ~k ~max_cuts] returns, for every node id, its priority
    cuts: the trivial cut first, then at most [max_cuts] of the node's
    distinct merged cuts with at most [k] leaves, {e largest first}.  A
    node's merged cuts are found by pairing each cut of its first fanin, in
    list order, with each cut of its second; a leaf set found twice keeps
    its first pair.  Among cuts of equal size the most recently found comes
    first.  PIs and the constant node get only their trivial cut.
    @raise Invalid_argument if [max_cuts < 0]. *)

val leaf_count : t -> int
