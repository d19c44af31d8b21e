(** The graph traversals every static pass shares.

    This is the traversal code {!Vpga_verify.Lint} historically owned, made
    generic so lint and the analysis passes report identical provenance. *)

val cyclic_sccs : n:int -> succ:(int -> int array) -> int list list
(** Tarjan's strongly-connected components over nodes [0 .. n-1] with
    successor function [succ], iterative so deep graphs cannot overflow
    the stack.  Returns only the {e cyclic} components — size > 1, or a
    single node with a self-edge — in the order Tarjan completes them,
    each component in completion order. *)

val reachable : n:int -> roots:int list -> next:(int -> int array) -> bool array
(** Nodes reachable from [roots] following [next]; ids outside
    [0 .. n-1] returned by [next] are ignored (dangling pins). *)
