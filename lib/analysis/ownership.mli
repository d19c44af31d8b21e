(** Static region-ownership proof for region-parallel refinement.

    Proves, on a concrete {!Vpga_pack.Quadrisect.t} and region grid, that
    the region decomposition is race-free by construction: the
    [region_bounds] rectangles tile the die exactly, [region_of_tile]
    agrees with rectangle membership, every packed node's tile is on the
    die, and the clamped move generation used by [Refine] cannot reach a
    tile owned by another region.  Any violation is reported as an
    [Error] diagnostic — it would be a latent data race in the parallel
    walks. *)

type result = {
  diags : Vpga_verify.Diag.t list;
  checks : int;  (** elementary assertions evaluated *)
}

val check : regions:int -> Vpga_pack.Quadrisect.t -> result
(** [check ~regions q] verifies the ownership contract for a [regions] x
    [regions] grid over [q].  Closure is checked for moves of up to
    {!Vpga_pack.Refine.radius} tiles, the bound [Refine.run] draws from. *)
