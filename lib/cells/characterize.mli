(** Logical-effort characterization of the component cells — the substitute
    for the paper's CellRater step ("Cell Characterization" in Figure 6).

    Each cell template is described by its logical effort [g] (input cap
    relative to an inverter delivering the same drive), parasitic delay [p]
    (in units of the technology time constant [tau] = 14 ps, a ~180nm-class
    value; see DESIGN.md on absolute-number calibration), a drive multiple
    [x], and its layout footprint.  Characterization turns templates into
    {!Cell.t} records with absolute ps/fF/um^2 values, where [cin_unit] =
    2 fF is the input capacitance of a unit inverter:

    - input capacitance: [g * x * cin_unit]
    - drive resistance: [tau / (x * cin_unit)]
    - intrinsic delay: [p * tau] *)

type template = {
  t_name : string;
  logical_effort : float;
  parasitic : float;
  drive : float;  (** sizing multiple relative to a unit inverter *)
  t_area : float;
  t_via_sites : int;
  t_sequential : Cell.seq option;
}

val characterize : template -> Cell.t

val templates : template list
(** Templates for every component cell used by either PLB architecture:
    inv, buf, nd2wi, nd3wi, mux2, xoa, lut3, dff. *)

val find : string -> Cell.t
(** @raise Not_found for an unknown cell name. *)

val fo4 : Cell.t -> float
(** Fan-out-of-4 delay of a cell: a characterization sanity metric. *)
