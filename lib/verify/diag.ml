(* Structured diagnostics shared by every verification pass: lint, formal
   equivalence, and the physical invariant checkers.  A diagnostic carries a
   severity, a stable machine-readable code (for tests and tooling), the
   offending node ids (netlist ids, tile indices, or net indices depending on
   the pass), and a human-readable message. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string; (* stable kebab-case identifier, e.g. "comb-loop" *)
  message : string;
  nodes : int list; (* provenance: ids in the checked structure *)
}

let make ?(nodes = []) severity code message = { severity; code; message; nodes }

let error ?nodes code fmt =
  Format.kasprintf (fun m -> make ?nodes Error code m) fmt

let warning ?nodes code fmt =
  Format.kasprintf (fun m -> make ?nodes Warning code m) fmt

let info ?nodes code fmt = Format.kasprintf (fun m -> make ?nodes Info code m) fmt

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let is_error d = d.severity = Error

let errors ds = List.filter is_error ds
let has_errors ds = List.exists is_error ds

let by_code code ds = List.filter (fun d -> d.code = code) ds
let has_code code ds = List.exists (fun d -> d.code = code) ds

(* Errors first, then warnings, then infos; stable within a severity. *)
let sort ds =
  let rank d =
    match d.severity with Error -> 0 | Warning -> 1 | Info -> 2
  in
  List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) ds

let to_string d =
  let nodes =
    match d.nodes with
    | [] -> ""
    | ns ->
        Printf.sprintf " [%s]"
          (String.concat "," (List.map string_of_int ns))
  in
  Printf.sprintf "%s(%s): %s%s" (severity_name d.severity) d.code d.message
    nodes

let pp ppf d = Format.pp_print_string ppf (to_string d)

let pp_report ppf ds =
  let ds = sort ds in
  List.iter (fun d -> Format.fprintf ppf "%a@." pp d) ds;
  let n sev = List.length (List.filter (fun d -> d.severity = sev) ds) in
  Format.fprintf ppf "%d error(s), %d warning(s), %d info(s)@." (n Error)
    (n Warning) (n Info)
