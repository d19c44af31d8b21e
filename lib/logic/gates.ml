let xor2 = Bfun.make ~arity:2 0b0110
let xnor2 = Bfun.make ~arity:2 0b1001

let is_xor_type f = Bfun.equal f xor2 || Bfun.equal f xnor2

let nd2wi_feasible f =
  if Bfun.arity f <> 2 then invalid_arg "Gates.nd2wi_feasible: arity must be 2";
  not (is_xor_type f)

let nd2wi_strict f =
  if Bfun.arity f <> 2 then invalid_arg "Gates.nd2wi_strict: arity must be 2";
  let p = Bfun.popcount f in
  p = 1 || p = 3

(* Arity-generic: exactly one satisfied or one unsatisfied minterm (a
   single product or sum term in some polarity). *)
let and_type f =
  let p = Bfun.popcount f in
  let n = 1 lsl Bfun.arity f in
  p = 1 || p = n - 1

(* Shrink a function to the variables it depends on. *)
let project_to_support f =
  let rec go f =
    match List.find_opt (fun i -> not (Bfun.depends_on f i)) (List.init (Bfun.arity f) Fun.id) with
    | None -> f
    | Some i -> go (Bfun.cofactor f ~var:i false)
  in
  go f

let nd3wi_feasible f =
  if Bfun.arity f <> 3 then invalid_arg "Gates.nd3wi_feasible: arity must be 3";
  let g = project_to_support f in
  Bfun.is_const g || Bfun.is_literal g || and_type g

let source_tables = [| 0x00; 0xFF; 0xAA; 0xCC; 0xF0; 0x55; 0x33; 0x0F |]

let mark_mux_tables marks pins =
  let n = Array.length pins in
  for a = 0 to n - 1 do
    let sel = pins.(a) in
    for b = 0 to n - 1 do
      (* mux(sel; d0, d1) = sel & d1 | ~sel & d0, the d0 half hoisted *)
      let lo = (sel lxor 0xFF) land pins.(b) in
      for c = 0 to n - 1 do
        Bytes.set marks ((sel land pins.(c)) lor lo) '\001'
      done
    done
  done

(* All tables reachable by one 2:1 MUX whose pins are driven by (possibly
   inverted) inputs or constants. *)
let mux_tables =
  lazy
    (let marks = Bytes.make 256 '\000' in
     mark_mux_tables marks source_tables;
     marks)

let mux_feasible f =
  if Bfun.arity f <> 3 then invalid_arg "Gates.mux_feasible: arity must be 3";
  Bytes.get (Lazy.force mux_tables) (Bfun.table f) <> '\000'
