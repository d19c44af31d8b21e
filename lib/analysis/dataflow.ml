(* Tarjan's strongly-connected components, iterative (explicit DFS stack)
   so deep graphs cannot overflow the OCaml stack.  Returns only the
   cyclic components: size > 1, or a single node with a self-edge.  This
   is the traversal Lint's combinational-loop detection has always used,
   lifted out so every pass shares it. *)
let cyclic_sccs ~n ~succ =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let sccs = ref [] in
  let visit root =
    (* Explicit DFS stack: (node, successors, next successor position). *)
    let work = ref [] in
    let push v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack := v :: !stack;
      on_stack.(v) <- true;
      work := (v, succ v, ref 0) :: !work
    in
    push root;
    while !work <> [] do
      match !work with
      | [] -> ()
      | (v, fis, pos) :: rest ->
          if !pos < Array.length fis then begin
            let w = fis.(!pos) in
            incr pos;
            if index.(w) < 0 then push w
            else if on_stack.(w) then
              lowlink.(v) <- min lowlink.(v) index.(w)
          end
          else begin
            work := rest;
            (match rest with
            | (parent, _, _) :: _ ->
                lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
            | [] -> ());
            if lowlink.(v) = index.(v) then begin
              let rec pop acc =
                match !stack with
                | [] -> acc
                | w :: tl ->
                    stack := tl;
                    on_stack.(w) <- false;
                    if w = v then w :: acc else pop (w :: acc)
              in
              let comp = pop [] in
              let cyclic =
                match comp with
                | [ w ] -> Array.exists (fun f -> f = w) (succ w)
                | _ -> List.length comp > 1
              in
              if cyclic then sccs := comp :: !sccs
            end
          end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  List.rev !sccs

let reachable ~n ~roots ~next =
  let seen = Array.make n false in
  let work = ref roots in
  while !work <> [] do
    match !work with
    | [] -> ()
    | i :: rest ->
        work := rest;
        if not seen.(i) then begin
          seen.(i) <- true;
          Array.iter
            (fun j -> if j >= 0 && j < n && not seen.(j) then work := j :: !work)
            (next i)
        end
  done;
  seen
