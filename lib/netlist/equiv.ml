type verdict =
  | Equivalent
  | Mismatch of { cycle : int; output : int; vectors : bool array list }

let same_interface a b =
  List.length (Netlist.inputs a) = List.length (Netlist.inputs b)
  && List.length (Netlist.outputs a) = List.length (Netlist.outputs b)

(* Lanes [0 .. width-1] of a word. *)
let lane_mask width = -1 lsr (Sys.int_size - width)

let lowest_lane w =
  let rec go l = if (w lsr l) land 1 = 1 then l else go (l + 1) in
  go 0

let bits_of_lane words l = Array.map (fun w -> (w lsr l) land 1 = 1) words

(* Sequence [v] of the draw is lane [v - v0] of batch [v0].  The bits are
   drawn sequence by sequence, cycle by cycle, input by input: the order a
   one-sequence-at-a-time checker draws them in, so the verdict does not
   depend on the batch width. *)
let check ?(vectors = 64) ?(sequence_length = 8) ~seed a b =
  if not (same_interface a b) then
    invalid_arg "Equiv.check: interface mismatch";
  let rng = Random.State.make [| seed |] in
  let npi = List.length (Netlist.inputs a) in
  let npo = List.length (Netlist.outputs a) in
  let sima = Simulate.create a and simb = Simulate.create b in
  let pi = Array.make_matrix sequence_length npi 0 in
  (* Per lane: cycle and output of its first mismatch. *)
  let fail_cycle = Array.make Simulate.lanes 0 in
  let fail_output = Array.make Simulate.lanes 0 in
  let rec batch v0 =
    if v0 >= vectors then Equivalent
    else begin
      let width = min Simulate.lanes (vectors - v0) in
      Array.iter (fun row -> Array.fill row 0 npi 0) pi;
      for l = 0 to width - 1 do
        for c = 0 to sequence_length - 1 do
          for i = 0 to npi - 1 do
            if Random.State.bool rng then pi.(c).(i) <- pi.(c).(i) lor (1 lsl l)
          done
        done
      done;
      Simulate.reset sima;
      Simulate.reset simb;
      let live = lane_mask width and failed = ref 0 in
      for c = 0 to sequence_length - 1 do
        Simulate.step_words sima pi.(c);
        Simulate.step_words simb pi.(c);
        for k = 0 to npo - 1 do
          let fresh =
            (Simulate.output_word sima k lxor Simulate.output_word simb k)
            land live land lnot !failed
          in
          if fresh <> 0 then begin
            for l = 0 to width - 1 do
              if (fresh lsr l) land 1 = 1 then begin
                fail_cycle.(l) <- c;
                fail_output.(l) <- k
              end
            done;
            failed := !failed lor fresh
          end
        done
      done;
      if !failed = 0 then batch (v0 + width)
      else
        let l = lowest_lane !failed in
        let cycle = fail_cycle.(l) in
        Mismatch
          {
            cycle;
            output = fail_output.(l);
            vectors = List.init (cycle + 1) (fun c -> bits_of_lane pi.(c) l);
          }
    end
  in
  batch 0

(* Minterm [m0 + l] is lane [l] of the word starting at [m0]. *)
let check_exhaustive a b =
  if not (same_interface a b) then
    invalid_arg "Equiv.check_exhaustive: interface mismatch";
  let npi = List.length (Netlist.inputs a) in
  if npi > 16 then invalid_arg "Equiv.check_exhaustive: too many inputs";
  let npo = List.length (Netlist.outputs a) in
  let sima = Simulate.create a and simb = Simulate.create b in
  let pi = Array.make npi 0 in
  let total = 1 lsl npi in
  let diff k = Simulate.output_word sima k lxor Simulate.output_word simb k in
  let rec go m0 =
    if m0 >= total then Equivalent
    else begin
      let width = min Simulate.lanes (total - m0) in
      for i = 0 to npi - 1 do
        let w = ref 0 in
        for l = 0 to width - 1 do
          w := !w lor ((((m0 + l) lsr i) land 1) lsl l)
        done;
        pi.(i) <- !w
      done;
      Simulate.eval_words sima pi;
      Simulate.eval_words simb pi;
      let failed = ref 0 in
      for k = 0 to npo - 1 do failed := !failed lor diff k done;
      let failed = !failed land lane_mask width in
      if failed = 0 then go (m0 + width)
      else
        let l = lowest_lane failed in
        let rec first k = if (diff k lsr l) land 1 = 1 then k else first (k + 1) in
        Mismatch { cycle = 0; output = first 0; vectors = [ bits_of_lane pi l ] }
    end
  in
  go 0
