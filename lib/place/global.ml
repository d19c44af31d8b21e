(* A region of at most this many cells stops splitting and is spread. *)
let min_bin = 8

let place ~seed pl =
  let g = pl.Placement.graph in
  let n = Hypergraph.num_vertices g in
  let rng = Random.State.make [| seed |] in
  (* Scratch: global vertex id -> local index in the current region, and
     per net of the region its member count (first in the region, then on
     the left) and its count on the right. *)
  let local = Array.make n (-1) in
  let n_all = Hypergraph.num_nets g in
  let lcount = Array.make n_all 0 and rcount = Array.make n_all 0 in
  let spread vertices x0 y0 x1 y1 =
    Array.iter
      (fun v ->
        let id = g.Hypergraph.node_of_vertex.(v) in
        pl.Placement.x.(id) <- x0 +. Random.State.float rng (max 1e-6 (x1 -. x0));
        pl.Placement.y.(id) <- y0 +. Random.State.float rng (max 1e-6 (y1 -. y0)))
      vertices
  in
  (* The [count] members of [net] that FM put on side [want], in reverse
     order, as global ids. *)
  let reversed_members net (side : bool array) want count =
    let out = Array.make count 0 in
    let k = ref count in
    for i = 0 to Array.length net - 1 do
      let v = net.(i) in
      let l = local.(v) in
      if l >= 0 && side.(l) = want then begin
        decr k;
        out.(!k) <- v
      end
    done;
    out
  in
  (* [vertices] and [nets] use global vertex ids; nets are pre-filtered to
     this region, so total work is O(net size * depth).  A child region
     gets its vertices and its nets in reverse order, each net's members
     reversed too. *)
  let rec split vertices nets x0 y0 x1 y1 vertical =
    let k = Array.length vertices in
    if k = 0 then ()
    else if k <= min_bin then spread vertices x0 y0 x1 y1
    else begin
      Array.iteri (fun i v -> local.(v) <- i) vertices;
      (* FM's nets: those with two or more region members, as local
         indices in net order. *)
      let n_nets = Array.length nets in
      let n_sub = ref 0 in
      for j = 0 to n_nets - 1 do
        let net = nets.(j) in
        let c = ref 0 in
        for i = 0 to Array.length net - 1 do
          if local.(net.(i)) >= 0 then incr c
        done;
        lcount.(j) <- !c;
        if !c >= 2 then incr n_sub
      done;
      let sub_nets = Array.make !n_sub [||] in
      let s = ref 0 in
      for j = 0 to n_nets - 1 do
        if lcount.(j) >= 2 then begin
          let net = nets.(j) in
          let ms = Array.make lcount.(j) 0 in
          let m = ref 0 in
          for i = 0 to Array.length net - 1 do
            let l = local.(net.(i)) in
            if l >= 0 then begin
              ms.(!m) <- l;
              incr m
            end
          done;
          sub_nets.(!s) <- ms;
          incr s
        end
      done;
      let areas = Array.map (fun v -> g.Hypergraph.vertex_area.(v)) vertices in
      let r =
        Fm.run ~seed:(Random.State.int rng 0x3FFFFFFF) ~nets:sub_nets ~areas k
      in
      let side = r.Fm.side in
      let n_right = Array.fold_left (fun c s -> if s then c + 1 else c) 0 side in
      if n_right = 0 || n_right = k then begin
        (* FM left one side empty (a cell outweighing the balance slack can
           make that the zero-cut optimum): splitting again would see the
           same cells, so the region is a leaf bin. *)
        Array.iter (fun v -> local.(v) <- -1) vertices;
        spread vertices x0 y0 x1 y1
      end
      else begin
        let left = Array.make (k - n_right) 0 and right = Array.make n_right 0 in
        let nl = ref (k - n_right) and nr = ref n_right in
        for i = 0 to k - 1 do
          if side.(i) then begin
            decr nr;
            right.(!nr) <- vertices.(i)
          end
          else begin
            decr nl;
            left.(!nl) <- vertices.(i)
          end
        done;
        (* Per side, the nets keeping two or more members there. *)
        let n_left_nets = ref 0 and n_right_nets = ref 0 in
        for j = 0 to n_nets - 1 do
          let net = nets.(j) in
          let lc = ref 0 and rc = ref 0 in
          for i = 0 to Array.length net - 1 do
            let l = local.(net.(i)) in
            if l >= 0 then if side.(l) then incr rc else incr lc
          done;
          lcount.(j) <- !lc;
          rcount.(j) <- !rc;
          if !lc >= 2 then incr n_left_nets;
          if !rc >= 2 then incr n_right_nets
        done;
        let left_nets = Array.make !n_left_nets [||] in
        let right_nets = Array.make !n_right_nets [||] in
        for j = 0 to n_nets - 1 do
          if lcount.(j) >= 2 then begin
            decr n_left_nets;
            left_nets.(!n_left_nets) <-
              reversed_members nets.(j) side false lcount.(j)
          end;
          if rcount.(j) >= 2 then begin
            decr n_right_nets;
            right_nets.(!n_right_nets) <-
              reversed_members nets.(j) side true rcount.(j)
          end
        done;
        (* Clear scratch before recursing (the children reuse it). *)
        Array.iter (fun v -> local.(v) <- -1) vertices;
        if vertical then begin
          let xm = (x0 +. x1) /. 2.0 in
          split left left_nets x0 y0 xm y1 false;
          split right right_nets xm y0 x1 y1 false
        end
        else begin
          let ym = (y0 +. y1) /. 2.0 in
          split left left_nets x0 y0 x1 ym true;
          split right right_nets x0 ym x1 y1 true
        end
      end
    end
  in
  split (Array.init n Fun.id) g.Hypergraph.nets 0.0 0.0 pl.Placement.die_w
    pl.Placement.die_h true
