type t = {
  grid : Grid.t;
  track : (int * int, int) Hashtbl.t;
  net_vias : int array;
  total_vias : int;
  max_track : int;
}

exception Over_capacity of string

(* Raises [Over_capacity] when an edge holds more nets than tracks.

   Occupancy is a byte per (edge, track), indexed [e * stride + t] with
   [stride] above every usable track index.  [owner.(e) = net] marks the
   edges the current net has been assigned so far, and [net_track.(e)]
   holds that net's (latest) track on [e]: the lookups that used to go
   through [(edge, net)] keys.  [counted.(e) = net] once the via count
   has visited [e].  Two distinct grid edges share at most one bin, so
   the net's vias are the pairs of its distinct edges that meet at a bin
   and change direction or track. *)
let assign grid routes =
  let n_edges = Array.length grid.Grid.tracks in
  let stride =
    Array.fold_left
      (fun m tr ->
        let n = Array.length tr in
        if n = 0 then m else max m (tr.(n - 1) + 1))
      (max 1 grid.Grid.capacity) grid.Grid.tracks
  in
  let occupied = Bytes.make (n_edges * stride) '\000' in
  let owner = Array.make n_edges (-1) in
  let net_track = Array.make n_edges 0 in
  let counted = Array.make n_edges (-1) in
  let track = Hashtbl.create 1024 in
  let n_nets = List.length routes in
  let net_vias = Array.make n_nets 0 in
  let max_track = ref 0 in
  List.iteri
    (fun net rt ->
      let edges = rt.Router.edges in
      (* Assign in list order (back-traced tree order keeps runs together):
         prefer the track of an already-assigned collinear neighbour.
         Each end bin of [e] has one collinear edge besides [e], so the
         candidates are at most [a]'s then [b]'s, whatever order
         [Grid.iter_neighbors] visits a bin's edges in. *)
      List.iter
        (fun e ->
          let a, b = Grid.bins_of grid e in
          let h = Grid.horizontal grid e in
          let free t = Bytes.get occupied ((e * stride) + t) = '\000' in
          (* Only tracks listed usable on this edge are candidates: a
             preferred (continuation) track must survive the defect filter
             here too, and the fallback scan walks the edge's usable-track
             array, skipping dead tracks entirely. *)
          let chosen = ref (-1) in
          let prefer e' _ =
            if
              !chosen < 0 && e' <> e && owner.(e') = net
              && Grid.horizontal grid e' = h
            then
              let t = net_track.(e') in
              if free t && Grid.track_usable grid e t then chosen := t
          in
          Grid.iter_neighbors grid a prefer;
          Grid.iter_neighbors grid b prefer;
          let usable = grid.Grid.tracks.(e) in
          let n = Array.length usable in
          let i = ref 0 in
          while !chosen < 0 && !i < n do
            if free usable.(!i) then chosen := usable.(!i);
            incr i
          done;
          let t = !chosen in
          if t >= 0 then begin
            Bytes.set occupied ((e * stride) + t) '\001';
            owner.(e) <- net;
            net_track.(e) <- t;
            Hashtbl.replace track (e, net) t;
            if t > !max_track then max_track := t
          end
          else begin
            let ca, ra = Grid.coords grid a and cb, rb = Grid.coords grid b in
            let crossing =
              List.fold_left
                (fun acc rt ->
                  if List.mem e rt.Router.edges then acc + 1 else acc)
                0 routes
            in
            raise
              (Over_capacity
                 (Printf.sprintf
                    "edge %d between bins (%d,%d) and (%d,%d) over \
                     capacity: %d usable track(s), %d net(s) crossing"
                    e ca ra cb rb n crossing))
          end)
        edges;
      (* Count vias once per pair (e1 < e2), from each distinct edge's
         first occurrence. *)
      let vias = ref 0 in
      List.iter
        (fun e1 ->
          if counted.(e1) <> net then begin
            counted.(e1) <- net;
            let h1 = Grid.horizontal grid e1 and t1 = net_track.(e1) in
            let pair e2 _ =
              if
                e2 > e1 && owner.(e2) = net
                && (Grid.horizontal grid e2 <> h1 || net_track.(e2) <> t1)
              then incr vias
            in
            let a, b = Grid.bins_of grid e1 in
            Grid.iter_neighbors grid a pair;
            Grid.iter_neighbors grid b pair
          end)
        edges;
      net_vias.(net) <- !vias)
    routes;
  {
    grid;
    track;
    net_vias;
    total_vias = Array.fold_left ( + ) 0 net_vias;
    max_track = !max_track;
  }

let run_result grid routes =
  match assign grid routes with
  | t -> Ok t
  | exception Over_capacity msg -> Error msg

let run grid routes =
  match run_result grid routes with
  | Ok t -> t
  | Error msg -> failwith ("Detail.run: " ^ msg)
