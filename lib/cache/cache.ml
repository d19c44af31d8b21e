module Trace = Vpga_obs.Trace

(* Entry payloads are [Marshal]-encoded snapshots: [put] serializes
   immediately (so later in-place mutation of the stored artifact can
   never poison the entry) and every hit deserializes a fresh copy (so
   callers may freely mutate what they get back).  Type safety rests on
   the key discipline documented in {!Key}: one stage name, one value
   type, with {!Key.schema} bumped whenever a cached type changes. *)

type stage_stats = {
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_stores : int;
}

type live = {
  mutex : Mutex.t;
  mem : (string, bytes) Hashtbl.t;  (* Key.id -> payload *)
  dir : string option;  (* on-disk store root; entries under [schema] *)
  by_stage : (string, stage_stats) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable hit_bytes : int;
  mutable store_bytes : int;
}

type t = Disabled | Live of live

type stats = {
  hits : int;
  misses : int;
  stores : int;
  hit_bytes : int;
  store_bytes : int;
  mem_entries : int;
  mem_bytes : int;
  stages : (string * (int * int * int)) list;
}

let none = Disabled
let enabled = function Disabled -> false | Live _ -> true

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "vpga"
  | _ ->
      let home = Option.value ~default:"." (Sys.getenv_opt "HOME") in
      Filename.concat (Filename.concat home ".cache") "vpga"

let create ?dir () =
  Live
    {
      mutex = Mutex.create ();
      mem = Hashtbl.create 64;
      dir;
      by_stage = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      stores = 0;
      hit_bytes = 0;
      store_bytes = 0;
    }

let locked l f =
  Mutex.lock l.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock l.mutex) f

let stage_slot l stage =
  match Hashtbl.find_opt l.by_stage stage with
  | Some s -> s
  | None ->
      let s = { s_hits = 0; s_misses = 0; s_stores = 0 } in
      Hashtbl.add l.by_stage stage s;
      s

(* --- on-disk entries ---------------------------------------------------

   Layout: [dir]/[schema with '/' -> '-']/[stage]/[hex].  One file per
   entry: a magic line, the payload's MD5 (hex) and length, then the
   payload — so truncation and corruption are both detected on read and
   fall back to recompute.  Writes go through a unique temp file plus
   [rename], so concurrent writers of one key are safe (last rename
   wins, same content). *)

let magic = "VPGACACHE1\n"

let schema_dirname = String.map (fun c -> if c = '/' then '-' else c) Key.schema

let entry_path root k =
  Filename.concat
    (Filename.concat (Filename.concat root schema_dirname) (Key.stage k))
    (Key.hex k)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Some (really_input_string ic (in_channel_length ic))
          with End_of_file | Sys_error _ -> None)

let disk_read root k =
  let path = entry_path root k in
  match read_file path with
  | None -> None
  | Some raw ->
      let ok =
        let ml = String.length magic in
        if String.length raw < ml + 32 + 1 + 20 then None
        else if String.sub raw 0 ml <> magic then None
        else
          let hex = String.sub raw ml 32 in
          match String.index_from_opt raw (ml + 32) '\n' with
          | None -> None
          | Some nl -> (
              let len_s = String.sub raw (ml + 32) (nl - ml - 32) in
              match int_of_string_opt (String.trim len_s) with
              | None -> None
              | Some len ->
                  if String.length raw - nl - 1 <> len then None
                  else
                    let payload = String.sub raw (nl + 1) len in
                    if Digest.to_hex (Digest.string payload) <> hex then None
                    else Some (Bytes.of_string payload))
      in
      (match ok with
      | Some _ ->
          (* LRU bookkeeping for [gc]: bump both timestamps to now. *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ())
      | None ->
          (* Corrupted or truncated: heal by removal, caller recomputes. *)
          try Sys.remove path with Sys_error _ -> ());
      ok

let disk_write root k payload =
  let path = entry_path root k in
  try
    mkdir_p (Filename.dirname path);
    let tmp, oc =
      Filename.open_temp_file ~mode:[ Open_binary ]
        ~temp_dir:(Filename.dirname path) ".vpga" ".tmp"
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        output_string oc (Digest.to_hex (Digest.bytes payload));
        output_string oc (string_of_int (Bytes.length payload));
        output_char oc '\n';
        output_bytes oc payload);
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ -> ()
(* A full or read-only disk silently degrades to the in-memory store. *)

(* --- lookup / insert --------------------------------------------------- *)

let find_bytes l k =
  let id = Key.id k in
  match locked l (fun () -> Hashtbl.find_opt l.mem id) with
  | Some payload -> Some payload
  | None -> (
      match l.dir with
      | None -> None
      | Some root -> (
          match disk_read root k with
          | None -> None
          | Some payload ->
              locked l (fun () ->
                  if not (Hashtbl.mem l.mem id) then
                    Hashtbl.add l.mem id payload);
              Some payload))

let record_hit l k n =
  locked l (fun () ->
      l.hits <- l.hits + 1;
      l.hit_bytes <- l.hit_bytes + n;
      let s = stage_slot l (Key.stage k) in
      s.s_hits <- s.s_hits + 1);
  Trace.emit "cache.hits" 1.0;
  Trace.emit "cache.bytes" (float_of_int n)

let record_miss l k =
  locked l (fun () ->
      l.misses <- l.misses + 1;
      let s = stage_slot l (Key.stage k) in
      s.s_misses <- s.s_misses + 1);
  Trace.emit "cache.misses" 1.0

let put_bytes l k payload =
  let id = Key.id k in
  locked l (fun () ->
      Hashtbl.replace l.mem id payload;
      l.stores <- l.stores + 1;
      l.store_bytes <- l.store_bytes + Bytes.length payload;
      let s = stage_slot l (Key.stage k) in
      s.s_stores <- s.s_stores + 1);
  match l.dir with None -> () | Some root -> disk_write root k payload

let find : type a. t -> Key.t -> a option =
 fun t k ->
  match t with
  | Disabled -> None
  | Live l -> (
      match find_bytes l k with
      | None ->
          record_miss l k;
          None
      | Some payload ->
          record_hit l k (Bytes.length payload);
          Some (Marshal.from_bytes payload 0))

let put t k v =
  match t with
  | Disabled -> ()
  | Live l -> put_bytes l k (Marshal.to_bytes v [])

let memo t k compute =
  match t with
  | Disabled -> compute ()
  | Live l -> (
      match find_bytes l k with
      | Some payload ->
          record_hit l k (Bytes.length payload);
          Marshal.from_bytes payload 0
      | None ->
          record_miss l k;
          let v = compute () in
          put_bytes l k (Marshal.to_bytes v []);
          v)

let stats = function
  | Disabled ->
      {
        hits = 0;
        misses = 0;
        stores = 0;
        hit_bytes = 0;
        store_bytes = 0;
        mem_entries = 0;
        mem_bytes = 0;
        stages = [];
      }
  | Live l ->
      locked l (fun () ->
          {
            hits = l.hits;
            misses = l.misses;
            stores = l.stores;
            hit_bytes = l.hit_bytes;
            store_bytes = l.store_bytes;
            mem_entries = Hashtbl.length l.mem;
            mem_bytes =
              Hashtbl.fold (fun _ p acc -> acc + Bytes.length p) l.mem 0;
            stages =
              List.sort compare
                (Hashtbl.fold
                   (fun stage s acc ->
                     (stage, (s.s_hits, s.s_misses, s.s_stores)) :: acc)
                   l.by_stage []);
          })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

(* --- disk maintenance (any schema generation, CLI-facing) -------------- *)

(* Walks [root]/<schema>/<stage>/<entry>; ignores anything that does not
   look like the store's layout. *)
let disk_entries root =
  let ls d = try Array.to_list (Sys.readdir d) with Sys_error _ -> [] in
  List.concat_map
    (fun schema ->
      let sd = Filename.concat root schema in
      if not (try Sys.is_directory sd with Sys_error _ -> false) then []
      else
        List.concat_map
          (fun stage ->
            let std = Filename.concat sd stage in
            if not (try Sys.is_directory std with Sys_error _ -> false) then
              []
            else
              List.filter_map
                (fun entry ->
                  let path = Filename.concat std entry in
                  match Unix.stat path with
                  | exception Unix.Unix_error _ -> None
                  | st when st.Unix.st_kind = Unix.S_REG ->
                      Some (schema, stage, path, st)
                  | _ -> None)
                (ls std))
          (ls sd))
    (ls root)

type disk_stage = {
  d_schema : string;
  d_stage : string;
  d_entries : int;
  d_bytes : int;
}

let disk_stats ~dir:root =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (schema, stage, _, st) ->
      let key = (schema, stage) in
      let e, b =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key)
      in
      Hashtbl.replace tbl key (e + 1, b + st.Unix.st_size))
    (disk_entries root);
  List.sort compare
    (Hashtbl.fold
       (fun (d_schema, d_stage) (d_entries, d_bytes) acc ->
         { d_schema; d_stage; d_entries; d_bytes } :: acc)
       tbl [])

let disk_clear ~dir:root =
  let removed = ref 0 in
  List.iter
    (fun (_, _, path, _) ->
      try
        Sys.remove path;
        incr removed
      with Sys_error _ -> ())
    (disk_entries root);
  !removed

type gc_result = {
  gc_kept : int;
  gc_kept_bytes : int;
  gc_removed : int;
  gc_removed_bytes : int;
}

let disk_gc ~dir:root ~max_bytes =
  if max_bytes < 0 then invalid_arg "Cache.disk_gc: max_bytes < 0";
  (* LRU by access time (reads touch entries), newest kept first. *)
  let entries =
    List.sort
      (fun (_, _, _, a) (_, _, _, b) ->
        compare b.Unix.st_atime a.Unix.st_atime)
      (disk_entries root)
  in
  let kept = ref 0
  and kept_bytes = ref 0
  and removed = ref 0
  and removed_bytes = ref 0 in
  List.iter
    (fun (_, _, path, st) ->
      if !kept_bytes + st.Unix.st_size <= max_bytes then begin
        incr kept;
        kept_bytes := !kept_bytes + st.Unix.st_size
      end
      else begin
        (try Sys.remove path with Sys_error _ -> ());
        incr removed;
        removed_bytes := !removed_bytes + st.Unix.st_size
      end)
    entries;
  {
    gc_kept = !kept;
    gc_kept_bytes = !kept_bytes;
    gc_removed = !removed;
    gc_removed_bytes = !removed_bytes;
  }

let clear t =
  match t with
  | Disabled -> ()
  | Live l ->
      locked l (fun () -> Hashtbl.reset l.mem);
      match l.dir with
      | None -> ()
      | Some root -> ignore (disk_clear ~dir:root)
