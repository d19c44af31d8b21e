(* Tests for the content-addressed stage cache: the canonical encoder's
   fixed byte layout and non-aliasing, structural digest stability and
   sensitivity, memoization identity and statistics, put-time snapshot
   isolation, the on-disk store (roundtrip, corruption fallback, LRU gc,
   clear), the flow-level hit == recompute property over designs x
   architectures x verify levels, a randomized equivalence spot-check of
   a cached front-end artifact, and the stress sweep's compute-each-
   front-end-once invariant. *)

module Enc = Vpga_cache.Enc
module Key = Vpga_cache.Key
module Cache = Vpga_cache.Cache
module Stagekey = Vpga_flow.Stagekey
module Flow = Vpga_flow.Flow
module Minchan = Vpga_flow.Minchan
module Experiments = Vpga_flow.Experiments
module Netlist = Vpga_netlist.Netlist
module Equiv = Vpga_netlist.Equiv
module Techmap = Vpga_mapper.Techmap
module Arch = Vpga_plb.Arch
module Policy = Vpga_resil.Policy
open Vpga_designs

let alu2 = lazy (Alu.build ~width:2 ())
let alu4 = lazy (Alu.build ~width:4 ())

let digest_of feeds =
  let b = Enc.create () in
  List.iter (fun f -> f b) feeds;
  Enc.digest_hex b

(* --- encoder ---------------------------------------------------------- *)

(* The canonical byte layout, pinned: these digests must never change
   without a Key.schema bump (old on-disk entries would otherwise be
   revived against new keys). *)
let test_enc_fixed_vectors () =
  Alcotest.(check string)
    "empty stream is MD5 of the empty string"
    "d41d8cd98f00b204e9800998ecf8427e"
    (digest_of []);
  let pin name expected_bytes feeds =
    Alcotest.(check string)
      name
      (Digest.to_hex (Digest.string expected_bytes))
      (digest_of feeds)
  in
  pin "str" "s2:ab" [ (fun b -> Enc.str b "ab") ];
  pin "int" "i5;" [ (fun b -> Enc.int b 5) ];
  pin "negative int" "i-5;" [ (fun b -> Enc.int b (-5)) ];
  pin "i64" "q1099511627776;" [ (fun b -> Enc.i64 b 1_099_511_627_776L) ];
  pin "bools" "TF" [ (fun b -> Enc.bool b true); (fun b -> Enc.bool b false) ];
  pin "option" "NSi3;"
    [ (fun b -> Enc.opt Enc.int b None); (fun b -> Enc.opt Enc.int b (Some 3)) ];
  pin "list" "L2:i1;i2;" [ (fun b -> Enc.list Enc.int b [ 1; 2 ]) ];
  pin "int array" "A3:7,8,9," [ (fun b -> Enc.int_array b [| 7; 8; 9 |]) ];
  (* floats are raw big-endian IEEE-754 bits after the tag *)
  let bits f =
    let b = Buffer.create 8 in
    Buffer.add_int64_be b (Int64.bits_of_float f);
    Buffer.contents b
  in
  pin "float" ("f" ^ bits 1.5) [ (fun b -> Enc.float b 1.5) ];
  pin "float array"
    ("G2:" ^ bits 0.5 ^ bits (-2.0))
    [ (fun b -> Enc.float_array b [| 0.5; -2.0 |]) ]

let test_enc_no_aliasing () =
  let differs name a b =
    Alcotest.(check bool) name false (digest_of a = digest_of b)
  in
  differs "string split"
    [ (fun b -> Enc.str b "ab"); (fun b -> Enc.str b "c") ]
    [ (fun b -> Enc.str b "a"); (fun b -> Enc.str b "bc") ];
  differs "int split"
    [ (fun b -> Enc.int b 12); (fun b -> Enc.int b 3) ]
    [ (fun b -> Enc.int b 1); (fun b -> Enc.int b 23) ];
  differs "list vs elements"
    [ (fun b -> Enc.list Enc.str b [ "a"; "b" ]) ]
    [ (fun b -> Enc.str b "a"); (fun b -> Enc.str b "b") ];
  differs "array split"
    [ (fun b -> Enc.int_array b [| 1; 2 |]) ]
    [ (fun b -> Enc.int_array b [| 12 |]) ];
  differs "signed zero"
    [ (fun b -> Enc.float b 0.0) ]
    [ (fun b -> Enc.float b (-0.0)) ];
  differs "int vs i64"
    [ (fun b -> Enc.int b 5) ]
    [ (fun b -> Enc.i64 b 5L) ]

(* --- structural digests ----------------------------------------------- *)

let test_key_digests_stable_and_sensitive () =
  let a1 = Key.netlist_hex (Alu.build ~width:4 ()) in
  let a2 = Key.netlist_hex (Alu.build ~width:4 ()) in
  Alcotest.(check string) "same build, same digest" a1 a2;
  Alcotest.(check bool)
    "different width, different digest" false
    (a1 = Key.netlist_hex (Lazy.force alu2));
  Alcotest.(check bool)
    "lut and granular differ" false
    (Key.arch_hex Arch.lut_plb = Key.arch_hex Arch.granular_plb);
  let k1 = Key.make ~stage:"x" (fun b -> Enc.int b 1) in
  let k2 = Key.make ~stage:"x" (fun b -> Enc.int b 1) in
  let k3 = Key.make ~stage:"y" (fun b -> Enc.int b 1) in
  Alcotest.(check string) "key deterministic" (Key.id k1) (Key.id k2);
  Alcotest.(check bool)
    "stage name reaches the digest" false
    (Key.hex k1 = Key.hex k3);
  Alcotest.(check string) "id shape" ("x/" ^ Key.hex k1) (Key.id k1);
  Alcotest.(check int) "hex width" 32 (String.length (Key.hex k1))

(* --- memoization ------------------------------------------------------ *)

let test_memo_hit_and_stats () =
  let c = Cache.create () in
  Alcotest.(check bool) "enabled" true (Cache.enabled c);
  let k = Key.make ~stage:"s" (fun b -> Enc.int b 1) in
  let computes = ref 0 in
  let compute () =
    incr computes;
    [| 1; 2; 3 |]
  in
  let v1 = Cache.memo c k compute in
  let v2 = Cache.memo c k compute in
  Alcotest.(check int) "computed once" 1 !computes;
  Alcotest.(check (array int)) "hit equals computed" v1 v2;
  Alcotest.(check bool) "hit is a fresh copy" true (v1 != v2);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "stores" 1 s.Cache.stores;
  Alcotest.(check int) "mem entries" 1 s.Cache.mem_entries;
  (match s.Cache.stages with
  | [ ("s", (1, 1, 1)) ] -> ()
  | _ -> Alcotest.fail "per-stage stats");
  Cache.clear c;
  ignore (Cache.memo c k compute);
  Alcotest.(check int) "clear drops the entry" 2 !computes

let test_disabled_cache () =
  let k = Key.make ~stage:"s" (fun b -> Enc.int b 1) in
  let computes = ref 0 in
  let compute () = incr computes; !computes in
  Alcotest.(check int) "first" 1 (Cache.memo Cache.none k compute);
  Alcotest.(check int) "second recomputes" 2 (Cache.memo Cache.none k compute);
  Alcotest.(check bool) "disabled" false (Cache.enabled Cache.none);
  let s = Cache.stats Cache.none in
  Alcotest.(check int) "no stats" 0 (s.Cache.hits + s.Cache.misses)

(* The put-time-snapshot invariant: neither the producer mutating its
   result after the store nor a consumer mutating a hit can poison the
   cache. *)
let test_put_snapshot_isolation () =
  let c = Cache.create () in
  let k = Key.make ~stage:"s" (fun b -> Enc.int b 2) in
  let producer = [| 10; 20 |] in
  Cache.put c k producer;
  producer.(0) <- 99;
  (match Cache.find c k with
  | Some a -> Alcotest.(check (array int)) "producer mutation" [| 10; 20 |] a
  | None -> Alcotest.fail "expected a hit");
  (match Cache.find c k with
  | Some a -> (a : int array).(1) <- 99
  | None -> Alcotest.fail "expected a hit");
  match Cache.find c k with
  | Some a -> Alcotest.(check (array int)) "consumer mutation" [| 10; 20 |] a
  | None -> Alcotest.fail "expected a hit"

(* --- the on-disk store ------------------------------------------------ *)

let temp_dir () =
  let f = Filename.temp_file "vpga-cache-test" "" in
  Sys.remove f;
  f

let rec rm_tree d =
  if Sys.file_exists d && Sys.is_directory d then begin
    Array.iter (fun f -> rm_tree (Filename.concat d f)) (Sys.readdir d);
    try Sys.rmdir d with Sys_error _ -> ()
  end
  else if Sys.file_exists d then Sys.remove d

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_tree dir) (fun () -> f dir)

(* All regular files under [dir], depth-first. *)
let rec files_under d =
  if not (Sys.file_exists d) then []
  else if Sys.is_directory d then
    Array.to_list (Sys.readdir d)
    |> List.concat_map (fun f -> files_under (Filename.concat d f))
  else [ d ]

let test_disk_roundtrip () =
  with_dir @@ fun dir ->
  let k = Key.make ~stage:"s" (fun b -> Enc.str b "disk") in
  let c1 = Cache.create ~dir () in
  Cache.put c1 k (42, "payload");
  (* a fresh cache has an empty memory table: the hit must come from disk *)
  let c2 = Cache.create ~dir () in
  (match Cache.find c2 k with
  | Some (n, s) ->
      Alcotest.(check int) "int" 42 n;
      Alcotest.(check string) "string" "payload" s
  | None -> Alcotest.fail "expected a disk hit");
  let s = Cache.stats c2 in
  Alcotest.(check int) "counted as a hit" 1 s.Cache.hits;
  match Cache.disk_stats ~dir with
  | [ d ] ->
      Alcotest.(check string) "stage dir" "s" d.Cache.d_stage;
      Alcotest.(check int) "one entry" 1 d.Cache.d_entries
  | _ -> Alcotest.fail "expected one stage"

let test_disk_corruption_falls_back () =
  let corrupt mangle =
    with_dir @@ fun dir ->
    let k = Key.make ~stage:"s" (fun b -> Enc.str b "corrupt") in
    let c1 = Cache.create ~dir () in
    Cache.put c1 k [| 1.0; 2.0 |];
    let path =
      match files_under dir with [ p ] -> p | _ -> Alcotest.fail "one file"
    in
    mangle path;
    let c2 = Cache.create ~dir () in
    (match Cache.find c2 k with
    | None -> ()
    | Some (_ : float array) -> Alcotest.fail "corrupted entry revived");
    (* the bad entry is gone; a recompute stores cleanly over it *)
    Alcotest.(check (list string)) "bad entry unlinked" [] (files_under dir);
    let v = Cache.memo c2 k (fun () -> [| 3.0 |]) in
    Alcotest.(check (float 0.0)) "recomputed" 3.0 v.(0);
    match Cache.find (Cache.create ~dir ()) k with
    | Some (a : float array) ->
        Alcotest.(check (float 0.0)) "restored" 3.0 a.(0)
    | None -> Alcotest.fail "expected a hit after recompute"
  in
  corrupt (fun path ->
      (* truncate mid-payload *)
      let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 path in
      output_string oc "VPGACACHE1\n";
      close_out oc);
  corrupt (fun path ->
      (* flip one payload byte, keeping the length intact *)
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let bytes = really_input_string ic n in
      close_in ic;
      let b = Bytes.of_string bytes in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc)

let test_disk_gc_lru () =
  with_dir @@ fun dir ->
  let c = Cache.create ~dir () in
  let key i = Key.make ~stage:"s" (fun b -> Enc.int b i) in
  let payload = String.make 100 'x' in
  List.iter (fun i -> Cache.put c (key i) (i, payload)) [ 1; 2; 3 ];
  let paths = files_under dir in
  Alcotest.(check int) "three entries" 3 (List.length paths);
  let entry_bytes = (Unix.stat (List.hd paths)).Unix.st_size in
  (* pin distinct access times: entry of key 2 is most recent *)
  let set_atime k t =
    let b = Enc.create () in
    Enc.str b Key.schema;
    Enc.str b "s";
    Enc.int b k;
    let hex = Enc.digest_hex b in
    match List.find_opt (fun p -> Filename.basename p = hex) paths with
    | Some p -> Unix.utimes p t t
    | None -> Alcotest.fail "entry path not found"
  in
  set_atime 1 1000.0;
  set_atime 2 3000.0;
  set_atime 3 2000.0;
  let r = Cache.disk_gc ~dir ~max_bytes:(2 * entry_bytes) in
  Alcotest.(check int) "kept" 2 r.Cache.gc_kept;
  Alcotest.(check int) "removed" 1 r.Cache.gc_removed;
  Alcotest.(check int) "kept bytes" (2 * entry_bytes) r.Cache.gc_kept_bytes;
  let c2 = Cache.create ~dir () in
  (match Cache.find c2 (key 1) with
  | Some (_ : int * string) -> Alcotest.fail "LRU entry survived gc"
  | None -> ());
  (match Cache.find c2 (key 2) with
  | Some ((n, _) : int * string) -> Alcotest.(check int) "MRU kept" 2 n
  | None -> Alcotest.fail "MRU entry evicted");
  let n = Cache.disk_clear ~dir in
  Alcotest.(check int) "clear counts survivors" 2 n;
  Alcotest.(check (list string)) "store empty" [] (files_under dir)

(* --- flow integration ------------------------------------------------- *)

(* The tentpole's correctness contract: for any (design, arch, verify)
   combination, a warm run against a shared cache produces a result
   [compare]-identical to both its own cold run and an uncached run. *)
let prop_cache_hit_equals_recompute =
  QCheck.Test.make ~name:"cache hit == recompute (flow pairs)" ~count:6
    QCheck.(triple small_int bool bool)
    (fun (seed, wide, granular) ->
      let nl = Lazy.force (if wide then alu4 else alu2) in
      let arch = if granular then Arch.granular_plb else Arch.lut_plb in
      let verify = if wide then Flow.Fast else Flow.Off in
      let cache = Cache.create () in
      let run c = Flow.run ~seed ~verify ~cache:c arch nl in
      let cold = run cache in
      let warm = run cache in
      let uncached = run Cache.none in
      let s = Cache.stats cache in
      s.Cache.hits > 0
      && compare cold warm = 0
      && compare cold uncached = 0)

(* A cached front-end artifact is a real netlist, not just equal bytes:
   pull the [map] entry a warm flow hit on and drive it against the
   source design with randomized simulation. *)
let test_cached_map_is_equivalent () =
  let nl = Lazy.force alu4 in
  let arch = Arch.granular_plb in
  let cache = Cache.create () in
  ignore (Flow.run ~seed:1 ~cache arch nl);
  let opts =
    {
      Stagekey.seed = 1;
      period = 500.0;
      anneal_iterations = None;
      use_criticality = true;
      verify = 1;
      policy = Policy.default;
      defect = None;
    }
  in
  let k =
    Stagekey.map ~nl:(Key.netlist_hex nl) ~arch:(Key.arch_hex arch) opts
  in
  match Cache.find cache k with
  | None -> Alcotest.fail "no cached map artifact"
  | Some ((mapped, _events) : Netlist.t * _) ->
      (match Equiv.check ~seed:7 nl mapped with
      | Equiv.Equivalent -> ()
      | Equiv.Mismatch _ -> Alcotest.fail "cached map artifact not equivalent");
      (* and it matches a recompute structurally *)
      Alcotest.(check string)
        "same structural digest"
        (Key.netlist_hex (Techmap.map arch nl))
        (Key.netlist_hex mapped)

(* The stress sweep's headline invariant: with a shared cache, the
   defect-independent front-end of each (design, arch) is computed
   exactly once across all defect rates and maps.  One design, both
   archs, 4 rates x 1 map = 4 tasks per arch: per front-end stage, 2
   misses (one per arch) and 6 hits. *)
let test_stress_frontend_computed_once () =
  let cache = Cache.create () in
  let report =
    Minchan.stress ~seed:1 ~jobs:1 ~rates:[ 0.0; 0.02; 0.05; 0.1 ]
      ~maps_per_rate:1 ~cache
      ~designs:[ ("alu", Lazy.force alu4) ]
      Experiments.Test
  in
  Alcotest.(check int) "8 tasks" 8 (List.length report.Minchan.r_points);
  let s = Cache.stats cache in
  List.iter
    (fun stage ->
      match List.assoc_opt stage s.Cache.stages with
      | Some (hits, misses, _) ->
          Alcotest.(check (pair int int))
            (stage ^ " computed once per (design, arch)")
            (6, 2) (hits, misses)
      | None -> Alcotest.fail (stage ^ " never keyed"))
    [ "compact"; "buffer"; "place:global" ]

let () =
  Alcotest.run "cache"
    [
      ( "encoder",
        [
          Alcotest.test_case "fixed vectors" `Quick test_enc_fixed_vectors;
          Alcotest.test_case "no aliasing" `Quick test_enc_no_aliasing;
        ] );
      ( "keys",
        [
          Alcotest.test_case "stable and sensitive" `Quick
            test_key_digests_stable_and_sensitive;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hit and stats" `Quick test_memo_hit_and_stats;
          Alcotest.test_case "disabled" `Quick test_disabled_cache;
          Alcotest.test_case "put-time snapshot" `Quick
            test_put_snapshot_isolation;
        ] );
      ( "disk",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "corruption falls back" `Quick
            test_disk_corruption_falls_back;
          Alcotest.test_case "gc is LRU" `Quick test_disk_gc_lru;
        ] );
      ( "flow",
        [
          QCheck_alcotest.to_alcotest prop_cache_hit_equals_recompute;
          Alcotest.test_case "cached map equivalent (CEC spot-check)" `Quick
            test_cached_map_is_equivalent;
          Alcotest.test_case "stress front-end once" `Slow
            test_stress_frontend_computed_once;
        ] );
    ]
