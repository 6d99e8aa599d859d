(* Plan cache: warm-path identity, exact invalidation, knob key-splits,
   LRU eviction, prepared statements, and the cache-disabled engine.

   Counter assertions go through Cache_stats snapshots of the engine's
   own cache, so they double as tests of the lib/obs export path. *)

let snap db = Cache_stats.snapshot (Plan_cache.stats (Engine.plan_cache db))

let check_rel = Alcotest.testable Relation.pp Relation.equal_as_list

(* A tiny two-table database: DML on [t] must never touch entries that
   only depend on [u]. *)
let small_db () =
  let db = Engine.create () in
  List.iter
    (Support.exec_ok db)
    [
      "create table t (a int, b varchar)";
      "insert into t values (1, 'x'), (2, 'y'), (3, 'z')";
      "create table u (c int)";
      "insert into u values (10), (20)";
    ];
  db

let q_t = "select a, b from t where a >= 2"
let q_u = "select c from u"

(* ---------- warm path ---------- *)

let test_warm_hit_identity () =
  let db = small_db () in
  let cold = Engine.query db q_t in
  let s1 = snap db in
  Alcotest.(check int) "one miss" 1 s1.Cache_stats.misses;
  Alcotest.(check int) "no hit yet" 0 s1.Cache_stats.hits;
  let warm = Engine.query db q_t in
  Alcotest.check check_rel "warm result byte-identical" cold warm;
  let s2 = snap db in
  Alcotest.(check int) "hit counted" 1 s2.Cache_stats.hits;
  Alcotest.(check int) "no recompile" 1 s2.Cache_stats.misses;
  Alcotest.(check bool) "saved time > 0" true (s2.Cache_stats.saved_ns > 0);
  Alcotest.(check bool) "entry present" true
    (Engine.cached_plan db q_t <> None)

(* ---------- invalidation ---------- *)

let test_dml_evicts_only_dependents () =
  let db = small_db () in
  ignore (Engine.query db q_t);
  ignore (Engine.query db q_u);
  Alcotest.(check int) "two entries" 2 (Plan_cache.length (Engine.plan_cache db));
  (match Engine.exec db "insert into t values (4, 'w')" with
  | Engine.Message _ -> ()
  | _ -> Alcotest.fail "expected a DML confirmation");
  let s = snap db in
  Alcotest.(check int) "exactly the t entry invalidated" 1
    s.Cache_stats.invalidations;
  Alcotest.(check bool) "t entry gone" true (Engine.cached_plan db q_t = None);
  Alcotest.(check bool) "u entry survives" true
    (Engine.cached_plan db q_u <> None);
  (* hit after unrelated DML must not recompile *)
  ignore (Engine.query db q_u);
  let s' = snap db in
  Alcotest.(check int) "u still served warm" (s.Cache_stats.hits + 1)
    s'.Cache_stats.hits;
  Alcotest.(check int) "no recompilation for u" s.Cache_stats.misses
    s'.Cache_stats.misses;
  (* and the refreshed t entry sees the new row *)
  let rel = Engine.query db q_t in
  Alcotest.(check int) "t query sees inserted row" 3
    (Relation.cardinality rel)

let test_ddl_evicts_everything () =
  let db = small_db () in
  ignore (Engine.query db q_t);
  ignore (Engine.query db q_u);
  Support.exec_ok db "create index t_a on t (a)";
  let s = snap db in
  Alcotest.(check int) "generation bump invalidates both" 2
    s.Cache_stats.invalidations;
  Alcotest.(check int) "cache empty" 0 (Plan_cache.length (Engine.plan_cache db))

let test_load_tpch_invalidates () =
  let db = small_db () in
  ignore (Engine.query db q_t);
  Engine.load_tpch db ~msf:0.05;
  Alcotest.(check int) "load_tpch sweeps the cache" 0
    (Plan_cache.length (Engine.plan_cache db));
  Alcotest.(check bool) "invalidation counted" true
    ((snap db).Cache_stats.invalidations >= 1)

(* ---------- knob key-splits ---------- *)

(* A shape only the optimizer rewrites (the binder already places
   conjuncts low, but decorrelating the scalar aggregate is a rule), so
   the optimized and unoptimized cached plans are distinguishable. *)
let q_opt = "select a, b from t where a > (select avg(c) from u)"

let test_optimize_flip_key_splits () =
  let db = small_db () in
  ignore (Engine.query db q_opt);
  let optimized =
    match Engine.cached_plan db q_opt with
    | Some p -> p
    | None -> Alcotest.fail "expected a cached optimized plan"
  in
  Engine.set_optimize db false;
  Alcotest.(check bool) "knob flip key-splits" true
    (Engine.cached_plan db q_opt = None);
  ignore (Engine.query db q_opt);
  let unoptimized =
    match Engine.cached_plan db q_opt with
    | Some p -> p
    | None -> Alcotest.fail "expected a cached unoptimized plan"
  in
  Alcotest.(check bool) "executed plan shape changed" false
    (String.equal (Plan.to_string optimized) (Plan.to_string unoptimized));
  Alcotest.(check int) "both variants cached" 2
    (Plan_cache.length (Engine.plan_cache db));
  (* flipping back re-hits the original entry instead of recompiling *)
  Engine.set_optimize db true;
  let before = snap db in
  ignore (Engine.query db q_opt);
  let after = snap db in
  Alcotest.(check int) "flip back is a hit" (before.Cache_stats.hits + 1)
    after.Cache_stats.hits;
  Alcotest.(check int) "flip back does not recompile" before.Cache_stats.misses
    after.Cache_stats.misses

let test_parallelism_and_partition_key_split () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.05;
  let q = Workloads.q1_gapply in
  let baseline = Engine.query db q in
  Engine.set_parallelism db 4;
  Alcotest.(check bool) "parallelism flip key-splits" true
    (Engine.cached_plan db q = None);
  let parallel = Engine.query db q in
  Alcotest.check check_rel "parallel variant result identical" baseline
    parallel;
  Engine.set_partition_strategy db Compile.Sort_partition;
  Alcotest.(check bool) "partition flip key-splits" true
    (Engine.cached_plan db q = None);
  let sorted = Engine.query db q in
  Alcotest.check check_rel "sort-partition variant result identical" baseline
    sorted;
  Alcotest.(check int) "three coexisting variants" 3
    (Plan_cache.length (Engine.plan_cache db))

(* ---------- LRU eviction ---------- *)

let test_lru_eviction () =
  let db' = Engine.create ~cache_capacity:2 () in
  List.iter
    (Support.exec_ok db')
    [
      "create table t (a int, b varchar)";
      "insert into t values (1, 'x'), (2, 'y')";
    ];
  let q1 = "select a from t" in
  let q2 = "select b from t" in
  let q3 = "select a, b from t" in
  ignore (Engine.query db' q1);
  ignore (Engine.query db' q2);
  ignore (Engine.query db' q1);  (* refresh q1: q2 is now the LRU *)
  ignore (Engine.query db' q3);
  let s = snap db' in
  Alcotest.(check int) "one eviction" 1 s.Cache_stats.evictions;
  Alcotest.(check int) "at capacity" 2 (Plan_cache.length (Engine.plan_cache db'));
  Alcotest.(check bool) "least-recently-used entry evicted" true
    (Engine.cached_plan db' q2 = None);
  Alcotest.(check bool) "recently-used entries survive" true
    (Engine.cached_plan db' q1 <> None && Engine.cached_plan db' q3 <> None)

(* ---------- prepared statements ---------- *)

let test_prepared_reuse_and_reprepare () =
  let db = small_db () in
  let h = Engine.prepare db q_t in
  let s0 = snap db in
  Alcotest.(check int) "prepare is the only compilation" 1
    s0.Cache_stats.misses;
  let r1 = Engine.exec_prepared db h in
  let r2 = Engine.exec_prepared db h in
  Alcotest.check check_rel "replays agree" r1 r2;
  let s1 = snap db in
  Alcotest.(check int) "handle replays are hits" 2 s1.Cache_stats.hits;
  Alcotest.(check int) "no recompilation" 1 s1.Cache_stats.misses;
  (* DML on the dependency: the handle transparently re-prepares *)
  Support.exec_ok db "insert into t values (9, 'q')";
  let r3 = Engine.exec_prepared db h in
  Alcotest.(check int) "re-prepared plan sees new row" 3
    (Relation.cardinality r3);
  let s2 = snap db in
  Alcotest.(check int) "one recompilation after DML" 2 s2.Cache_stats.misses;
  (* knob flip: the handle follows the engine's current configuration *)
  Engine.set_optimize db false;
  let r4 = Engine.exec_prepared db h in
  Alcotest.check check_rel "unoptimized replay agrees" r3 r4;
  Alcotest.(check int) "knob flip recompiles the handle" 3
    (snap db).Cache_stats.misses

let test_sql_prepare_execute_deallocate () =
  let db = small_db () in
  (match Engine.exec db "prepare p1 as select a, b from t where a >= 2" with
  | Engine.Message m ->
      Alcotest.(check string) "prepare confirmation" "prepared p1" m
  | _ -> Alcotest.fail "expected a confirmation");
  let direct = Engine.query db q_t in
  (match Engine.exec db "execute p1" with
  | Engine.Rows rel -> Alcotest.check check_rel "EXECUTE = direct" direct rel
  | _ -> Alcotest.fail "expected rows");
  (* names are case-insensitive like the rest of the engine *)
  (match Engine.exec db "EXECUTE P1" with
  | Engine.Rows rel -> Alcotest.check check_rel "EXECUTE P1" direct rel
  | _ -> Alcotest.fail "expected rows");
  (match Engine.exec db "deallocate p1" with
  | Engine.Message m ->
      Alcotest.(check string) "deallocate confirmation" "deallocated p1" m
  | _ -> Alcotest.fail "expected a confirmation");
  (* misuse fails the statement with a typed error instead of raising
     out of [exec] — the session can keep going *)
  match Engine.exec db "execute p1" with
  | Engine.Failed (Errors.Name_error m) ->
      Alcotest.(check string) "EXECUTE after DEALLOCATE"
        "unknown prepared statement p1" m
  | _ -> Alcotest.fail "expected a typed failure"

(* ---------- cache disabled ---------- *)

let test_disabled_cache_counts_nothing () =
  let db = Engine.create ~plan_cache:false () in
  List.iter
    (Support.exec_ok db)
    [ "create table t (a int, b varchar)"; "insert into t values (1, 'x')" ];
  let r1 = Engine.query db "select a from t" in
  let r2 = Engine.query db "select a from t" in
  Alcotest.check check_rel "cold replays agree" r1 r2;
  let s = snap db in
  Alcotest.(check int) "no hits" 0 s.Cache_stats.hits;
  Alcotest.(check int) "no misses" 0 s.Cache_stats.misses;
  Alcotest.(check int) "no invalidations" 0 s.Cache_stats.invalidations;
  Alcotest.(check int) "nothing cached" 0
    (Plan_cache.length (Engine.plan_cache db));
  (* prepared statements still work without the cache *)
  let h = Engine.prepare db "select a from t" in
  Alcotest.check check_rel "prepared replay agrees" r1
    (Engine.exec_prepared db h);
  Alcotest.(check int) "still no counters" 0 (snap db).Cache_stats.hits

(* When CI replays the suite with GAPPLY_PLAN_CACHE=off, every engine
   runs the cold path: counter- and occupancy-based assertions would be
   vacuous or wrong, so only the cache-independent cases run. *)
let cache_enabled_in_env =
  match Sys.getenv_opt "GAPPLY_PLAN_CACHE" with
  | Some ("off" | "0" | "false" | "no") -> false
  | _ -> true

let cold_suite =
  [
    Alcotest.test_case "SQL PREPARE / EXECUTE / DEALLOCATE" `Quick
      test_sql_prepare_execute_deallocate;
    Alcotest.test_case "disabled cache: cold path, zero counters" `Quick
      test_disabled_cache_counts_nothing;
  ]

let warm_suite =
  [
    Alcotest.test_case "warm hit: identical rows, counted once" `Quick
      test_warm_hit_identity;
    Alcotest.test_case "DML evicts exactly the dependent entries" `Quick
      test_dml_evicts_only_dependents;
    Alcotest.test_case "DDL (create index) evicts everything" `Quick
      test_ddl_evicts_everything;
    Alcotest.test_case "load_tpch invalidates cached plans" `Quick
      test_load_tpch_invalidates;
    Alcotest.test_case "set_optimize key-splits cached plans" `Quick
      test_optimize_flip_key_splits;
    Alcotest.test_case "parallelism / partition knobs key-split" `Quick
      test_parallelism_and_partition_key_split;
    Alcotest.test_case "LRU eviction at capacity" `Quick test_lru_eviction;
    Alcotest.test_case "prepared handles: reuse and re-prepare" `Quick
      test_prepared_reuse_and_reprepare;
    Alcotest.test_case "SQL PREPARE / EXECUTE / DEALLOCATE" `Quick
      test_sql_prepare_execute_deallocate;
    Alcotest.test_case "disabled cache: cold path, zero counters" `Quick
      test_disabled_cache_counts_nothing;
  ]

let suite = if cache_enabled_in_env then warm_suite else cold_suite
