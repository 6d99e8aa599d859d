(* Tests for engine extensions layered on the paper:
   - the Section 3.1 clustering guarantee of gapply-syntax results;
   - null-safe equality (used by group-selection join-backs);
   - NULL grouping keys surviving the group-selection rewrites;
   - redundant FK-join elimination in the qualifying-keys phase;
   - derived-table aliasing. *)

open Support
open Expr

let keys_non_decreasing rel =
  let keys = List.map (fun t -> Tuple.get t 0) (Relation.rows rel) in
  let rec go = function
    | a :: (b :: _ as rest) -> Value.compare_total a b <= 0 && go rest
    | _ -> true
  in
  go keys

let test_gapply_syntax_is_clustered () =
  (* Section 3.1: "the results are clustered by the values in the
     grouping columns" — even under hash partitioning *)
  let db = Engine.create ~partition:Compile.Hash_partition () in
  Engine.load_tpch db ~msf:0.1;
  let r = Engine.query db Workloads.q1_gapply in
  Alcotest.(check bool) "hash-partitioned gapply output clustered" true
    (keys_non_decreasing r);
  Engine.set_partition_strategy db Compile.Sort_partition;
  let r = Engine.query db Workloads.q1_gapply in
  Alcotest.(check bool) "sort-partitioned output clustered" true
    (keys_non_decreasing r)

let test_nulleq_semantics () =
  let s = schema [ ("a", Datatype.Int) ] in
  let ev v e = Eval.eval ~frames:[] s (row [ v ]) e in
  Alcotest.check value_testable "null <=> null is true" (vb true)
    (ev vnull (Binary (Nulleq, column "a", null)));
  Alcotest.check value_testable "1 <=> null is false" (vb false)
    (ev (vi 1) (Binary (Nulleq, column "a", null)));
  Alcotest.check value_testable "1 <=> 1 is true" (vb true)
    (ev (vi 1) (Binary (Nulleq, column "a", int 1)))

let test_nulleq_hash_join_matches_nulls () =
  let cat = Catalog.create () in
  let t1 = Table.create "t1" [ ("a", Datatype.Int) ] in
  Table.insert_all t1 [ row [ vi 1 ]; row [ vnull ] ];
  let t2 = Table.create "t2" [ ("b", Datatype.Int) ] in
  Table.insert_all t2 [ row [ vi 1 ]; row [ vnull ]; row [ vnull ] ];
  Catalog.add_table cat t1;
  Catalog.add_table cat t2;
  let p =
    Plan.join
      (Binary (Nulleq, column "a", column "b"))
      (scan cat "t1") (scan cat "t2")
  in
  let r = run_checked cat p in
  (* 1 matches 1; null matches both nulls *)
  Alcotest.(check int) "null-safe join rows" 3 (Relation.cardinality r)

let test_group_selection_with_null_keys () =
  (* GApply groups NULL keys together; the join-back rewrite must keep
     that group (it uses null-safe equality) *)
  let cat = Catalog.create () in
  let t =
    Table.create "t" [ ("k", Datatype.Int); ("v", Datatype.Float) ]
  in
  Table.insert_all t
    [
      row [ vi 1; vf 10. ];
      row [ vnull; vf 99. ];
      row [ vnull; vf 1. ];
      row [ vi 2; vf 5. ];
    ];
  Catalog.add_table cat t;
  let g_schema = schema [ ("k", Datatype.Int); ("v", Datatype.Float) ] in
  let g = Plan.group_scan ~var:"g" g_schema in
  let outer =
    Plan.project
      [ (Expr.Col (Expr.col ~qual:"t" "k"), "k");
        (Expr.Col (Expr.col ~qual:"t" "v"), "v") ]
      (scan cat "t")
  in
  let plan =
    Plan.g_apply
      ~gcols:[ Expr.col "k" ]
      ~var:"g" ~outer
      ~pgq:(Plan.apply g (Plan.exists (Plan.select (column "v" >^ float 50.) g)))
  in
  match Optimizer.force_rule "group-selection-exists" cat plan with
  | None -> Alcotest.fail "rule did not fire"
  | Some plan' ->
      let before = Reference.run cat plan in
      (* the NULL-keyed group qualifies (v = 99): 2 rows *)
      Alcotest.(check int) "null group present" 2
        (Relation.cardinality before);
      check_rel "rewrite keeps the NULL-keyed group" before
        (Executor.run cat plan')

let count_scans_of table plan =
  Plan.fold
    (fun acc p ->
      match p with
      | Plan.Table_scan { table = t; _ } when String.equal t table -> acc + 1
      | _ -> acc)
    0 plan

let test_fk_join_pruning_in_keys_phase () =
  let cat = Tpch_gen.catalog ~msf:0.1 () in
  let src = Workloads.rule_aggregate_selection_query ~avg_bound:1500. in
  let plan =
    Sql_binder.bind_query cat (Sql_parser.parse_query_string src)
  in
  match Optimizer.force_rule "group-selection-aggregate" cat plan with
  | None -> Alcotest.fail "rule did not fire"
  | Some plan' ->
      (* the original outer joins supplier; the qualifying-keys phase
         must have pruned it, so the rewrite scans supplier once (for
         the rebuild side) instead of twice *)
      Alcotest.(check int) "supplier scanned once" 1
        (count_scans_of "supplier" plan');
      Alcotest.(check int) "partsupp scanned twice" 2
        (count_scans_of "partsupp" plan');
      check_rel "pruned rewrite preserves results"
        (Reference.run cat plan)
        (Executor.run cat plan')

let test_fk_pruning_requires_fk () =
  (* without the FK annotation the join must survive in the keys side *)
  let cat = Tpch_gen.catalog ~msf:0.05 () in
  let src =
    "select gapply(select * from g where (select avg(p_retailprice) from \
     g) > 1500.0) from partsupp, part, supplier where ps_partkey = \
     p_partkey and ps_suppkey = s_nationkey group by ps_suppkey : g"
  in
  (* joining on s_nationkey is not the declared FK: no pruning *)
  let plan =
    Sql_binder.bind_query cat (Sql_parser.parse_query_string src)
  in
  match Optimizer.force_rule "group-selection-aggregate" cat plan with
  | None -> () (* fine: rule may refuse *)
  | Some plan' ->
      Alcotest.(check int) "supplier scanned twice (no pruning)" 2
        (count_scans_of "supplier" plan');
      check_rel "unpruned rewrite preserves results"
        (Reference.run cat plan)
        (Executor.run cat plan')

let test_alias_node_roundtrip () =
  let cat = mini_catalog () in
  let p =
    Plan.alias "v"
      (Plan.project [ (column "p_name", "n") ] (scan cat "part"))
  in
  let s = Props.schema_of p in
  Alcotest.(check bool) "alias re-qualifies" true
    ((Schema.get s 0).Schema.source = Some "v");
  let r = run_checked cat p in
  Alcotest.(check int) "alias is identity on rows" 4 (Relation.cardinality r)

let test_engine_script () =
  let db = Engine.create () in
  exec_ok db "create table t (a int)";
  exec_ok db "insert into t values (1), (2), (3)";
  check_rows "script result" [ [ vi 3 ] ]
    (Engine.query db "select count(*) from t")

let test_uncorrelated_apply_cached_semantics () =
  (* an inner that depends only on the group must behave identically
     whether or not the engine caches it; stress with a group whose rows
     would change a naive per-row implementation *)
  let cat = mini_catalog () in
  let src =
    "select gapply(select p_name from g where p_retailprice >= (select \
     avg(p_retailprice) from g)) from partsupp, part where ps_partkey = \
     p_partkey group by ps_suppkey : g"
  in
  let plan =
    Sql_binder.bind_query cat (Sql_parser.parse_query_string src)
  in
  check_rel "cached apply = reference" (Reference.run cat plan)
    (Executor.run cat plan)

let suite =
  [
    Alcotest.test_case "gapply syntax output is clustered" `Quick
      test_gapply_syntax_is_clustered;
    Alcotest.test_case "null-safe equality semantics" `Quick
      test_nulleq_semantics;
    Alcotest.test_case "null-safe hash join" `Quick
      test_nulleq_hash_join_matches_nulls;
    Alcotest.test_case "group selection keeps NULL-keyed groups" `Quick
      test_group_selection_with_null_keys;
    Alcotest.test_case "FK-join pruning in keys phase" `Quick
      test_fk_join_pruning_in_keys_phase;
    Alcotest.test_case "no pruning without the FK" `Quick
      test_fk_pruning_requires_fk;
    Alcotest.test_case "alias node" `Quick test_alias_node_roundtrip;
    Alcotest.test_case "engine scripts" `Quick test_engine_script;
    Alcotest.test_case "uncorrelated apply caching" `Quick
      test_uncorrelated_apply_cached_semantics;
  ]
