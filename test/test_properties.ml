(* Property-based tests (qcheck, registered through qcheck-alcotest).

   The key invariants:
   - the physical executor agrees with the reference evaluator on random
     plans over random relations (both partitioning strategies);
   - GApply execution agrees with the paper's literal set-theoretic
     definition for random grouping columns and per-group queries;
   - Theorem 1: running a per-group query on the covering-range subset of
     a random group equals running it on the whole group;
   - the emptyOnEmpty analysis is sound: when it answers true, the
     per-group query really is empty on the empty group;
   - aggregate accumulators agree with naive recomputation;
   - the SQL printer/parser round-trips. *)

open Support

module Gen = QCheck2.Gen

(* ---------- random data ---------- *)

let g_schema =
  schema
    [
      ("a", Datatype.Int);
      ("b", Datatype.Int);
      ("c", Datatype.Float);
      ("d", Datatype.Str);
    ]

let gen_value_of_type ty : Value.t Gen.t =
  let open Gen in
  let base =
    match ty with
    | Datatype.Int -> map (fun i -> Value.Int i) (int_range (-5) 5)
    | Datatype.Float ->
        map (fun i -> Value.Float (float_of_int i /. 2.)) (int_range (-6) 6)
    | Datatype.Str ->
        map (fun c -> Value.Str (String.make 1 c)) (char_range 'a' 'e')
    | Datatype.Bool -> map (fun b -> Value.Bool b) bool
    | Datatype.Null -> return Value.Null
  in
  frequency [ (9, base); (1, return Value.Null) ]

let gen_row schema : Tuple.t Gen.t =
  Gen.map Tuple.of_list
    (Gen.flatten_l
       (List.map
          (fun (c : Schema.column) -> gen_value_of_type c.Schema.ctype)
          (Schema.to_list schema)))

let gen_relation ?(max_rows = 14) schema : Relation.t Gen.t =
  Gen.map (Relation.make schema)
    (Gen.list_size (Gen.int_range 0 max_rows) (gen_row schema))

(* ---------- random predicates over the group schema ---------- *)

let gen_comparison : Expr.t Gen.t =
  let open Expr in
  Gen.oneof
    [
      Gen.map (fun i -> column "a" >^ int i) (Gen.int_range (-4) 4);
      Gen.map (fun i -> column "b" <=^ int i) (Gen.int_range (-4) 4);
      Gen.map
        (fun f -> column "c" <^ float (float_of_int f /. 2.))
        (Gen.int_range (-5) 5);
      Gen.map
        (fun c -> column "d" ==^ str (String.make 1 c))
        (Gen.char_range 'a' 'e');
      Gen.map (fun i -> column "a" ==^ int i) (Gen.int_range (-3) 3);
    ]

let gen_pred : Expr.t Gen.t =
  let open Expr in
  Gen.sized_size (Gen.int_range 0 2) (fun n ->
      Gen.fix
        (fun self n ->
          if n = 0 then gen_comparison
          else
            Gen.oneof
              [
                gen_comparison;
                Gen.map2 (fun a b -> a &&& b) (self (n - 1)) (self (n - 1));
                Gen.map2 (fun a b -> a ||| b) (self (n - 1)) (self (n - 1));
                Gen.map not_ (self (n - 1));
              ])
        n)

(* ---------- random per-group queries ---------- *)

let g = Plan.group_scan ~var:"g" g_schema

(* A family of per-group query templates with random parameters,
   covering the full operator alphabet (select, project, distinct,
   orderby, groupby, aggregate, cached and correlated apply, exists,
   nested-loop join, union all). *)
let gen_pgq : Plan.t Gen.t =
  let open Expr in
  let map = Gen.map and map2 = Gen.map2 and oneof = Gen.oneof in
  let select_tpl = map (fun p -> Plan.select p g) gen_pred in
  let project_tpl =
    map
      (fun p ->
        Plan.project
          [ (column "a", "a"); (column "c" *^ float 2., "c2") ]
          (Plan.select p g))
      gen_pred
  in
  let distinct_tpl =
    map
      (fun p ->
        Plan.distinct (Plan.project [ (column "d", "d") ] (Plan.select p g)))
      gen_pred
  in
  let orderby_tpl =
    map
      (fun p ->
        Plan.project
          [ (column "a", "a") ]
          (Plan.order_by [ (column "c", Plan.Desc) ] (Plan.select p g)))
      gen_pred
  in
  let aggregate_tpl =
    map
      (fun p ->
        Plan.aggregate
          [ (count_star, "n"); (avg (column "c"), "avg_c");
            (min_ (column "a"), "min_a") ]
          (Plan.select p g))
      gen_pred
  in
  let groupby_tpl =
    map
      (fun p ->
        Plan.group_by [ Expr.col "d" ]
          [ (sum (column "a"), "sum_a") ]
          (Plan.select p g))
      gen_pred
  in
  let apply_scalar_tpl =
    map
      (fun p ->
        Plan.project
          [ (column "a", "a"); (column "avg_c", "avg_c") ]
          (Plan.select
             (column "c" >=^ column "avg_c")
             (Plan.apply (Plan.select p g)
                (Plan.aggregate [ (avg (column "c"), "avg_c") ] g))))
      gen_pred
  in
  let apply_exists_tpl =
    map
      (fun p -> Plan.apply g (Plan.exists (Plan.select p g)))
      gen_pred
  in
  (* the inner references the outer row, so it re-runs per outer row
     (the two Apply templates above are uncorrelated, hence cached):
     each row's rank by [a] within the group *)
  let apply_correlated_tpl =
    map
      (fun p ->
        Plan.apply (Plan.select p g)
          (Plan.aggregate [ (count_star, "n") ]
             (Plan.select (column "a" <=^ outer "a") g)))
      gen_pred
  in
  (* no equi-pair to hash on: the nested-loop join *)
  let nl_join_tpl =
    map
      (fun p ->
        Plan.join
          (column "x" <^ column "a")
          (Plan.select p g)
          (Plan.project [ (column "b", "x") ] g))
      gen_pred
  in
  let union_tpl =
    map2
      (fun p1 p2 ->
        Plan.union_all
          [
            Plan.project [ (column "a", "x") ] (Plan.select p1 g);
            Plan.project [ (column "b", "x") ] (Plan.select p2 g);
          ])
      gen_pred gen_pred
  in
  oneof
    [
      select_tpl; project_tpl; distinct_tpl; orderby_tpl; aggregate_tpl;
      groupby_tpl; apply_scalar_tpl; apply_exists_tpl; apply_correlated_tpl;
      nl_join_tpl; union_tpl;
    ]

let gen_gcols : Expr.col_ref list Gen.t =
  Gen.oneofl
    [
      [ Expr.col "a" ];
      [ Expr.col "d" ];
      [ Expr.col "a"; Expr.col "d" ];
      [ Expr.col "b" ];
    ]

(* ---------- catalog plumbing for random relations ---------- *)

let catalog_with_r rel =
  let cat = Catalog.create () in
  let t =
    Table.create "r"
      (List.map
         (fun (c : Schema.column) -> (c.Schema.cname, c.Schema.ctype))
         (Schema.to_list g_schema))
  in
  Relation.iter (Table.insert t) rel;
  Catalog.add_table cat t;
  cat

let scan_r = Plan.table_scan ~table:"r" ~alias:"r" g_schema

(* strip the table qualifier so plans over "r" bind like group plans *)
let unqualified_scan_r =
  Plan.project
    (List.map
       (fun (c : Schema.column) ->
         (Expr.Col (Expr.col ~qual:"r" c.Schema.cname), c.Schema.cname))
       (Schema.to_list g_schema))
    scan_r

(* replace the group scan by a subplan (to embed PGQs over the table) *)
let rec substitute_group plan replacement =
  match plan with
  | Plan.Group_scan { var = "g"; _ } -> replacement
  | p ->
      Plan.with_children p
        (List.map (fun c -> substitute_group c replacement) (Plan.children p))

(* ---------- properties ---------- *)

let prop_exec_matches_reference =
  QCheck2.Test.make ~count:200 ~name:"executor = reference on random plans"
    (Gen.pair (gen_relation g_schema) gen_pgq)
    (fun (rel, pgq) ->
      let cat = catalog_with_r rel in
      let plan = substitute_group pgq unqualified_scan_r in
      let reference = Reference.run cat plan in
      let hash =
        Executor.run ~config:(Compile.config_with ~partition:Compile.Hash_partition ())
          cat plan
      in
      let sort =
        Executor.run ~config:(Compile.config_with ~partition:Compile.Sort_partition ())
          cat plan
      in
      Relation.equal_as_multiset reference hash
      && Relation.equal_as_multiset reference sort)

let prop_gapply_matches_formula =
  QCheck2.Test.make ~count:200
    ~name:"GApply = the paper's set-theoretic definition"
    (Gen.triple (gen_relation g_schema) gen_gcols gen_pgq)
    (fun (rel, gcols, pgq) ->
      let cat = catalog_with_r rel in
      let plan =
        Plan.g_apply ~gcols ~var:"g" ~outer:unqualified_scan_r ~pgq
      in
      (* the formula, computed by hand *)
      let idxs =
        List.map (fun (r : Expr.col_ref) -> Schema.find r.Expr.name g_schema)
          gcols
      in
      let base =
        Executor.run cat unqualified_scan_r
      in
      let keys =
        Relation.rows (Relation.distinct (Relation.project idxs base))
      in
      let expected =
        List.concat_map
          (fun key ->
            let group =
              Relation.filter_rows
                (fun row -> Tuple.equal (Tuple.project idxs row) key)
                base
            in
            let env =
              Env.bind_group "g" group (Env.make cat)
            in
            let result = Executor.run_in env pgq in
            List.map (Tuple.concat key) (Relation.rows result))
          keys
      in
      let actual = Executor.run cat plan in
      let expected_rel =
        Relation.make (Relation.schema actual) expected
      in
      Relation.equal_as_multiset expected_rel actual)

let prop_theorem1_covering_range =
  QCheck2.Test.make ~count:300
    ~name:"Theorem 1: PGQ(group) = PGQ(covering-range(group))"
    (Gen.pair (gen_relation g_schema) gen_pgq)
    (fun (group, pgq) ->
      match Covering_range.of_pgq ~var:"g" pgq with
      | Covering_range.Whole -> true (* nothing to check *)
      | Covering_range.Cond sigma ->
          let cat = Catalog.create () in
          let run g_rel =
            let env = Env.bind_group "g" g_rel (Env.make cat) in
            Reference.eval env pgq
          in
          let full = run group in
          let filtered =
            Relation.filter_rows
              (fun row ->
                Truth.to_bool
                  (Eval.eval_pred ~frames:[] g_schema row sigma))
              group
          in
          let restricted = run filtered in
          Relation.equal_as_multiset full restricted)

let prop_empty_on_empty_sound =
  QCheck2.Test.make ~count:200 ~name:"emptyOnEmpty analysis is sound"
    gen_pgq
    (fun pgq ->
      let cat = Catalog.create () in
      let env = Env.bind_group "g" (Relation.empty g_schema) (Env.make cat) in
      let result = Reference.eval env pgq in
      (* soundness: analysis=true must imply an empty result *)
      (not (Empty_on_empty.check ~var:"g" pgq))
      || Relation.is_empty result)

let prop_selection_rule_preserves =
  QCheck2.Test.make ~count:200
    ~name:"selection-before-GApply rewrite preserves results"
    (Gen.triple (gen_relation g_schema) gen_gcols gen_pgq)
    (fun (rel, gcols, pgq) ->
      let cat = catalog_with_r rel in
      let plan =
        Plan.g_apply ~gcols ~var:"g" ~outer:unqualified_scan_r ~pgq
      in
      match Optimizer.force_rule "selection-before-gapply" cat plan with
      | None -> true
      | Some plan' ->
          Relation.equal_as_multiset (Reference.run cat plan)
            (Executor.run cat plan'))

let prop_gapply_to_groupby_preserves =
  QCheck2.Test.make ~count:200
    ~name:"gapply-to-groupby rewrite preserves results"
    (Gen.triple (gen_relation g_schema) gen_gcols Gen.bool)
    (fun (rel, gcols, use_groupby_form) ->
      let cat = catalog_with_r rel in
      let pgq =
        if use_groupby_form then
          Plan.group_by [ Expr.col "d" ]
            [ (Expr.count_star, "n"); (Expr.avg (Expr.column "c"), "avg_c") ]
            g
        else
          Plan.aggregate
            [ (Expr.count_star, "n"); (Expr.avg (Expr.column "c"), "avg_c") ]
            g
      in
      let plan =
        Plan.g_apply ~gcols ~var:"g" ~outer:unqualified_scan_r ~pgq
      in
      match Optimizer.force_rule "gapply-to-groupby" cat plan with
      | None -> false (* must always fire on this shape *)
      | Some plan' ->
          Relation.equal_as_multiset (Reference.run cat plan)
            (Executor.run cat plan'))

let prop_group_selection_exists_preserves =
  QCheck2.Test.make ~count:200
    ~name:"group-selection-exists rewrite preserves results"
    (Gen.triple (gen_relation g_schema) gen_gcols gen_pred)
    (fun (rel, gcols, pred) ->
      let cat = catalog_with_r rel in
      let pgq = Plan.apply g (Plan.exists (Plan.select pred g)) in
      let plan =
        Plan.g_apply ~gcols ~var:"g" ~outer:unqualified_scan_r ~pgq
      in
      match Optimizer.force_rule "group-selection-exists" cat plan with
      | None -> false
      | Some plan' ->
          Relation.equal_as_multiset (Reference.run cat plan)
            (Executor.run cat plan'))

let prop_optimizer_preserves =
  QCheck2.Test.make ~count:150
    ~name:"full optimizer preserves results on random GApply plans"
    (Gen.triple (gen_relation g_schema) gen_gcols gen_pgq)
    (fun (rel, gcols, pgq) ->
      let cat = catalog_with_r rel in
      let plan =
        Plan.g_apply ~gcols ~var:"g" ~outer:unqualified_scan_r ~pgq
      in
      let { Optimizer.plan = plan'; _ } = Optimizer.optimize cat plan in
      Relation.equal_as_multiset (Reference.run cat plan)
        (Executor.run cat plan'))

(* ---------- aggregates vs naive recomputation ---------- *)

let prop_aggregates_match_naive =
  QCheck2.Test.make ~count:300 ~name:"accumulators = naive aggregation"
    (Gen.list_size (Gen.int_range 0 20) (gen_value_of_type Datatype.Int))
    (fun values ->
      let non_null = List.filter (fun v -> not (Value.is_null v)) values in
      let ints =
        List.map (function Value.Int i -> i | _ -> 0) non_null
      in
      let run spec =
        let st = Agg_state.create spec in
        List.iter (Agg_state.add st) values;
        Agg_state.finish st
      in
      let check_count =
        Value.equal_total
          (run (Expr.count (Expr.column "x")))
          (Value.Int (List.length non_null))
      in
      let check_sum =
        match run (Expr.sum (Expr.column "x")) with
        | Value.Null -> non_null = []
        | Value.Int s -> s = List.fold_left ( + ) 0 ints
        | _ -> false
      in
      let check_min =
        match run (Expr.min_ (Expr.column "x")) with
        | Value.Null -> non_null = []
        | v ->
            Value.equal_total v
              (Value.Int (List.fold_left min max_int ints))
      in
      check_count && check_sum && check_min)

(* ---------- SQL printer/parser round-trip ---------- *)

let gen_sql_query : string Gen.t =
  let open Gen in
  let col = oneofl [ "a"; "b"; "c" ] in
  let table = oneofl [ "t"; "u" ] in
  let lit = map string_of_int (int_range 0 99) in
  let cmp = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
  let pred =
    map3 (fun c op v -> Printf.sprintf "%s %s %s" c op v) col cmp lit
  in
  let pred2 =
    map3 (fun p1 conj p2 -> Printf.sprintf "%s %s %s" p1 conj p2) pred
      (oneofl [ "and"; "or" ])
      pred
  in
  oneof
    [
      map2 (fun c t -> Printf.sprintf "select %s from %s" c t) col table;
      map3
        (fun c t p -> Printf.sprintf "select %s from %s where %s" c t p)
        col table pred2;
      map3
        (fun c t p ->
          Printf.sprintf
            "select %s, count(*) from %s where %s group by %s having \
             count(*) > 1"
            c t p c)
        col table pred;
      map2
        (fun c t ->
          Printf.sprintf
            "select gapply(select %s from g) from %s group by %s : g" c t c)
        col table;
      map3
        (fun c t p ->
          Printf.sprintf
            "select %s from %s where exists (select %s from u where %s) \
             order by %s desc"
            c t c p c)
        col table pred;
    ]

let prop_sql_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"SQL print/parse round-trip is stable"
    gen_sql_query
    (fun src ->
      let q1 = Sql_parser.parse_query_string src in
      let s1 = Sql_ast.query_to_string q1 in
      let q2 = Sql_parser.parse_query_string s1 in
      String.equal s1 (Sql_ast.query_to_string q2))

(* ---------- value laws ---------- *)

let gen_any_value =
  Gen.oneof
    (List.map gen_value_of_type
       [ Datatype.Int; Datatype.Float; Datatype.Str; Datatype.Bool ])

let prop_total_order_consistent =
  QCheck2.Test.make ~count:500 ~name:"total order: equality matches hash"
    (Gen.pair gen_any_value gen_any_value)
    (fun (a, b) ->
      (not (Value.equal_total a b)) || Value.hash a = Value.hash b)

let prop_total_order_antisymmetric =
  QCheck2.Test.make ~count:500 ~name:"total order is antisymmetric"
    (Gen.pair gen_any_value gen_any_value)
    (fun (a, b) ->
      let ab = Value.compare_total a b and ba = Value.compare_total b a in
      (ab = 0 && ba = 0) || (ab > 0 && ba < 0) || (ab < 0 && ba > 0))

let prop_truth_de_morgan =
  QCheck2.Test.make ~count:200 ~name:"3VL De Morgan laws"
    (Gen.pair
       (Gen.oneofl [ Truth.True; Truth.False; Truth.Unknown ])
       (Gen.oneofl [ Truth.True; Truth.False; Truth.Unknown ]))
    (fun (a, b) ->
      Truth.equal
        (Truth.not_ (Truth.and_ a b))
        (Truth.or_ (Truth.not_ a) (Truth.not_ b))
      && Truth.equal
           (Truth.not_ (Truth.or_ a b))
           (Truth.and_ (Truth.not_ a) (Truth.not_ b)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_exec_matches_reference;
      prop_gapply_matches_formula;
      prop_theorem1_covering_range;
      prop_empty_on_empty_sound;
      prop_selection_rule_preserves;
      prop_gapply_to_groupby_preserves;
      prop_group_selection_exists_preserves;
      prop_optimizer_preserves;
      prop_aggregates_match_naive;
      prop_sql_roundtrip;
      prop_total_order_consistent;
      prop_total_order_antisymmetric;
      prop_truth_de_morgan;
    ]
