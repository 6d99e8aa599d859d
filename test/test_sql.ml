(* SQL layer tests: lexer, parser, binder, and end-to-end execution of
   the paper's queries in both formulations (with and without gapply),
   which must agree. *)

open Support

let cat () = mini_catalog ()

let parse = Sql_parser.parse_statement

let bind_run cat src =
  match Sql_binder.bind_statement cat (parse src) with
  | Sql_binder.Bound_query p -> run_checked ~msg:src cat p
  | _ -> Alcotest.failf "expected a query: %s" src

let bind_plan cat src =
  match Sql_binder.bind_statement cat (parse src) with
  | Sql_binder.Bound_query p -> p
  | _ -> Alcotest.failf "expected a query: %s" src

(* ---------- lexer ---------- *)

let test_lexer_basics () =
  let toks =
    List.map (fun t -> t.Sql_token.token)
      (Sql_lexer.tokenize "SELECT a.b, 'it''s', 3.5, 42 <> <= >= || : -- c\n*")
  in
  Alcotest.(check int) "token count" 17 (List.length toks);
  Alcotest.(check bool) "keyword lowercased" true
    (List.hd toks = Sql_token.Ident "select");
  Alcotest.(check bool) "string unescaped" true
    (List.mem (Sql_token.Str_lit "it's") toks);
  Alcotest.(check bool) "float" true (List.mem (Sql_token.Float_lit 3.5) toks);
  Alcotest.(check bool) "colon for gapply" true
    (List.mem Sql_token.Colon toks)

let test_lexer_comments () =
  let toks = Sql_lexer.tokenize "/* block\ncomment */ select -- eol\n 1" in
  Alcotest.(check int) "only select, 1, eof" 3 (List.length toks)

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (Sql_lexer.tokenize "'abc");
       false
     with Errors.Parse_error _ -> true);
  Alcotest.(check bool) "stray char" true
    (try
       ignore (Sql_lexer.tokenize "select #");
       false
     with Errors.Parse_error _ -> true)

(* ---------- parser ---------- *)

(* The WAL logs a statement's printed text and gapply_cli -f runs it, so
   the text must parse back to the same query, literals included. *)
let roundtrip src =
  let q1 = Sql_parser.parse_query_string src in
  let printed = Sql_ast.query_to_string q1 in
  let q2 = Sql_parser.parse_query_string printed in
  Alcotest.(check bool)
    (Printf.sprintf "%s reads back from %s" src printed)
    true (q1 = q2)

let test_parser_roundtrips () =
  List.iter roundtrip
    [
      "select a, b as c from t where x = 1 and y > 2.5 or not z < 3";
      "select * from t1, t2 where t1.a = t2.b order by a desc, b";
      "select count(*), avg(x), count(distinct y) from t group by k having \
       count(*) > 1";
      "select case when a > 1 then 'x' else 'y' end from t";
      "select a from t where exists (select b from u where u.k = t.k)";
      "select a from t where x >= (select avg(x) from u)";
      "select a from t where a is not null and b is null";
      "select gapply(select x from g) from t group by k : g";
      "select gapply(select x from g) as (c1) from t group by k, j : g";
      "select a from (select b as a from u) as v";
      "select a || 'x' from t where not exists (select 1 from u)";
      "select a from t where a in (select b from u) and a not in (select \
       c from v)";
      "select a from t where a between 1 and 5 or a not between 8 and 9";
      "select 0.00001, 1.0e12, 0.1234567890123456, 1.0e-300, 2.5, 100.0 \
       from t where b > 1.7976931348623157e308 or c < 1.0e999";
      "select 'it''s' from t";
    ]

let test_parser_union_order () =
  match
    Sql_parser.parse_query_string
      "(select a from t union all select b from u) order by a"
  with
  | Sql_ast.Order_by (Sql_ast.Union_all _, _) -> ()
  | _ -> Alcotest.fail "expected order-by over union"

let test_parser_gapply_form () =
  match
    Sql_parser.parse_query_string
      "select gapply(select x from g) from t group by a, b : g"
  with
  | Sql_ast.Select { Sql_ast.items = [ Sql_ast.Item_gapply _ ];
                     group_by = [ (None, "a"); (None, "b") ];
                     group_var = Some "g"; _ } ->
      ()
  | _ -> Alcotest.fail "unexpected gapply parse"

let test_parser_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects: " ^ src) true
        (try
           ignore (parse src);
           false
         with Errors.Parse_error _ -> true))
    [
      "select from t";
      "select a from t where";
      "select a form t";
      "select a from t group by";
      "select unknown_fn(a) from t";
      "select a from t; extra";
    ]

let test_parse_ddl () =
  match
    parse
      "create table t (a int primary key, b varchar, c float, foreign key \
       (b) references u (k))"
  with
  | Sql_ast.Stmt_create_table ("t", cols, constraints) ->
      Alcotest.(check int) "3 columns" 3 (List.length cols);
      Alcotest.(check int) "2 constraints" 2 (List.length constraints)
  | _ -> Alcotest.fail "bad create table parse"

let test_parse_script () =
  let stmts =
    Sql_parser.parse_script
      "create table t (a int); insert into t values (1), (2); select a \
       from t;"
  in
  Alcotest.(check int) "3 statements" 3 (List.length stmts)

(* ---------- binder basics ---------- *)

let test_ddl_and_query_end_to_end () =
  let cat = Catalog.create () in
  let exec src = ignore (Sql_binder.bind_statement cat (parse src)) in
  exec "create table t (a int, b varchar)";
  exec "insert into t values (1, 'x'), (2, 'y'), (-3, null)";
  let r = bind_run cat "select a from t where b is not null" in
  Alcotest.(check int) "two non-null rows" 2 (Relation.cardinality r);
  let r = bind_run cat "select a + 1 as a1 from t where a < 0" in
  check_rows "negative literal inserted" [ [ vi (-2) ] ] r

let test_binder_rejects_unknowns () =
  let cat = cat () in
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects " ^ src) true
        (try
           ignore (bind_plan cat src);
           false
         with Errors.Name_error _ | Errors.Plan_error _ -> true))
    [
      "select nope from part";
      "select p_name from nope";
      "select p_partkey from part, partsupp where ps_suppkey = ambiguous";
      "select s_suppkey from supplier, supplier";
      "select gapply(select 1 from g), p_name from part group by p_size : g";
    ]

let test_binder_scalar_aggregate () =
  let cat = cat () in
  check_rows "overall average"
    [ [ vf 25. ] ]
    (bind_run cat "select avg(p_retailprice) from part")

let test_binder_group_by_having () =
  let cat = cat () in
  check_rows "group by with having"
    [ [ vi 1; vi 3 ] ]
    (bind_run cat
       "select ps_suppkey, count(*) from partsupp group by ps_suppkey \
        having count(*) > 2")

let test_binder_arith_over_aggregates () =
  let cat = cat () in
  check_rows "aggregate arithmetic"
    [ [ vf 50. ] ]
    (bind_run cat
       "select max(p_retailprice) + min(p_retailprice) from part")

let test_binder_exists_correlated () =
  let cat = cat () in
  check_rows "suppliers with a part over 25"
    [ [ vs "Acme" ]; [ vs "Globex" ] ]
    (bind_run cat
       "select s_name from supplier where exists (select 1 from partsupp, \
        part where ps_partkey = p_partkey and ps_suppkey = s_suppkey and \
        p_retailprice > 25)")

let test_binder_not_exists () =
  let cat = cat () in
  check_rows "supplier without parts"
    [ [ vs "Initech" ] ]
    (bind_run cat
       "select s_name from supplier where not exists (select 1 from \
        partsupp where ps_suppkey = s_suppkey)")

let test_binder_scalar_subquery_where () =
  let cat = cat () in
  check_rows "parts above global average"
    [ [ vs "gear" ]; [ vs "cog" ] ]
    (bind_run cat
       "select p_name from part where p_retailprice > (select \
        avg(p_retailprice) from part)")

let test_binder_scalar_subquery_select () =
  let cat = cat () in
  check_rows "select-list subquery"
    [ [ vi 1; vf 25. ]; [ vi 2; vf 25. ]; [ vi 3; vf 25. ]; [ vi 4; vf 25. ] ]
    (bind_run cat
       "select p_partkey, (select avg(p_retailprice) from part) as gavg \
        from part")

let test_binder_derived_table () =
  let cat = cat () in
  check_rows "derived table with column list"
    [ [ vi 1; vi 3 ]; [ vi 2; vi 2 ] ]
    (bind_run cat
       "select k, n from (select ps_suppkey, count(*) from partsupp group \
        by ps_suppkey) as tmp(k, n)")

let test_binder_order_by_desc () =
  let cat = cat () in
  let r =
    bind_run cat "select p_name from part order by p_retailprice desc"
  in
  Alcotest.(check string) "most expensive first" "cog"
    (Value.to_string (Tuple.get (List.hd (Relation.rows r)) 0))

let test_binder_distinct () =
  let cat = cat () in
  check_rows "distinct brands"
    [ [ vs "Brand#A" ]; [ vs "Brand#B" ] ]
    (bind_run cat "select distinct p_brand from part")

let test_binder_fk_annotation () =
  let cat = cat () in
  let plan =
    bind_plan cat
      "select s_name from partsupp, supplier where ps_suppkey = s_suppkey"
  in
  let found =
    Plan.fold
      (fun acc p ->
        match p with
        | Plan.Join { fk = Some Plan.Left_to_right; _ } -> acc + 1
        | _ -> acc)
      0 plan
  in
  Alcotest.(check int) "FK join annotated" 1 found

let test_binder_in_subquery () =
  let cat = cat () in
  check_rows "IN subquery"
    [ [ vs "Acme" ]; [ vs "Globex" ] ]
    (bind_run cat
       "select s_name from supplier where s_suppkey in (select ps_suppkey \
        from partsupp)");
  check_rows "NOT IN subquery"
    [ [ vs "Initech" ] ]
    (bind_run cat
       "select s_name from supplier where s_suppkey not in (select \
        ps_suppkey from partsupp)")

let test_binder_in_correlated () =
  let cat = cat () in
  (* parts supplied by a supplier that also supplies part 4 *)
  check_rows "correlated IN"
    [ [ vi 2 ]; [ vi 4 ] ]
    (bind_run cat
       "select p_partkey from part where p_partkey in (select ps_partkey \
        from partsupp where ps_suppkey = 2)")

let test_binder_between () =
  let cat = cat () in
  check_rows "BETWEEN"
    [ [ vs "nut" ]; [ vs "gear" ] ]
    (bind_run cat
       "select p_name from part where p_retailprice between 15.0 and 35.0");
  check_rows "NOT BETWEEN"
    [ [ vs "bolt" ]; [ vs "cog" ] ]
    (bind_run cat
       "select p_name from part where p_retailprice not between 15.0 and \
        35.0")

let test_binder_case_expression () =
  let cat = cat () in
  check_rows "case over price"
    [ [ vs "cheap" ]; [ vs "cheap" ]; [ vs "costly" ]; [ vs "costly" ] ]
    (bind_run cat
       "select case when p_retailprice <= 20 then 'cheap' else 'costly' \
        end as bucket from part")

(* ---------- the gapply syntax ---------- *)

let test_gapply_basic () =
  let cat = cat () in
  check_rows "per-supplier min via gapply"
    [ [ vi 1; vf 10. ]; [ vi 2; vf 20. ] ]
    (bind_run cat
       "select gapply(select min(p_retailprice) from g) from partsupp, \
        part where ps_partkey = p_partkey group by ps_suppkey : g")

let test_gapply_as_columns () =
  let cat = cat () in
  let r =
    bind_run cat
      "select gapply(select min(p_retailprice) from g) as (cheapest) from \
       partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g"
  in
  Alcotest.(check (list string)) "renamed output"
    [ "ps_suppkey"; "cheapest" ]
    (Schema.names (Relation.schema r))

(* An alias on the group variable requalifies the group scan, as it does
   a derived table: the aliased name resolves, and a self-join of the
   group under two aliases is unambiguous.  Both the executor (hash and
   sort partitioning, inside [bind_run]) and the optimized engine path
   must equal the reference. *)
let test_gapply_group_var_alias () =
  let db = Engine.create () in
  List.iter
    (exec_ok db)
    [
      "create table x (k int, v int)";
      "insert into x values (1, 10), (1, 20), (2, 30), (2, 5), (2, 7)";
    ];
  List.iter
    (fun (src, expected) ->
      let reference = bind_run (Engine.catalog db) src in
      check_rows src expected reference;
      check_rel (src ^ ": engine = reference") reference (Engine.query db src))
    [
      ( "select gapply(select y.v from x as y) from x group by k : x",
        [ [ vi 1; vi 10 ]; [ vi 1; vi 20 ]; [ vi 2; vi 30 ]; [ vi 2; vi 5 ];
          [ vi 2; vi 7 ] ] );
      ( "select gapply(select a.v, b.v from x as a, x as b where a.v < b.v) \
         from x group by k : x",
        [ [ vi 1; vi 10; vi 20 ]; [ vi 2; vi 5; vi 30 ]; [ vi 2; vi 5; vi 7 ];
          [ vi 2; vi 7; vi 30 ] ] );
    ]

let test_gapply_produces_r7_shape () =
  let cat = cat () in
  let plan =
    bind_plan cat
      "select gapply(select * from g where (select avg(p_retailprice) \
       from g) > 22) from partsupp, part where ps_partkey = p_partkey \
       group by ps_suppkey : g"
  in
  match Optimizer.force_rule "group-selection-aggregate" cat plan with
  | Some _ -> ()
  | None ->
      Alcotest.fail
        "SQL binding did not produce the canonical aggregate-selection \
         shape"

let test_gapply_produces_r6_shape () =
  let cat = cat () in
  let plan =
    bind_plan cat
      "select gapply(select * from g where exists (select * from g where \
       p_retailprice > 35)) from partsupp, part where ps_partkey = \
       p_partkey group by ps_suppkey : g"
  in
  match Optimizer.force_rule "group-selection-exists" cat plan with
  | Some _ -> ()
  | None ->
      Alcotest.fail
        "SQL binding did not produce the canonical exists-selection shape"

(* ---------- the paper's queries, both formulations ---------- *)

let q1_without_gapply =
  "(select ps_suppkey, p_name, p_retailprice, null as avgprice from \
   partsupp, part where ps_partkey = p_partkey union all select \
   ps_suppkey, null, null, avg(p_retailprice) from partsupp, part where \
   ps_partkey = p_partkey group by ps_suppkey) order by ps_suppkey"

let q1_with_gapply =
  "select gapply(select p_name, p_retailprice, null as avgprice from \
   tmpsupp union all select null, null, avg(p_retailprice) from tmpsupp) \
   from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : \
   tmpsupp"

let q2_without_gapply =
  "(select ps_suppkey, count(*) as cnt_above, null as cnt_below from \
   partsupp ps1, part where p_partkey = ps_partkey and p_retailprice >= \
   (select avg(p_retailprice) from partsupp, part where p_partkey = \
   ps_partkey and ps_suppkey = ps1.ps_suppkey) group by ps_suppkey union \
   all select ps_suppkey, null, count(*) from partsupp ps2, part where \
   p_partkey = ps_partkey and p_retailprice < (select avg(p_retailprice) \
   from partsupp, part where p_partkey = ps_partkey and ps_suppkey = \
   ps2.ps_suppkey) group by ps_suppkey) order by ps_suppkey"

let q2_with_gapply =
  "select gapply(select count(*) as cnt_above, null as cnt_below from \
   tmpsupp where p_retailprice >= (select avg(p_retailprice) from \
   tmpsupp) union all select null, count(*) from tmpsupp where \
   p_retailprice < (select avg(p_retailprice) from tmpsupp)) from \
   partsupp, part where ps_partkey = p_partkey group by ps_suppkey : \
   tmpsupp"

let test_q1_formulations_agree () =
  let cat = cat () in
  let without = bind_run cat q1_without_gapply in
  let with_g = bind_run cat q1_with_gapply in
  check_rel "Q1 with = without" without with_g;
  check_rows "Q1 expected"
    [
      [ vi 1; vs "bolt"; vf 10.; vnull ];
      [ vi 1; vs "nut"; vf 20.; vnull ];
      [ vi 1; vs "gear"; vf 30.; vnull ];
      [ vi 1; vnull; vnull; vf 20. ];
      [ vi 2; vs "nut"; vf 20.; vnull ];
      [ vi 2; vs "cog"; vf 40.; vnull ];
      [ vi 2; vnull; vnull; vf 30. ];
    ]
    with_g

let test_q2_formulations_agree () =
  let cat = cat () in
  let without = bind_run cat q2_without_gapply in
  let with_g = bind_run cat q2_with_gapply in
  check_rel "Q2 with = without" without with_g;
  check_rows "Q2 expected"
    [
      [ vi 1; vi 2; vnull ];
      [ vi 1; vnull; vi 1 ];
      [ vi 2; vi 1; vnull ];
      [ vi 2; vnull; vi 1 ];
    ]
    with_g

let q4_without_gapply =
  "select tmp.ps_suppkey, tmp.p_size, p_name, p_retailprice from (select \
   ps_suppkey, p_size, avg(p_retailprice) from partsupp, part where \
   p_partkey = ps_partkey group by ps_suppkey, p_size) as \
   tmp(ps_suppkey, p_size, avgprice), partsupp, part where ps_partkey = \
   p_partkey and partsupp.ps_suppkey = tmp.ps_suppkey and part.p_size = \
   tmp.p_size and p_retailprice > tmp.avgprice order by tmp.ps_suppkey"

let q4_with_gapply =
  "select gapply(select p_name, p_retailprice from tmpsupp where \
   p_retailprice > (select avg(p_retailprice) from tmpsupp)) from \
   partsupp, part where ps_partkey = p_partkey group by ps_suppkey, \
   p_size : tmpsupp"

let test_q4_formulations_agree () =
  let cat = cat () in
  let without = bind_run cat q4_without_gapply in
  let with_g = bind_run cat q4_with_gapply in
  (* supplier 1 size 1: parts 10, 30 (avg 20) -> gear above;
     supplier 2 size 2: parts 20, 40 (avg 30) -> cog above *)
  check_rows "Q4 expected"
    [ [ vi 1; vi 1; vs "gear"; vf 30. ]; [ vi 2; vi 2; vs "cog"; vf 40. ] ]
    with_g;
  check_rel "Q4 with = without" without with_g

let test_optimize_sql_plans_preserve_semantics () =
  let cat = cat () in
  List.iter
    (fun src ->
      let plan = bind_plan cat src in
      let { Optimizer.plan = plan'; _ } = Optimizer.optimize cat plan in
      check_rel ("optimized " ^ src) (Reference.run cat plan)
        (Reference.run cat plan'))
    [ q1_with_gapply; q2_with_gapply; q4_with_gapply; q1_without_gapply ]

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser roundtrips" `Quick test_parser_roundtrips;
    Alcotest.test_case "parser union/order precedence" `Quick
      test_parser_union_order;
    Alcotest.test_case "parser gapply form" `Quick test_parser_gapply_form;
    Alcotest.test_case "parser rejects garbage" `Quick test_parser_errors;
    Alcotest.test_case "parser DDL" `Quick test_parse_ddl;
    Alcotest.test_case "parser scripts" `Quick test_parse_script;
    Alcotest.test_case "DDL + query end to end" `Quick
      test_ddl_and_query_end_to_end;
    Alcotest.test_case "binder rejects unknowns" `Quick
      test_binder_rejects_unknowns;
    Alcotest.test_case "scalar aggregate" `Quick test_binder_scalar_aggregate;
    Alcotest.test_case "group by + having" `Quick test_binder_group_by_having;
    Alcotest.test_case "aggregate arithmetic" `Quick
      test_binder_arith_over_aggregates;
    Alcotest.test_case "correlated EXISTS" `Quick test_binder_exists_correlated;
    Alcotest.test_case "NOT EXISTS" `Quick test_binder_not_exists;
    Alcotest.test_case "scalar subquery in WHERE" `Quick
      test_binder_scalar_subquery_where;
    Alcotest.test_case "scalar subquery in SELECT" `Quick
      test_binder_scalar_subquery_select;
    Alcotest.test_case "derived table" `Quick test_binder_derived_table;
    Alcotest.test_case "order by desc" `Quick test_binder_order_by_desc;
    Alcotest.test_case "select distinct" `Quick test_binder_distinct;
    Alcotest.test_case "FK join annotation" `Quick test_binder_fk_annotation;
    Alcotest.test_case "IN subquery" `Quick test_binder_in_subquery;
    Alcotest.test_case "correlated IN" `Quick test_binder_in_correlated;
    Alcotest.test_case "BETWEEN" `Quick test_binder_between;
    Alcotest.test_case "case expression" `Quick test_binder_case_expression;
    Alcotest.test_case "gapply basic" `Quick test_gapply_basic;
    Alcotest.test_case "gapply AS columns" `Quick test_gapply_as_columns;
    Alcotest.test_case "gapply group variable alias" `Quick
      test_gapply_group_var_alias;
    Alcotest.test_case "gapply yields R7 shape" `Quick
      test_gapply_produces_r7_shape;
    Alcotest.test_case "gapply yields R6 shape" `Quick
      test_gapply_produces_r6_shape;
    Alcotest.test_case "paper Q1: both formulations" `Quick
      test_q1_formulations_agree;
    Alcotest.test_case "paper Q2: both formulations" `Quick
      test_q2_formulations_agree;
    Alcotest.test_case "paper Q4: both formulations" `Quick
      test_q4_formulations_agree;
    Alcotest.test_case "optimizer on SQL plans" `Quick
      test_optimize_sql_plans_preserve_semantics;
  ]
