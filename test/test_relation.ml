(* Unit tests: schemas, tuples, relations. *)

open Support

let s2 = schema [ ("a", Datatype.Int); ("b", Datatype.Str) ]

let test_schema_find () =
  Alcotest.(check int) "find b" 1 (Schema.find "b" s2);
  Alcotest.check_raises "unknown column"
    (Errors.Name_error "unknown column c") (fun () ->
      ignore (Schema.find "c" s2))

let test_schema_qualified () =
  let s =
    Schema.concat
      (Schema.rename_source "t1" s2)
      (Schema.rename_source "t2" s2)
  in
  Alcotest.(check int) "t2.a" 2 (Schema.find ~qual:"t2" "a" s);
  Alcotest.check_raises "bare a ambiguous"
    (Errors.Name_error "ambiguous column a") (fun () ->
      ignore (Schema.find "a" s))

let test_schema_project () =
  let p = Schema.project [ 1 ] s2 in
  Alcotest.(check int) "arity" 1 (Schema.arity p);
  Alcotest.(check string) "name" "b" (Schema.get p 0).Schema.cname

let test_tuple_ops () =
  let t = row [ vi 1; vs "x"; vnull ] in
  Alcotest.check tuple_testable "project reorders"
    (row [ vnull; vi 1 ])
    (Tuple.project [ 2; 0 ] t);
  Alcotest.(check bool) "tuples with nulls equal under total order" true
    (Tuple.equal (row [ vnull; vi 1 ]) (row [ vnull; vi 1 ]));
  Alcotest.(check bool) "compare lexicographic" true
    (Tuple.compare (row [ vi 1; vi 9 ]) (row [ vi 2; vi 0 ]) < 0)

let test_relation_distinct () =
  let r =
    rel
      [ ("a", Datatype.Int) ]
      [ [ vi 1 ]; [ vi 2 ]; [ vi 1 ]; [ vnull ]; [ vnull ] ]
  in
  let d = Relation.distinct r in
  Alcotest.(check int) "distinct count (nulls collapse)" 3
    (Relation.cardinality d)

let test_relation_multiset_equality () =
  let a = rel [ ("a", Datatype.Int) ] [ [ vi 1 ]; [ vi 2 ]; [ vi 1 ] ] in
  let b = rel [ ("a", Datatype.Int) ] [ [ vi 2 ]; [ vi 1 ]; [ vi 1 ] ] in
  let c = rel [ ("a", Datatype.Int) ] [ [ vi 2 ]; [ vi 2 ]; [ vi 1 ] ] in
  Alcotest.(check bool) "permutation equal" true
    (Relation.equal_as_multiset a b);
  Alcotest.(check bool) "different multiplicities differ" false
    (Relation.equal_as_multiset a c)

let test_relation_sort_stable () =
  let r =
    rel
      [ ("k", Datatype.Int); ("v", Datatype.Int) ]
      [ [ vi 1; vi 10 ]; [ vi 0; vi 20 ]; [ vi 1; vi 30 ] ]
  in
  let sorted =
    Relation.sort_by
      (fun a b -> Value.compare_total (Tuple.get a 0) (Tuple.get b 0))
      r
  in
  Alcotest.check relation_ordered_testable "stable order"
    (rel
       [ ("k", Datatype.Int); ("v", Datatype.Int) ]
       [ [ vi 0; vi 20 ]; [ vi 1; vi 10 ]; [ vi 1; vi 30 ] ])
    sorted

let test_table_insert_and_stats () =
  let cat = mini_catalog () in
  let stats = Catalog.stats_of cat "part" in
  Alcotest.(check int) "row count" 4 stats.Stats.row_count;
  Alcotest.(check int) "distinct prices" 4
    (Stats.distinct_count stats "p_retailprice");
  Alcotest.(check int) "distinct sizes" 2 (Stats.distinct_count stats "p_size");
  let c = Option.get (Stats.column_stats stats "p_retailprice") in
  Alcotest.check value_testable "min price" (vf 10.) c.Stats.min_value;
  Alcotest.check value_testable "max price" (vf 40.) c.Stats.max_value

let test_stats_invalidation () =
  let cat = mini_catalog () in
  ignore (Catalog.stats_of cat "supplier");
  let t = Catalog.find_table cat "supplier" in
  Table.insert t (row [ vi 4; vs "Umbrella" ]);
  Catalog.invalidate_stats cat "supplier";
  let stats = Catalog.stats_of cat "supplier" in
  Alcotest.(check int) "row count after insert" 4 stats.Stats.row_count

let test_table_arity_check () =
  let t = Table.create "t" [ ("a", Datatype.Int) ] in
  Alcotest.(check bool) "bad arity raises" true
    (try
       Table.insert t (row [ vi 1; vi 2 ]);
       false
     with Errors.Exec_error _ -> true)

let test_fk_metadata () =
  let cat = mini_catalog () in
  Alcotest.(check bool) "partsupp -> supplier fk" true
    (Catalog.has_foreign_key cat ~table:"partsupp" ~cols:[ "ps_suppkey" ]
       ~ref_table:"supplier" ~ref_cols:[ "s_suppkey" ]);
  Alcotest.(check bool) "no fk to part on suppkey" false
    (Catalog.has_foreign_key cat ~table:"partsupp" ~cols:[ "ps_suppkey" ]
       ~ref_table:"part" ~ref_cols:[ "p_partkey" ]);
  Alcotest.(check bool) "pk coverage" true
    (Catalog.covers_primary_key cat ~table:"supplier"
       ~cols:[ "s_suppkey"; "s_name" ])

(* ---------- table rendering vs the Format oracle ---------- *)

module Gen = QCheck2.Gen

let gen_string =
  Gen.oneof
    [ Gen.return ""; Gen.string_printable;
      Gen.oneofl [ "é"; "naïve café"; "日本語"; "𝄞 clef"; "a|b"; "  " ] ]

let gen_value =
  Gen.frequency
    [ (1, Gen.return Value.Null);
      (2, Gen.map (fun i -> Value.Int i)
            (Gen.oneof [ Gen.int; Gen.int_range (-999) 999 ]));
      (1, Gen.map (fun b -> Value.Bool b) Gen.bool);
      (2, Gen.map (fun f -> Value.Float f) Test_value.gen_float);
      (2, Gen.map (fun s -> Value.Str s) gen_string) ]

let gen_column =
  Gen.map2
    (fun source name -> Schema.column ?source name Datatype.Str)
    (Gen.opt (Gen.oneofl [ "t"; "ps1"; "été" ]))
    (Gen.oneofl [ "a"; "s_name"; "x"; "count"; "ünï"; "" ])

let gen_table =
  Gen.(
    int_range 0 6 >>= fun ncols ->
    pair
      (array_size (return ncols) gen_column)
      (list_size (int_range 0 60) (array_size (return ncols) gen_value)))

let print_table (cols, rows) =
  Render_oracle.to_string (Relation.make cols rows)

let prop_render_matches_oracle =
  QCheck2.Test.make ~count:300 ~print:print_table
    ~name:"render is byte-identical to the Format oracle" gen_table
    (fun (cols, rows) ->
      let r = Relation.make cols rows in
      let expected = Render_oracle.to_string r in
      let len = String.length expected in
      Relation.to_string r = expected
      && Format.asprintf "%a" Relation.pp r = expected
      && (match Relation.render ~reserve:9 r with
         | Ok b ->
             Bytes.length b = 9 + len && Bytes.sub_string b 9 len = expected
         | Error _ -> false)
      && Relation.render ~max_len:(len - 1) r = Error len)

let suite =
  [
    Alcotest.test_case "schema find" `Quick test_schema_find;
    Alcotest.test_case "schema qualified resolution" `Quick
      test_schema_qualified;
    Alcotest.test_case "schema project" `Quick test_schema_project;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
    Alcotest.test_case "relation distinct" `Quick test_relation_distinct;
    Alcotest.test_case "relation multiset equality" `Quick
      test_relation_multiset_equality;
    Alcotest.test_case "relation stable sort" `Quick test_relation_sort_stable;
    Alcotest.test_case "table stats" `Quick test_table_insert_and_stats;
    Alcotest.test_case "stats invalidation" `Quick test_stats_invalidation;
    Alcotest.test_case "table arity check" `Quick test_table_arity_check;
    Alcotest.test_case "foreign-key metadata" `Quick test_fk_metadata;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_render_matches_oracle ]
