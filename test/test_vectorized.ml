(* Batch execution and dictionary encoding.

   Batch boundaries must be invisible: for any plan, any batch size
   (including degenerate ones that split every operator boundary) and
   any parallelism, the result is the reference evaluator's.  The
   property tests reuse the random plan generators from
   [Test_properties]; the TPC-H checks pin the paper's Q1-Q4 workload
   in both formulations.

   The dictionary must likewise be invisible: interning at insert time
   and decoding at the output boundary round-trips every string, equal
   strings receive equal handles even when interned from concurrent
   domains, and an engine with encoding disabled digests identically. *)

open Support

module Gen = QCheck2.Gen

let qtest = QCheck_alcotest.to_alcotest

(* ---------- any batch size = reference on random plans ---------- *)

let run_with ~batch_size ?(parallelism = 1) cat plan =
  Executor.run
    ~config:(Compile.config_with ~batch_size ~parallelism ())
    cat plan

(* Degenerate (1), prime (7), and large (1024) batch sizes: the first
   two force every operator through its partial-batch and
   carry-over-between-pulls paths. *)
let batch_sizes = [ 1; 7; 1024 ]
let gen_batch_size = Gen.oneofl batch_sizes

let prop_batch_matches_reference =
  QCheck2.Test.make ~count:150
    ~name:"batched executor = reference on random plans"
    (Gen.quad
       (Test_properties.gen_relation Test_properties.g_schema)
       Test_properties.gen_pgq gen_batch_size (Gen.oneofl [ 1; 2 ]))
    (fun (rel, pgq, batch_size, parallelism) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Test_properties.substitute_group pgq
          Test_properties.unqualified_scan_r
      in
      Relation.equal_as_multiset (Reference.run cat plan)
        (run_with ~batch_size ~parallelism cat plan))

let prop_gapply_batch_matches_reference =
  QCheck2.Test.make ~count:150
    ~name:"batched GApply = reference on random groupings"
    (Gen.quad
       (Test_properties.gen_relation Test_properties.g_schema)
       (Gen.pair Test_properties.gen_gcols Test_properties.gen_pgq)
       gen_batch_size (Gen.oneofl [ 1; 2 ]))
    (fun (rel, (gcols, pgq), batch_size, parallelism) ->
      let cat = Test_properties.catalog_with_r rel in
      let plan =
        Plan.g_apply ~gcols ~var:"g"
          ~outer:Test_properties.unqualified_scan_r ~pgq
      in
      Relation.equal_as_multiset (Reference.run cat plan)
        (run_with ~batch_size ~parallelism cat plan))

(* ---------- batch plumbing ---------- *)

(* of_array / to_cursor round-trip at an adversarial size, preserving
   order — the row adapter at the root of every compiled plan *)
let test_batch_roundtrip () =
  let rows = List.init 23 (fun i -> row [ vi i ]) in
  let out = ref [] in
  Cursor.iter
    (fun r -> out := r :: !out)
    (Batch.to_cursor (Batch.of_array ~size:7 (Array.of_list rows)));
  Alcotest.(check (list tuple_testable))
    "order and rows preserved" rows (List.rev !out)

let test_batch_to_array_exact_fit () =
  let rows = List.init 100 (fun i -> row [ vi i ]) in
  let arr = Batch.to_array (Batch.of_array ~size:32 (Array.of_list rows)) in
  Alcotest.(check int) "length" 100 (Array.length arr);
  List.iteri
    (fun i r -> Alcotest.check tuple_testable "row" r arr.(i))
    rows

(* ---------- the batch-size knob ---------- *)

(* A batch size below 1 is rejected on every surface: SQL SET fails
   typed without touching the knob, and the programmatic entry points
   raise. *)
let test_batch_size_knob () =
  let db = Engine.create () in
  let before = Engine.batch_size db in
  List.iter
    (fun v ->
      (match Engine.exec db ("set batch_size = " ^ v) with
      | Engine.Failed (Errors.Type_error m) ->
          Alcotest.(check string) ("set batch_size = " ^ v)
            "SET batch_size expects a positive integer or DEFAULT" m
      | _ -> Alcotest.failf "set batch_size = %s should fail typed" v);
      Alcotest.(check int) "knob untouched" before (Engine.batch_size db))
    [ "0"; "off"; "OFF" ];
  (match Engine.exec db "set batch_size = 7" with
  | Engine.Message m -> Alcotest.(check string) "confirmed" "batch_size = 7" m
  | _ -> Alcotest.fail "set batch_size = 7 should succeed");
  Alcotest.(check int) "knob set" 7 (Engine.batch_size db);
  ignore (Engine.exec db "set batch_size = default");
  Alcotest.(check int) "knob reset" Compile.default_batch_size
    (Engine.batch_size db);
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "Engine.create ~batch_size:0 raises" true
    (raises (fun () -> ignore (Engine.create ~batch_size:0 ())));
  Alcotest.(check bool) "Engine.set_batch_size 0 raises" true
    (raises (fun () -> Engine.set_batch_size db 0));
  Alcotest.(check bool) "Compile.config_with ~batch_size:0 raises" true
    (raises (fun () -> ignore (Compile.config_with ~batch_size:0 ())))

(* ---------- dictionary round-trip ---------- *)

let dict_fixture_strings =
  [ "bolt"; "nut"; "gear"; "bolt"; ""; "a very much longer part name" ]

let test_dict_roundtrip () =
  let t = Table.create "d" [ ("k", Datatype.Int); ("s", Datatype.Str) ] in
  List.iteri (fun i s -> Table.insert t (row [ vi i; vs s ])) dict_fixture_strings;
  let stored = Table.rows t in
  (* handles in the store when the gate is on ... *)
  if Dict.enabled () then
    List.iter
      (fun r ->
        match Tuple.get r 1 with
        | Value.Sym _ -> ()
        | v ->
            Alcotest.failf "expected interned handle, got %s"
              (Value.to_string v))
      stored;
  (* ... and the original strings at the decode boundary *)
  List.iteri
    (fun i s ->
      let r = List.nth stored i in
      Alcotest.(check string) "decoded" s (Value.to_string (Tuple.get r 1));
      Alcotest.check value_testable "canonical"
        (vs s) (Value.canonical (Tuple.get r 1)))
    dict_fixture_strings;
  (* equal strings share one handle *)
  Alcotest.check value_testable "equal strings, equal handles"
    (Tuple.get (List.nth stored 0) 1)
    (Tuple.get (List.nth stored 3) 1)

(* Interning the same strings from several domains concurrently must
   produce consistent handles: the shard choice is a pure function of
   the string, and each pool's intern is mutex-guarded. *)
let test_dict_concurrent_shards () =
  let schema = Schema.of_list [ Schema.column "s" Datatype.Str ] in
  match Dict.create schema with
  | None -> () (* GAPPLY_DICT=off: nothing to stress *)
  | Some dict ->
      let n = 500 in
      let strings = Array.init n (fun i -> Printf.sprintf "str-%d" (i mod 97)) in
      let encode_all offset =
        Array.init n (fun i ->
            let s = strings.((i + offset) mod n) in
            Tuple.get (Dict.encode_row dict (row [ vs s ])) 0)
      in
      let domains =
        List.init 4 (fun d -> Domain.spawn (fun () -> encode_all (d * 131)))
      in
      let results = List.map Domain.join domains in
      (* every domain decoded back to the right string, and equal
         strings got identical handles across domains *)
      List.iteri
        (fun d encoded ->
          let offset = d * 131 in
          Array.iteri
            (fun i v ->
              Alcotest.(check string)
                (Printf.sprintf "domain %d decode %d" d i)
                strings.((i + offset) mod n)
                (Value.to_string v))
            encoded)
        results;
      let serial = encode_all 0 in
      List.iteri
        (fun d encoded ->
          let offset = d * 131 in
          Array.iteri
            (fun i v ->
              Alcotest.check value_testable
                (Printf.sprintf "domain %d handle %d" d i)
                serial.((i + offset) mod n) v)
            encoded)
        results;
      let stats = Dict.stats dict in
      Alcotest.(check int) "distinct entries" 97 stats.Dict_stats.entries

(* ---------- TPC-H Q1-Q4: any batch size = reference ---------- *)

let tpch_engine () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.1;
  db

(* Every batch size and parallelism agrees with the reference evaluator
   (as a multiset) and with every other setting (row for row: execution
   is deterministic at any setting). *)
let test_tpch_batch_equivalence () =
  let db = tpch_engine () in
  List.iter
    (fun (name, gapply, baseline) ->
      List.iter
        (fun (form, sql) ->
          let label = Printf.sprintf "%s (%s)" name form in
          let reference =
            Reference.run (Engine.catalog db) (Engine.plan_of_sql db sql)
          in
          let first = ref None in
          List.iter
            (fun (batch_size, parallelism) ->
              Engine.set_batch_size db batch_size;
              Engine.set_parallelism db parallelism;
              let got = Engine.query db sql in
              let setting =
                Printf.sprintf "%s, batch %d, parallelism %d" label
                  batch_size parallelism
              in
              Alcotest.(check bool)
                (setting ^ " = reference") true
                (Relation.equal_as_multiset reference got);
              match !first with
              | None -> first := Some got
              | Some expected ->
                  Alcotest.check relation_ordered_testable setting expected
                    got)
            (List.concat_map
               (fun b -> [ (b, 1); (b, 2) ])
               batch_sizes))
        [ ("gapply", gapply); ("baseline", baseline) ])
    Workloads.figure8_queries

(* With and without dictionary encoding the logical database state is
   identical: the durability digest decodes handles before hashing. *)
let test_tpch_dict_digest () =
  let was = Dict.enabled () in
  Fun.protect
    ~finally:(fun () -> Dict.set_enabled was)
    (fun () ->
      Dict.set_enabled true;
      let encoded = tpch_engine () in
      Dict.set_enabled false;
      let plain = tpch_engine () in
      Alcotest.(check string) "db digest, encoded vs plain"
        (Recovery.db_digest (Engine.catalog plain))
        (Recovery.db_digest (Engine.catalog encoded));
      List.iter
        (fun (name, gapply, _) ->
          Alcotest.check relation_ordered_testable name
            (Engine.query plain gapply) (Engine.query encoded gapply))
        Workloads.figure8_queries)

let suite =
  [
    qtest prop_batch_matches_reference;
    qtest prop_gapply_batch_matches_reference;
    Alcotest.test_case "batch adapters round-trip at size 7" `Quick
      test_batch_roundtrip;
    Alcotest.test_case "Batch.to_array is exact-fit" `Quick
      test_batch_to_array_exact_fit;
    Alcotest.test_case "batch size 0 is rejected" `Quick
      test_batch_size_knob;
    Alcotest.test_case "dictionary round-trips strings" `Quick
      test_dict_roundtrip;
    Alcotest.test_case "concurrent interning agrees across domains" `Quick
      test_dict_concurrent_shards;
    Alcotest.test_case "TPC-H Q1-Q4: every batch size = reference" `Quick
      test_tpch_batch_equivalence;
    Alcotest.test_case "TPC-H digest: encoded = plain" `Quick
      test_tpch_dict_digest;
  ]
