(* Batch execution.

   Batch boundaries must be invisible: for any plan, any batch size
   (including degenerate ones that split every operator boundary) and
   any parallelism, the result is the reference evaluator's.  The
   property tests reuse the random plan generators from
   [Test_properties]; the TPC-H checks pin the paper's Q1-Q4 workload
   in both formulations, plus a GApply keyed on a string column. *)

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
  exec_ok db "set batch_size = default";
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

(* ---------- TPC-H Q1-Q4: any batch size = reference ---------- *)

let tpch_engine () =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:0.1;
  db

(* The report benchmark's string-keyed GApply: [part] grouped by its 25
   brands, with a per-group scalar subquery. *)
let brand_gapply =
  "select gapply(select count(*) as n, min(p_retailprice) as lo, \
   max(p_retailprice) as hi from g union all select count(*), null, null \
   from g where p_size > (select avg(p_size) from g)) from part group by \
   p_brand : g"

(* Every batch size and parallelism agrees with the reference evaluator
   (as a multiset) and with every other setting (row for row: execution
   is deterministic at any setting). *)
let test_tpch_batch_equivalence () =
  let db = tpch_engine () in
  let inputs =
    List.concat_map
      (fun (name, gapply, baseline) ->
        [ (name ^ " (gapply)", gapply); (name ^ " (baseline)", baseline) ])
      Workloads.figure8_queries
    @ [ ("part by p_brand (gapply)", brand_gapply) ]
  in
  List.iter
    (fun (label, sql) ->
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
            Printf.sprintf "%s, batch %d, parallelism %d" label batch_size
              parallelism
          in
          Alcotest.(check bool)
            (setting ^ " = reference") true
            (Relation.equal_as_multiset reference got);
          match !first with
          | None -> first := Some got
          | Some expected ->
              Alcotest.check relation_ordered_testable setting expected got)
        (List.concat_map (fun b -> [ (b, 1); (b, 2) ]) batch_sizes))
    inputs

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
    Alcotest.test_case "TPC-H Q1-Q4: every batch size = reference" `Quick
      test_tpch_batch_equivalence;
  ]
