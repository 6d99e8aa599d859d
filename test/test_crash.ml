(* Crash-point chaos: prove that after a crash injected at any WAL /
   snapshot hook point, recovery yields exactly the committed prefix.

   For every (site, seed) pair the harness runs a deterministic
   DDL/DML script against two engines — a strict-durability engine over
   a fresh data directory (with a tiny auto-checkpoint threshold so the
   Rename and Checkpoint sites fire mid-script), and an in-memory
   reference.  A statement is folded into the reference only after the
   durable engine acknowledged it.  When the armed crash fires, the
   durable engine dies mid-commit ([Fault.Crash] escapes [exec] like
   real process death); the harness abandons it and recovers the
   directory with a fresh engine.

   The recovered database must digest-equal the acknowledged prefix —
   with one principled exception, the lost-ack window: a crash can land
   after the statement's record is fully durable but before the
   acknowledgement (e.g. inside the auto-checkpoint that very append
   triggered), and then the statement legitimately survives recovery.
   So the acceptance is

     digest(recovered) IN { committed, committed + crashed stmt }

   tightened per site:
     - Append tears the record in half: the tail must be quarantined
       (typed [Torn_tail]) and the crashed statement must NOT survive;
     - Fsync drops the un-synced bytes: the crashed statement must NOT
       survive, and the log ends cleanly (no quarantine);
     - Rename / Checkpoint fire after the statement's record was
       synced: the crashed statement MUST survive.

   Sweep width per site defaults to 25 seeds, widened via
   GAPPLY_CRASH_SEEDS (CI runs 100 per site).  Separate tests cover a
   crash mid-[load_tpch] and Q1-Q4 equivalence on a recovered TPC-H
   database. *)

let counter = ref 0

let tmpdir () =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gapply_crash_%d_%d" (Unix.getpid ()) !counter)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  else Unix.mkdir dir 0o755;
  dir

let sweep_width default =
  match Sys.getenv_opt "GAPPLY_CRASH_SEEDS" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let digest db = Recovery.db_digest (Engine.catalog db)

(* 23 statements, literals varied by seed so WAL contents differ across
   the sweep *)
let script seed =
  let v i = (seed * 31 + i * 17) mod 1000 in
  [
    "create table c0 (a int, b int, primary key (a))";
    "create table c1 (a int, b int)";
  ]
  @ List.concat
      (List.init 9 (fun i ->
           [
             Printf.sprintf "insert into c0 values (%d, %d)" (v i + i * 1000)
               (v (i + 1));
             Printf.sprintf "insert into c1 values (%d, %d)" (v (i + 2))
               (v (i + 3));
           ]))
  @ [ "create index c0_a on c0 (a)"; "drop table c1";
      Printf.sprintf "insert into c0 values (%d, %d)" (100_000 + seed) 0 ]

(* events per site along this script under strict durability: every
   statement appends + fsyncs one record; the ~300-byte auto-checkpoint
   threshold yields a handful of Rename/Checkpoint events *)
let nth_range = function
  | Fault.Append | Fault.Fsync -> 24
  | Fault.Rename | Fault.Checkpoint -> 4

type verdict = {
  crashed : bool;
  exact : bool;        (* recovered = acknowledged prefix *)
  with_lost_ack : bool;  (* recovered = prefix + crashed statement *)
  quarantined : Errors.recovery_violation option;
}

let run_one ~site ~seed : verdict =
  let dir = tmpdir () in
  let reference = Engine.create () in
  let durable =
    Engine.create ~data_dir:dir ~durability:Store.Strict
      ~checkpoint_wal_bytes:300 ()
  in
  Fault.arm_crash
    { Fault.cseed = seed; csite = site; cnth = 1 + (seed mod nth_range site) };
  let crashed_stmt = ref None in
  let rec go = function
    | [] -> ()
    | sql :: rest -> (
        match Engine.exec durable sql with
        | exception Fault.Crash _ -> crashed_stmt := Some sql
        | Engine.Failed e -> raise e  (* script statements are all valid *)
        | _ -> (
            (* acknowledged: fold into the reference *)
            match Engine.exec reference sql with
            | Engine.Failed e -> raise e
            | _ -> go rest))
  in
  go (script seed);
  Fault.disarm_crash ();
  let committed = digest reference in
  let lost_ack =
    match !crashed_stmt with
    | None -> committed
    | Some sql -> (
        match Engine.exec reference sql with
        | Engine.Failed e -> raise e
        | _ -> digest reference)
  in
  let recovered = Engine.create ~data_dir:dir () in
  let actual = digest recovered in
  let quarantined =
    match Engine.recovery_outcome recovered with
    | Some o -> o.Recovery.quarantined
    | None -> None
  in
  Engine.close recovered;
  Engine.close durable;
  {
    crashed = !crashed_stmt <> None;
    exact = actual = committed;
    with_lost_ack = actual = lost_ack;
    quarantined;
  }

let run_site_sweep site () =
  let seeds = sweep_width 25 in
  let fired = ref 0 in
  for seed = 1 to seeds do
    let v = run_one ~site ~seed in
    let label fmt =
      Printf.ksprintf
        (fun s ->
          Printf.sprintf "%s seed %d: %s"
            (Fault.crash_site_to_string site)
            seed s)
        fmt
    in
    Alcotest.(check bool)
      (label "recovered state is the committed prefix (or its lost-ack \
              extension)")
      true
      (v.exact || v.with_lost_ack);
    if v.crashed then begin
      incr fired;
      (match site with
      | Fault.Append ->
          Alcotest.(check bool) (label "torn append must not survive") true
            v.exact;
          (match v.quarantined with
          | Some q ->
              Alcotest.(check bool) (label "tail quarantined as Torn_tail")
                true
                (q.Errors.rkind = Errors.Torn_tail)
          | None -> Alcotest.fail (label "expected a quarantined tail"))
      | Fault.Fsync ->
          Alcotest.(check bool) (label "dropped record must not survive")
            true v.exact;
          Alcotest.(check bool) (label "no tear: un-synced bytes vanished")
            true (v.quarantined = None)
      | Fault.Rename | Fault.Checkpoint ->
          Alcotest.(check bool)
            (label "record synced before the crash must survive") true
            v.with_lost_ack)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s: the sweep actually fired (%d/%d)"
       (Fault.crash_site_to_string site)
       !fired seeds)
    true (!fired > 0)

(* ---------- crash mid-transaction sweeps ---------- *)

(* A script with an explicit transaction in the middle.  Statements
   between BEGIN and COMMIT do no WAL work (they stage in memory), so
   an injected crash lands either on an autocommit statement or inside
   COMMIT's contiguous group append — the window where a transaction
   can be half-durable.  The acceptance sharpens the committed-prefix
   rule to transaction granularity:

     digest(recovered) IN { committed, committed + whole crashed unit }

   where the crashed unit is the entire transaction when the crash hit
   COMMIT — a *strict partial* transaction (some of its inserts, not
   all) must never be visible after recovery.  Every insert carries a
   distinct literal, so a partial transaction digests differently from
   both accepted states. *)

type tstep = Auto of string | Begin | Staged of string | Commit

let txn_script seed =
  let v i = (seed * 37 + i * 13) mod 1000 in
  [
    Auto "create table c0 (a int, b int)";
    Auto "create table c1 (a int, b int)";
    Auto (Printf.sprintf "insert into c0 values (%d, %d)" (v 0) (v 1));
    Auto (Printf.sprintf "insert into c1 values (%d, %d)" (v 2) (v 3));
    Auto (Printf.sprintf "insert into c0 values (%d, %d)" (v 4) (v 5));
    Begin;
    Staged (Printf.sprintf "insert into c0 values (%d, %d)" (10_000 + seed) 1);
    Staged (Printf.sprintf "insert into c1 values (%d, %d)" (20_000 + seed) 2);
    Staged (Printf.sprintf "insert into c0 values (%d, %d)" (30_000 + seed) 3);
    Commit;
    Auto (Printf.sprintf "insert into c1 values (%d, %d)" (v 6) (v 7));
    Auto (Printf.sprintf "insert into c0 values (%d, %d)" (v 8) (v 9));
  ]

(* WAL events along txn_script under strict durability: 7 autocommit
   records + the 5-record commit group (begin marker, 3 statements,
   commit marker) for Append; one fsync per autocommit statement + one
   per group for Fsync; a handful of checkpoints under the tiny
   threshold for Rename / Checkpoint. *)
let txn_nth_range = function
  | Fault.Append -> 12
  | Fault.Fsync -> 8
  | Fault.Rename | Fault.Checkpoint -> 3

let run_txn_one ~site ~seed =
  let dir = tmpdir () in
  let reference = Engine.create () in
  let durable =
    Engine.create ~data_dir:dir ~durability:Store.Strict
      ~checkpoint_wal_bytes:300 ()
  in
  let dsess = Engine.new_session durable in
  Fault.arm_crash
    {
      Fault.cseed = seed;
      csite = site;
      cnth = 1 + (seed mod txn_nth_range site);
    };
  (* the crashed unit: the statements that were in flight (one for an
     autocommit statement, the whole transaction for COMMIT) *)
  let crashed_unit = ref [] in
  let did_crash = ref false in
  let pending = ref [] in
  let fold sql =
    match Engine.exec reference sql with
    | Engine.Failed e -> raise e
    | _ -> ()
  in
  let rec go = function
    | [] -> ()
    | step :: rest -> (
        let sql, on_ack, unit_if_crash =
          match step with
          | Auto sql -> (sql, (fun () -> fold sql), [ sql ])
          | Begin -> ("begin", (fun () -> pending := []), [])
          | Staged sql ->
              (sql, (fun () -> pending := sql :: !pending), [])
          | Commit ->
              ( "commit",
                (fun () -> List.iter fold (List.rev !pending)),
                List.rev !pending )
        in
        match Engine.exec_session dsess sql with
        | exception Fault.Crash _ ->
            did_crash := true;
            crashed_unit := unit_if_crash
        | Engine.Failed e -> raise e
        | _ ->
            on_ack ();
            go rest)
  in
  go (txn_script seed);
  Fault.disarm_crash ();
  let committed = digest reference in
  List.iter fold !crashed_unit;
  let lost_ack = digest reference in
  let recovered = Engine.create ~data_dir:dir () in
  let actual = digest recovered in
  let quarantined =
    match Engine.recovery_outcome recovered with
    | Some o -> o.Recovery.quarantined
    | None -> None
  in
  Engine.close recovered;
  Engine.close durable;
  ( !crashed_unit,
    {
      crashed = !did_crash;
      exact = actual = committed;
      with_lost_ack = actual = lost_ack;
      quarantined;
    } )

let run_txn_site_sweep site () =
  let seeds = sweep_width 25 in
  let fired_in_commit = ref 0 in
  for seed = 1 to seeds do
    let unit, v = run_txn_one ~site ~seed in
    let label s =
      Printf.sprintf "txn %s seed %d: %s"
        (Fault.crash_site_to_string site)
        seed s
    in
    Alcotest.(check bool)
      (label
         "recovered = committed prefix, or prefix + the whole crashed \
          unit — never a partial transaction")
      true
      (v.exact || v.with_lost_ack);
    (* a crash inside COMMIT's group append must never leave a partial
       transaction: Append tears the group (quarantined whole), Fsync
       drops the un-synced group *)
    if List.length unit > 1 then begin
      incr fired_in_commit;
      match site with
      | Fault.Append | Fault.Fsync ->
          Alcotest.(check bool)
            (label "the in-flight transaction must not survive") true v.exact
      | Fault.Rename | Fault.Checkpoint ->
          (* these fire after the group was appended + synced (inside
             the checkpoint it triggered): the lost-ack window, the
             whole transaction survives *)
          Alcotest.(check bool)
            (label "the fully durable transaction survives whole") true
            v.with_lost_ack
    end
  done;
  (* Append and Fsync sweeps must actually exercise the mid-commit
     window (Rename/Checkpoint may fire there or on a later statement
     depending on the checkpoint cadence) *)
  match site with
  | Fault.Append | Fault.Fsync ->
      Alcotest.(check bool)
        (Printf.sprintf "txn %s: the sweep hit the commit window (%d/%d)"
           (Fault.crash_site_to_string site)
           !fired_in_commit seeds)
        true (!fired_in_commit > 0)
  | _ -> ()

(* A crash between BEGIN and COMMIT — the engine dies with a
   transaction open but nothing of it logged: recovery yields exactly
   the pre-transaction prefix.  Staging is memory-only, so this holds
   by construction; the test pins it against regressions that would
   log staged statements eagerly. *)
let test_crash_with_open_txn_commits_nothing () =
  let dir = tmpdir () in
  let durable = Engine.create ~data_dir:dir ~durability:Store.Strict () in
  let reference = Engine.create () in
  List.iter
    (fun sql ->
      (match Engine.exec durable sql with
      | Engine.Failed e -> raise e
      | _ -> ());
      match Engine.exec reference sql with
      | Engine.Failed e -> raise e
      | _ -> ())
    [ "create table t (a int)"; "insert into t values (1)" ];
  let sess = Engine.new_session durable in
  Support.session_ok sess "begin";
  Support.session_ok sess "insert into t values (2)";
  Support.session_ok sess "insert into t values (3)";
  (* abandon mid-transaction: no commit, no close *)
  let recovered = Engine.create ~data_dir:dir () in
  Alcotest.(check string) "only the pre-transaction prefix recovered"
    (digest reference) (digest recovered);
  (match Engine.recovery_outcome recovered with
  | Some o ->
      Alcotest.(check bool) "nothing to quarantine" true
        (o.Recovery.quarantined = None)
  | None -> Alcotest.fail "expected a recovery outcome");
  Engine.close recovered;
  Engine.close durable

(* ---------- crash mid bulk load ---------- *)

let test_crash_during_load_tpch () =
  let dir = tmpdir () in
  let durable = Engine.create ~data_dir:dir () in
  Fault.arm_crash { Fault.cseed = 1; csite = Fault.Append; cnth = 1 };
  (match Engine.load_tpch durable ~msf:0.05 with
  | () -> Alcotest.fail "expected the load to crash"
  | exception Fault.Crash _ -> ());
  Fault.disarm_crash ();
  let recovered = Engine.create ~data_dir:dir () in
  Alcotest.(check (list string))
    "the unacknowledged load left nothing behind" []
    (Catalog.table_names (Engine.catalog recovered));
  Engine.close recovered;
  Engine.close durable

(* ---------- recovered TPC-H database answers Q1-Q4 ---------- *)

let rel_testable = Alcotest.testable Relation.pp Relation.equal_as_multiset

let test_recovered_tpch_runs_q1_q4 () =
  let dir = tmpdir () in
  let durable = Engine.create ~data_dir:dir () in
  Engine.load_tpch durable ~msf:0.1;
  (* checkpoint so the snapshot codec carries the full TPC-H schema
     (keys, indexes, floats) — recovery then loads it rather than
     replaying the log *)
  ignore (Engine.checkpoint durable);
  Engine.close durable;
  let recovered = Engine.create ~data_dir:dir () in
  (match Engine.recovery_outcome recovered with
  | Some o ->
      Alcotest.(check bool) "snapshot loaded" true o.Recovery.snapshot_loaded
  | None -> Alcotest.fail "expected a recovery outcome");
  let clean = Engine.create () in
  Engine.load_tpch clean ~msf:0.1;
  List.iter
    (fun (name, q, _) ->
      Alcotest.check rel_testable name (Engine.query clean q)
        (Engine.query recovered q))
    Workloads.figure8_queries;
  Engine.close recovered

let suite =
  [
    Alcotest.test_case "crash sweep at Append (torn record)" `Quick
      (run_site_sweep Fault.Append);
    Alcotest.test_case "crash sweep at Fsync (dropped page cache)" `Quick
      (run_site_sweep Fault.Fsync);
    Alcotest.test_case "crash sweep at Rename (orphan snapshot temp)" `Quick
      (run_site_sweep Fault.Rename);
    Alcotest.test_case "crash sweep at Checkpoint (snapshot + stale WAL)"
      `Quick
      (run_site_sweep Fault.Checkpoint);
    Alcotest.test_case "txn crash sweep at Append (torn commit group)" `Quick
      (run_txn_site_sweep Fault.Append);
    Alcotest.test_case "txn crash sweep at Fsync (dropped commit group)"
      `Quick (run_txn_site_sweep Fault.Fsync);
    Alcotest.test_case "txn crash sweep at Rename (lost-ack commit)" `Quick
      (run_txn_site_sweep Fault.Rename);
    Alcotest.test_case "txn crash sweep at Checkpoint (lost-ack commit)"
      `Quick (run_txn_site_sweep Fault.Checkpoint);
    Alcotest.test_case "crash with an open transaction commits nothing"
      `Quick test_crash_with_open_txn_commits_nothing;
    Alcotest.test_case "crash mid load_tpch commits nothing" `Quick
      test_crash_during_load_tpch;
    Alcotest.test_case "recovered TPC-H database answers Q1-Q4" `Quick
      test_recovered_tpch_runs_q1_q4;
  ]
