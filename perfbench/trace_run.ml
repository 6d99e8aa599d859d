(* Per-layer metrics from the traced replay of every workload (see
   [Traced] for the replay itself and [Layers] for what each metric
   should move).  Layer times are means per op over the replay; counts
   are totals over the replay unless named per op. *)

let report_ops = 20
let oltp_ops = 2000
let publish_ops = 12

type result = {
  metrics : (string * float) list;  (** unprefixed names *)
  counts : (string * string) list;  (** seed-determined, for the self-test *)
  spans : Traced.recorder;
  wrong : int;
  replayed : int;
}

let timed f =
  let t0 = Metrics.now_ns () in
  let x = f () in
  (x, Proc.ms_of_ns (Metrics.now_ns () - t0))

let per n x = x /. float_of_int n
let ns_to_us ns = float_of_int ns /. 1e3
let ns_to_ms ns = float_of_int ns /. 1e6
let get t k = Option.value ~default:0 (Hashtbl.find_opt t k)

(* Layer self time per op, from the traced pass. *)
let layer_metrics ~n (rec_ : Traced.recorder) =
  let self = Traced.self_by_name rec_ in
  fun name unit_ ->
    let ns = get self name in
    per n (if unit_ = `Us then ns_to_us ns else ns_to_ms ns)

let op_metrics ~n (acc : Traced.acc) =
  Hashtbl.fold
    (fun fam ns l -> (Printf.sprintf "exec.op.%s.self_ms" fam, per n (ns_to_ms ns)) :: l)
    acc.Traced.op_self []

let gc_metrics ~n (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    ("gc.minor_collections_per_op",
      per n (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)));
    ("gc.major_collections_per_op",
      per n (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
  ]

(* The untraced and traced passes, each on a fresh engine from
   [engine], after [warm] ops replayed untraced on that engine. *)
let two_passes ~engine ~warm ops =
  let db_u = engine () in
  ignore (Traced.layered_pass (Traced.recorder false) db_u warm);
  let g0 = Gc.quick_stat () in
  let acc_u, untraced_ms =
    timed (fun () -> Traced.layered_pass (Traced.recorder false) db_u ops)
  in
  let g1 = Gc.quick_stat () in
  let db_t = engine () in
  ignore (Traced.layered_pass (Traced.recorder false) db_t warm);
  let rec_ = Traced.recorder true in
  let acc_t, traced_ms = timed (fun () -> Traced.layered_pass rec_ db_t ops) in
  Engine.close db_u;
  Engine.close db_t;
  (acc_u, acc_t, rec_, (g0, g1), (traced_ms -. untraced_ms) /. untraced_ms)

(* ---------- the wire pass ---------- *)

(* [key=N] anywhere in a space-separated report line. *)
let int_field line key =
  List.find_map
    (fun w ->
      match Scanf.sscanf_opt w "%s@=%d%!" (fun k v -> (k, v)) with
      | Some (k, v) when k = key -> Some v
      | _ -> None)
    (String.split_on_char ' ' line)

(* Replay the ops over the wire, one thread, one connection per
   workload connection; then time trivial meta round trips.  Returns
   per-op latencies, the round-trip median, the server's admitted/shed
   counters from its drain report, and the number of wrong answers. *)
let wire_pass ~server ~args ~setup ~warm (ops : Traced.rop list) =
  let s, _ = Wire_load.start_server ~exe:server ~args ~setup in
  let conns = 1 + List.fold_left (fun m o -> max m o.Traced.conn) 0 ops in
  let clients = Array.init conns (fun _ -> Net_client.connect ~port:s.Proc.port ()) in
  List.iter
    (fun (o : Traced.rop) ->
      List.iter (fun st -> ignore (Net_client.query clients.(0) st.Traced.sql)) o.Traced.stmts)
    warm;
  let wrong = ref 0 in
  let lat =
    Array.of_list
      (List.map
         (fun (o : Traced.rop) ->
           let c = clients.(o.Traced.conn) in
           let answers, ms =
             timed (fun () ->
                 List.map (fun st -> Net_client.query c st.Traced.sql) o.Traced.stmts)
           in
           let ok =
             List.for_all2
               (fun st a ->
                 match a with
                 | Wire.Rows { count; body } ->
                     (not st.Traced.write) && st.Traced.check count body
                 | Wire.Message _ -> st.Traced.write
                 | _ -> false)
               o.Traced.stmts answers
           in
           if not ok then incr wrong;
           ms)
         ops)
  in
  let rt =
    Array.init 200 (fun _ ->
        snd (timed (fun () -> ignore (Net_client.meta clients.(0) "\\cache"))) *. 1e3)
  in
  Array.iter (fun c -> ignore (Net_client.quit c)) clients;
  let lines = Proc.stop s in
  let counter key =
    match List.find_map (fun l -> int_field l key) lines with
    | Some v -> float_of_int v
    | None -> Proc.fail "no %s= in the server's drain report" key
  in
  (lat, Stats.median rt, counter "admitted", counter "shed", !wrong)

(* ---------- report and oltp ---------- *)

let statement_workload ~server ~with_wire ~n ~ops_of ~engine ~warm_n ~args ~setup
    ~store =
  let loads = Stats.buf () in
  let engine () =
    let db, ms = engine () in
    Stats.push loads ms;
    db
  in
  let db_ref, ops = ops_of engine in
  let warm = List.filteri (fun i _ -> i < warm_n) ops in
  let acc_u, acc_t, rec_, (g0, g1), overhead = two_passes ~engine ~warm ops in
  (* the engine's own path, plan cache included *)
  let db_e = if warm_n > 0 then db_ref else engine () in
  let cat_e = Engine.catalog db_e in
  let cache_stats () = Cache_stats.snapshot (Plan_cache.stats (Engine.plan_cache db_e)) in
  let cs0 = cache_stats () in
  let ep0 = Catalog.stats_epoch cat_e in
  let wal0 = Engine.wal_stats db_e in
  let acc_e = Traced.engine_pass db_e ops in
  let cs = Cache_stats.diff (cache_stats ()) cs0 in
  let epoch_bumps = Catalog.stats_epoch cat_e - ep0 in
  let layer = layer_metrics ~n rec_ in
  let op_ms = Traced.root_durations rec_ in
  let wire_metrics, wire_wrong =
    if not with_wire then ([], 0)
    else
      let lat, rt_us, admitted, shed, wrong =
        wire_pass ~server ~args:(args ()) ~setup ~warm ops
      in
      ( [
          ("net.wire_p50_ms", Stats.percentile lat 0.5);
          ("net.wire_p99_ms", Stats.percentile lat 0.99);
          ("net.roundtrip_us", rt_us);
          ("net.unaccounted_ms", Stats.percentile lat 0.5 -. Stats.median op_ms);
          ("net.admitted", admitted);
          ("net.shed", shed);
        ],
        wrong )
  in
  let store_metrics, store_counts = store ~db_e ~wal0 ops in
  let lookups = cs.Cache_stats.hits + cs.Cache_stats.misses in
  let metrics =
    [
      ("tpch.load_ms", Stats.median (Stats.contents loads));
      ("sql.parse_us", layer "sql.parse" `Us);
      ("sql.bind_us", layer "sql.bind" `Us);
      ("storage.stats_ms", layer "storage.stats" `Ms);
      ("storage.stats_epoch_bumps", float_of_int epoch_bumps);
      ("optimizer.optimize_us", layer "optimizer.optimize" `Us);
      ("optimizer.rules_fired", per n (float_of_int acc_t.Traced.rules));
      ("exec.compile_us", layer "exec.compile" `Us);
      ("exec.run_ms", layer "exec.run" `Ms);
      ("exec.minor_words_per_row",
        acc_u.Traced.minor_words /. float_of_int (max 1 acc_u.Traced.rows));
      ("exec.promoted_words", per n acc_u.Traced.promoted_words);
      ("relcore.render_ms", layer "relcore.render" `Ms);
      ("net.response_bytes", per n (float_of_int acc_t.Traced.bytes));
      ("net.encode_us", layer "net.encode" `Us);
      ("core.plan_cache.hit_ratio",
        if lookups = 0 then 0. else float_of_int cs.Cache_stats.hits /. float_of_int lookups);
      ("core.plan_cache.evictions", float_of_int cs.Cache_stats.evictions);
      ("core.plan_cache.invalidations", float_of_int cs.Cache_stats.invalidations);
      ("trace.op_ms", Stats.mean op_ms);
      ("trace.overhead_frac", overhead);
    ]
    @ (if cs.Cache_stats.misses = 0 then []
       else
         [
           ("core.plan_cache.prepare_us_per_miss",
             ns_to_us cs.Cache_stats.prepare_ns /. float_of_int cs.Cache_stats.misses);
         ])
    @ gc_metrics ~n g0 g1 @ op_metrics ~n acc_t @ wire_metrics @ store_metrics
  in
  let counts =
    [
      ("sequence", Traced.sequence_digest ops);
      ("rows", string_of_int acc_u.Traced.rows);
      ("response_bytes", string_of_int acc_u.Traced.bytes);
      ("plan_cache_hits", string_of_int cs.Cache_stats.hits);
      ("plan_cache_misses", string_of_int cs.Cache_stats.misses);
      ("minor_words", Printf.sprintf "%.0f" acc_u.Traced.minor_words);
    ]
    @ store_counts
  in
  {
    metrics;
    counts;
    spans = rec_;
    wrong = acc_u.Traced.wrong + acc_t.Traced.wrong + acc_e.Traced.wrong + wire_wrong;
    replayed = 3 * n + if with_wire then n else 0;
  }

let memory_engine () =
  let db = Engine.create () in
  let (), ms = timed (fun () -> Engine.load_tpch db ~msf:Ops.msf) in
  (db, ms)

let report ~server ~seed ~with_wire =
  statement_workload ~server ~with_wire ~n:report_ops ~warm_n:1
    ~engine:memory_engine
    ~ops_of:(fun engine ->
      (* the reference run is also the engine pass's warm-up: all five
         texts are cached before counting starts *)
      let db = engine () in
      (db, Traced.report_ops ~seed ~n:report_ops (Check.report_reference db)))
    ~args:Wire_load.report_args ~setup:Wire_load.report_setup
    ~store:(fun ~db_e:_ ~wal0:_ _ -> ([], []))

let oltp ~server ~seed ~with_wire =
  let strict_engine () =
    let dir = Proc.fresh_dir "trace-oltp" in
    let db = Engine.create ~data_dir:dir ~durability:Store.Strict () in
    let (), ms = timed (fun () -> Engine.load_tpch db ~msf:Ops.msf) in
    List.iter (fun s -> ignore (Engine.exec db s))
      (List.concat_map Ops.oltp_setup_sql (List.init Ops.oltp_conns Fun.id));
    (db, ms)
  in
  (* WAL traffic of exactly the engine pass's replay, then recovery of
     the directory it leaves *)
  let store ~db_e ~wal0 (ops : Traced.rop list) =
    let wal1 = Option.get (Engine.wal_stats db_e) in
    let wal0 = Option.get wal0 in
    let writes =
      List.concat_map
        (fun (o : Traced.rop) -> List.filter (fun st -> st.Traced.write) o.Traced.stmts)
        ops
    in
    let user_bytes = List.fold_left (fun b st -> b + st.Traced.user_bytes) 0 writes in
    let inserts = List.length writes in
    let dir = Option.get (Engine.data_dir db_e) in
    Engine.close db_e;
    let recovery =
      Array.init 3 (fun _ ->
          let db, ms =
            timed (fun () -> Engine.create ~data_dir:dir ~durability:Store.Strict ())
          in
          Engine.close db;
          ms)
    in
    ( [
        ("store.wal_bytes_per_user_byte",
          float_of_int (wal1.Wal_stats.bytes - wal0.Wal_stats.bytes)
          /. float_of_int user_bytes);
        ("store.fsyncs_per_write",
          float_of_int (wal1.Wal_stats.fsyncs - wal0.Wal_stats.fsyncs) /. float_of_int inserts);
        ("store.recovery_ms", Stats.median recovery);
      ],
      [ ("wal_appends", string_of_int (wal1.Wal_stats.appends - wal0.Wal_stats.appends)) ] )
  in
  let res =
    statement_workload ~server ~with_wire ~n:oltp_ops ~warm_n:0 ~engine:strict_engine
      ~ops_of:(fun _ ->
        let db = Engine.create () in
        Engine.load_tpch db ~msf:Ops.msf;
        (db, Traced.oltp_ops ~seed ~n:oltp_ops (Check.oltp_reference ~seed db)))
      ~args:(fun () -> Wire_load.oltp_args (Proc.fresh_dir "trace-wire") ())
      ~setup:Wire_load.oltp_setup ~store
  in
  (* a commit's latency: the median INSERT span *)
  let commits =
    Array.of_list
      (List.filter_map
         (fun (s : Traced.span) ->
           if s.Traced.name = "store.commit" then Some (ns_to_us (Traced.dur s)) else None)
         res.spans.Traced.spans)
  in
  { res with metrics = res.metrics @ [ ("store.commit_us", Stats.median commits) ] }

(* ---------- publish ---------- *)

let publish ~seed =
  let loads =
    Array.init 3 (fun _ -> snd (timed (fun () -> Tpch_gen.catalog ~msf:Ops.msf ())))
  in
  let cat = Tpch_gen.catalog ~msf:Ops.msf () in
  let reference = Docs.reference cat in
  let gen = Ops.publish_gen ~seed in
  let docs = List.init publish_ops (fun _ -> gen ()) in
  let n = publish_ops in
  let warm = [ Ops.publish_docs ] in
  let pass on = Traced.publish_pass (Traced.recorder on) cat reference in
  ignore (pass false warm);
  let g0 = Gc.quick_stat () in
  let (acc_u, _), untraced_ms = timed (fun () -> pass false docs) in
  let g1 = Gc.quick_stat () in
  let rec_ = Traced.recorder true in
  let (acc_t, bytes), traced_ms =
    timed (fun () -> Traced.publish_pass rec_ cat reference docs)
  in
  let layer = layer_metrics ~n rec_ in
  let op_ms = Traced.root_durations rec_ in
  let per_strategy st =
    let docs_of_st = n * 3 in
    [
      ("xmlpub.plan_us." ^ st, layer ("xmlpub.plan." ^ st) `Us);
      ("xmlpub.tag_ms." ^ st, layer ("xmlpub.tag." ^ st) `Ms);
      ("xmlpub.bytes_per_doc." ^ st, per docs_of_st (float_of_int (get bytes st)));
    ]
  in
  let metrics =
    [ ("tpch.load_ms", Stats.median loads) ]
    @ per_strategy "outer_union" @ per_strategy "gapply"
    @ [
        ("exec.compile_us", layer "exec.compile" `Us);
        ("exec.run_ms", layer "exec.run" `Ms);
        ("exec.minor_words_per_row",
          acc_u.Traced.minor_words /. float_of_int (max 1 acc_u.Traced.rows));
        ("exec.promoted_words", per n acc_u.Traced.promoted_words);
        ("trace.op_ms", Stats.mean op_ms);
        ("trace.residual_ms", layer "op" `Ms);
        ("trace.overhead_frac", (traced_ms -. untraced_ms) /. untraced_ms);
      ]
    @ gc_metrics ~n g0 g1 @ op_metrics ~n acc_t
  in
  (* the layer self times plus the residual make up the traced op time *)
  let v k = List.assoc k metrics in
  let layers_ms =
    ((v "xmlpub.plan_us.outer_union" +. v "xmlpub.plan_us.gapply"
     +. v "exec.compile_us")
     /. 1e3)
    +. v "xmlpub.tag_ms.outer_union" +. v "xmlpub.tag_ms.gapply" +. v "exec.run_ms"
  in
  let gap = Float.abs (layers_ms +. v "trace.residual_ms" -. v "trace.op_ms") in
  let identity_ok = gap <= 1e-6 *. v "trace.op_ms" in
  Printf.printf
    "publish traced op: layers %.6f ms + residual %.6f ms = %.6f ms (traced op %.6f ms)%s\n"
    layers_ms (v "trace.residual_ms") (layers_ms +. v "trace.residual_ms") (v "trace.op_ms")
    (if identity_ok then "" else " MISMATCH");
  let counts =
    [
      ("sequence",
        Digest.to_hex
          (Digest.string (String.concat ";" (List.concat_map (List.map Ops.doc_name) docs))));
      ("rows", string_of_int acc_u.Traced.rows);
      ("document_bytes", string_of_int acc_u.Traced.bytes);
      ("minor_words", Printf.sprintf "%.0f" acc_u.Traced.minor_words);
    ]
  in
  {
    metrics;
    counts;
    spans = rec_;
    wrong = acc_u.Traced.wrong + acc_t.Traced.wrong + (if identity_ok then 0 else 1);
    replayed = 2 * n;
  }
