(* The repository benchmark: three workloads over the publishing engine,
   measured end to end, with every answer checked.

     perfbench.exe run --workload report|oltp|publish --seed N
                       --seconds S --trace 0|1 --server PATH
     perfbench.exe counts --seed N --server PATH
     perfbench.exe layers

   [run --trace 0] measures one workload untraced and prints its
   end-to-end metrics.  [run --trace 1] replays every workload's seeded
   op sequence single-threaded and in process, timing each layer call,
   and prints the per-layer metrics (see [Layers]); it replays all three
   whatever --workload names, so that every traced run reports every
   per-layer metric.  [counts] prints the seed-determined counts of that
   replay; the benchmark's own test compares them across runs.
   [layers] prints each per-layer metric with the end-to-end metric it
   should move.  All working files live under
   .perfbench_tmp in the working directory and are removed on exit.

   Workloads (all at msf 1, load from this one process):
   - report: 2 connections, closed loop, against gapply_server --tpch 1.
     One op = the Figure 8 Q1-Q4 GApply statements plus a string-keyed
     GApply over part, in a seeded order.  Execution and result
     rendering dominate; the five texts always hit the plan cache.
   - oltp: 2 connections, closed loop, against gapply_server --tpch 1
     with a fresh --data-dir and --durability strict (fsync on every
     commit).  Seeded mix per connection: 45 % hot supplier point reads
     (16 keys), 25 % cold part point reads (2000 keys, more texts than
     the 128-entry plan cache holds), 20 % autocommit single-row
     INSERTs into the connection's own indexed table, 10 % reads of
     that table.  Round trips, planning, cache invalidation, statistics
     rebuilds and fsync dominate.
   - publish: in process, one thread.  One op publishes six documents:
     the Figure 1 view and the Q1 nested view under the sorted outer
     union and the GApply plan through the constant-space tagger, and
     the 3-level customer/orders view under both deep strategies. *)

let setups = 9

(* ---------- report ---------- *)

let warm_report ~port =
  let c = Net_client.connect ~port () in
  List.iter (fun (_, sql) -> ignore (Net_client.query c sql)) Ops.report_statements;
  ignore (Net_client.quit c)

let e2e_metrics ~setup_s ~done_s ~lat ~cpu_ms ~rss =
  let ops = Array.length lat in
  (* with no successful op the run is wrong anyway; keep the result printable *)
  let lat = if ops = 0 then [| 0. |] else lat in
  let open Out in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (Stats.chunked_rate done_s);
    m "p50_ms" "ms" (Stats.percentile lat 0.50);
    m "p90_ms" "ms" (Stats.percentile lat 0.90);
    m "cpu_ms_per_op" "ms" (cpu_ms /. float_of_int (max 1 ops));
    m "peak_rss_mb" "MB" rss;
  ]

let wire_metrics ~setup_s ~rss (run : Wire_load.run) =
  e2e_metrics ~setup_s ~done_s:run.Wire_load.done_s ~lat:run.Wire_load.lat_ms
    ~cpu_ms:run.Wire_load.server_cpu_ms ~rss

let report ~server ~seed ~seconds =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:Ops.msf;
  let r = Check.report_reference db in
  let s, setup_s =
    Wire_load.start_measured ~n:setups ~exe:server ~args:Wire_load.report_args
      ~setup:Wire_load.report_setup
  in
  warm_report ~port:s.Proc.port;
  let gens = Array.init 2 (fun conn -> Ops.report_gen ~seed ~conn) in
  let run =
    Wire_load.closed_loop ~server:s ~conns:2 ~seconds (Wire_load.report_op r gens)
  in
  let rss = Proc.peak_rss_mb s.Proc.pid in
  ignore (Proc.stop s);
  ( run.Wire_load.attempted,
    run.Wire_load.failed,
    true,
    wire_metrics ~setup_s ~rss run,
    [] )

(* ---------- oltp ---------- *)

let oltp ~server ~seed ~seconds =
  let db = Engine.create () in
  Engine.load_tpch db ~msf:Ops.msf;
  let r = Check.oltp_reference ~seed db in
  let dir = ref "" in
  let args () =
    dir := Proc.fresh_dir "oltp";
    Wire_load.oltp_args !dir ()
  in
  let s, setup_s =
    Wire_load.start_measured ~n:setups ~exe:server ~args
      ~setup:Wire_load.oltp_setup
  in
  let conns =
    Array.init 2 (fun conn ->
        { Wire_load.gen = Ops.oltp_gen ~seed ~conn; acked = 0 })
  in
  let run =
    Wire_load.closed_loop ~server:s ~conns:2 ~seconds
      (Wire_load.oltp_op r ~seed conns)
  in
  let rss = Proc.peak_rss_mb s.Proc.pid in
  let live_ok = Wire_load.events_check r ~port:s.Proc.port conns in
  (* durability: crash the server, restart it on the same directory
     without reloading TPC-H, and look for every acknowledged insert *)
  Proc.kill s;
  let t0 = Metrics.now_ns () in
  let s2 =
    Proc.spawn ~exe:server [ "--data-dir"; !dir; "--durability"; "strict" ]
  in
  let restart_s = float_of_int (Metrics.now_ns () - t0) /. 1e9 in
  let durable_ok = Wire_load.events_check r ~port:s2.Proc.port conns in
  ignore (Proc.stop s2);
  Printf.printf
    "oltp: acked inserts %d + %d; live check %b; after SIGKILL + restart \
     (%.3f s) %b\n"
    conns.(0).Wire_load.acked conns.(1).Wire_load.acked live_ok restart_s durable_ok;
  ( run.Wire_load.attempted,
    run.Wire_load.failed,
    live_ok && durable_ok,
    wire_metrics ~setup_s ~rss run,
    [ Out.m "write_p50_ms" "ms" (Stats.percentile run.Wire_load.write_ms 0.5) ] )

(* ---------- publish ---------- *)

let publish ~seed ~seconds =
  let pid = Unix.getpid () in
  let times = Array.make setups 0. in
  let cat = ref (Catalog.create ()) in
  for i = 0 to setups - 1 do
    let t0 = Metrics.now_ns () in
    cat := Tpch_gen.catalog ~msf:Ops.msf ();
    times.(i) <- float_of_int (Metrics.now_ns () - t0) /. 1e9
  done;
  let cat = !cat in
  let r = Docs.reference cat in
  let gen = Ops.publish_gen ~seed in
  let op () =
    let docs = gen () in
    let t0 = Metrics.now_ns () in
    let out = List.map (Docs.publish_streaming cat) docs in
    let ms = Proc.ms_of_ns (Metrics.now_ns () - t0) in
    (ms, List.for_all2 (Docs.doc_ok r) docs out)
  in
  (* the first ops run on a growing heap; let it settle *)
  let warm_until = Metrics.now_ns () + 1_000_000_000 in
  while Metrics.now_ns () < warm_until do ignore (op ()) done;
  let lat = Stats.buf () and done_s = Stats.buf () in
  let attempted = ref 0 and failed = ref 0 in
  let cpu0 = Proc.cpu_ms pid in
  let t0 = Metrics.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  while Metrics.now_ns () < deadline do
    incr attempted;
    let ms, ok = op () in
    if ok then begin
      Stats.push lat ms;
      Stats.push done_s (float_of_int (Metrics.now_ns () - t0) /. 1e9)
    end
    else incr failed
  done;
  let cpu_ms = Proc.cpu_ms pid -. cpu0 in
  ( !attempted,
    !failed,
    true,
    e2e_metrics ~setup_s:(Stats.median times) ~done_s:(Stats.contents done_s)
      ~lat:(Stats.contents lat) ~cpu_ms ~rss:(Proc.peak_rss_mb pid),
    [] )

(* ---------- traced replay ---------- *)

(* Each workload starts from a compacted heap, so that one workload's
   garbage does not shift the next one's allocation counts. *)
let trace_all ~server ~seed ~with_wire =
  List.map
    (fun (w, f) ->
      Gc.compact ();
      (w, f ()))
    [
      ("report", fun () -> Trace_run.report ~server ~seed ~with_wire);
      ("oltp", fun () -> Trace_run.oltp ~server ~seed ~with_wire);
      ("publish", fun () -> Trace_run.publish ~seed);
    ]

(* Every per-layer metric [Layers] lists, in its order.  An operator
   family the plans no longer contain reads 0; one they newly contain is
   reported on its own line but not in the result. *)
let layer_metrics results =
  List.concat_map
    (fun (w, (layers : Layers.t list)) ->
      let computed = (List.assoc w results).Trace_run.metrics in
      List.iter
        (fun (k, v) ->
          if not (List.exists (fun (m : Layers.t) -> m.Layers.name = k) layers) then
            Printf.printf "unlisted %s.%s %f\n" w k v)
        computed;
      List.map
        (fun (m : Layers.t) ->
          let v =
            match List.assoc_opt m.Layers.name computed with
            | Some v -> v
            | None when String.starts_with ~prefix:"exec.op." m.Layers.name -> 0.
            | None -> failwith ("traced run did not compute " ^ Layers.full_name w m)
          in
          Out.m (Layers.full_name w m) m.Layers.unit_ v)
        layers)
    Layers.all

(* All spans of the traced passes, one tab-separated line each. *)
let write_spans ~seed results =
  let dir = ".perfbench_out" in
  Proc.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "spans-seed%d.tsv" seed) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "workload\tid\tparent\top\tname\tstart_ns\tend_ns\n";
      List.iter
        (fun (w, r) -> Traced.write_spans oc ~workload:w r.Trace_run.spans)
        results);
  Printf.printf "spans written to %s\n" path

(* ---------- entry point ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and server = ref "" in
  let mode = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME report | oltp | publish");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced replay");
      ("--server", Arg.Set_string server, "PATH gapply_server executable");
    ]
  in
  Arg.parse spec (fun m -> mode := m) "perfbench.exe (run|counts|layers) [options]";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Out.machine_line ();
  match !mode with
  | "run" when !trace = 0 ->
      let attempted, failed, checks_ok, metrics, extra =
        match !workload with
        | "report" -> report ~server:!server ~seed:!seed ~seconds:!seconds
        | "oltp" -> oltp ~server:!server ~seed:!seed ~seconds:!seconds
        | "publish" -> publish ~seed:!seed ~seconds:!seconds
        | w -> raise (Arg.Bad ("unknown workload " ^ w))
      in
      Printf.printf "workload %s seed %d: %d ops attempted, %d failed\n" !workload
        !seed attempted failed;
      List.iter Out.print_metric
        (metrics
        @ extra
        @ [
            Out.m "failed_frac" "fraction"
              (float_of_int failed /. float_of_int (max 1 attempted));
          ]);
      let correct = checks_ok && failed = 0 && attempted > 0 in
      Out.result_line ~correct ~attempted ~failed metrics;
      if not correct then exit 1
  | "run" ->
      let results = trace_all ~server:!server ~seed:!seed ~with_wire:true in
      write_spans ~seed:!seed results;
      let metrics = layer_metrics results in
      List.iter Out.print_metric metrics;
      let attempted = List.fold_left (fun a (_, r) -> a + r.Trace_run.replayed) 0 results in
      let failed = List.fold_left (fun a (_, r) -> a + r.Trace_run.wrong) 0 results in
      Printf.printf "traced replay seed %d: %d ops replayed, %d wrong\n" !seed
        attempted failed;
      Out.result_line ~correct:(failed = 0) ~attempted ~failed metrics;
      if failed > 0 then exit 1
  | "layers" ->
      (* the per_layer entries of BENCHMARK.json, then each target *)
      List.iter
        (fun (w, layers) ->
          List.iter
            (fun (m : Layers.t) ->
              Printf.printf "%s\t%s\t%s\t%s\n" (Layers.full_name w m) m.Layers.unit_
                (Layers.better_string m.Layers.better) m.Layers.target)
            layers)
        Layers.all
  | "counts" ->
      let results = trace_all ~server:!server ~seed:!seed ~with_wire:false in
      List.iter
        (fun (w, (r : Trace_run.result)) ->
          List.iter (fun (k, v) -> Printf.printf "%s.%s %s\n" w k v) r.Trace_run.counts)
        results
  | _ ->
      prerr_endline "usage: perfbench.exe (run|counts|layers) [options]";
      exit 2
