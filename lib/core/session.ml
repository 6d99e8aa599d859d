(* A multi-session workload driver over one shared engine.

   Each session executes its own statement trace (queries + DML) against
   the same catalog and the same plan cache.  [run ~concurrent:true]
   maps sessions over the shared domain pool so cache lookups, hits and
   invalidations genuinely interleave; [~concurrent:false] replays the
   identical traces sequentially — the stress tests compare the two
   run-for-run via per-session result digests.

   Sessions that run DML concurrently must write to session-private
   tables (the engine serializes DDL/DML statement bodies, but two
   writers to one table would still interleave row order
   nondeterministically).  Shared tables should be read-only during a
   concurrent run. *)

type session_result = {
  id : int;
  statements : int;
  rows : int;               (* total result rows across the trace *)
  errors : int;             (* statements that failed with a typed error *)
  digest : int;             (* order-sensitive hash of every outcome *)
  latencies_ns : int array; (* one entry per statement *)
}

type report = {
  sessions : int;
  statements : int;
  elapsed_ns : int;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  cache : Cache_stats.snapshot;  (* delta attributable to this run *)
  results : session_result array;
}

let combine h x = (h * 31) + x [@@inline]

(* Failed statements are digested by error *class* (exception
   constructor / violation kind, see [Errors.error_class]), not by
   message: violation details embed accounted byte counts and timings
   that legitimately vary between a concurrent run and its sequential
   replay. *)
let digest_outcome acc (o : Engine.outcome) =
  match o with
  | Engine.Rows rel ->
      Array.fold_left
        (fun h row -> combine h (Tuple.hash row))
        (combine acc 1) (Relation.rows_array rel)
  | Engine.Message m -> combine (combine acc 2) (Hashtbl.hash m)
  | Engine.Explanation e -> combine (combine acc 3) (Hashtbl.hash e)
  | Engine.Failed e -> combine (combine acc 4) (Hashtbl.hash (Errors.error_class e))

let rows_of_outcome = function
  | Engine.Rows rel -> Relation.cardinality rel
  | Engine.Message _ | Engine.Explanation _ | Engine.Failed _ -> 0

let run_session db ~id stmts =
  (* each simulated client gets its own engine session, so traces can
     BEGIN/COMMIT without sharing transaction state across domains —
     a writer session's open transaction never blocks sibling readers
     (they read their own snapshots and never take the commit lock) *)
  let sess = Engine.new_session db in
  let stmts = Array.of_list stmts in
  let latencies = Array.make (Array.length stmts) 0 in
  let digest = ref 0 and rows = ref 0 and errors = ref 0 in
  Array.iteri
    (fun i src ->
      let t0 = Metrics.now_ns () in
      (* a statement failing (typed error, parse error...) must not take
         its session — let alone its siblings — down with it *)
      let outcome =
        try Engine.exec_session sess src
        with e when Errors.is_engine_error e -> Engine.Failed e
      in
      latencies.(i) <- Metrics.now_ns () - t0;
      digest := digest_outcome !digest outcome;
      rows := !rows + rows_of_outcome outcome;
      match outcome with Engine.Failed _ -> incr errors | _ -> ())
    stmts;
  {
    id;
    statements = Array.length stmts;
    rows = !rows;
    errors = !errors;
    digest = !digest;
    latencies_ns = latencies;
  }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
    float_of_int sorted.(max 0 (min (n - 1) idx))

let run ?(concurrent = true) (db : Engine.t) ~sessions ~script : report =
  let sessions = max 1 sessions in
  let before = Cache_stats.snapshot (Plan_cache.stats (Engine.plan_cache db)) in
  let ids = Array.init sessions (fun i -> i) in
  let t0 = Metrics.now_ns () in
  let results =
    match if concurrent then Domain_pool.for_parallelism sessions else None with
    | Some pool ->
        Domain_pool.parallel_map_array pool
          (fun id -> run_session db ~id (script id))
          ids
    | None -> Array.map (fun id -> run_session db ~id (script id)) ids
  in
  let elapsed_ns = Metrics.now_ns () - t0 in
  let after = Cache_stats.snapshot (Plan_cache.stats (Engine.plan_cache db)) in
  let statements =
    Array.fold_left
      (fun acc (r : session_result) -> acc + r.statements)
      0 results
  in
  let all_latencies =
    Array.concat (Array.to_list (Array.map (fun r -> r.latencies_ns) results))
  in
  Array.sort compare all_latencies;
  {
    sessions;
    statements;
    elapsed_ns;
    qps =
      (if elapsed_ns = 0 then 0.
       else float_of_int statements /. (float_of_int elapsed_ns /. 1e9));
    p50_ms = percentile all_latencies 0.50 /. 1e6;
    p99_ms = percentile all_latencies 0.99 /. 1e6;
    cache = Cache_stats.diff after before;
    results;
  }

let equal_results (a : session_result array) (b : session_result array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : session_result) (y : session_result) ->
         x.id = y.id && x.statements = y.statements && x.rows = y.rows
         && x.errors = y.errors && x.digest = y.digest)
       a b

let pp_report ppf (r : report) =
  let errors =
    Array.fold_left (fun acc (x : session_result) -> acc + x.errors) 0 r.results
  in
  Format.fprintf ppf
    "@[<v>sessions=%d statements=%d errors=%d elapsed=%s qps=%.0f p50=%.3fms \
     p99=%.3fms@,cache: %a@]"
    r.sessions r.statements errors
    (Pretty.duration_ns r.elapsed_ns)
    r.qps r.p50_ms r.p99_ms Cache_stats.pp r.cache
