(* The per-layer metrics of the traced run, with the end-to-end metric
   each one should move and on which workload.  Written down before any
   optimisation is measured: a change to one layer claims a gain on the
   target named here, and the trace must show the saving in that
   layer's numbers.

   Names are "<workload>.<layer>.<measure>"; layers are the lib/
   modules: net (Wire, Admission, Server, Net_client), relcore
   (Relation.pp), sql (Sql_parser, Sql_binder), optimizer, exec
   (Compile, Executor, Batch), core (Engine, Plan_cache), storage
   (Catalog statistics), store (Wal, Store, Recovery), xmlpub (Publish,
   Tagger, Deep_publish), tpch (the generator).  Times are means per op
   of the replay unless the name says otherwise. *)

type better = Lower | Higher

type t = {
  name : string;    (** without the workload prefix *)
  unit_ : string;
  better : better;
  target : string;  (** end-to-end metric(s) it should move *)
}

let l ?(better = Lower) name unit_ target = { name; unit_; better; target }

(* Layers every statement workload goes through. *)
let statement_layers =
  [
    l "tpch.load_ms" "ms" "setup_s";
    l "sql.parse_us" "us" "p50_ms on oltp";
    l "sql.bind_us" "us" "p50_ms on oltp";
    l "storage.stats_ms" "ms" "p50_ms on oltp";
    l "storage.stats_epoch_bumps" "count" "p50_ms on oltp";
    l "optimizer.optimize_us" "us" "p50_ms on oltp";
    l "optimizer.rules_fired" "count" "p50_ms on oltp";
    l "exec.compile_us" "us" "p50_ms on oltp";
    l "exec.run_ms" "ms" "ops_per_s, p50_ms on report";
    l "exec.minor_words_per_row" "words" "cpu_ms_per_op, peak_rss_mb on report";
    l "exec.promoted_words" "words" "cpu_ms_per_op, peak_rss_mb on report";
    l "relcore.render_ms" "ms" "p50_ms, cpu_ms_per_op on report";
    l "net.response_bytes" "bytes" "p50_ms, cpu_ms_per_op on report";
    l "net.encode_us" "us" "p50_ms on report";
    l ~better:Higher "core.plan_cache.hit_ratio" "ratio" "p50_ms, ops_per_s on oltp";
    l "core.plan_cache.evictions" "count" "p50_ms, ops_per_s on oltp";
    l "core.plan_cache.invalidations" "count" "p50_ms, ops_per_s on oltp";
    l "trace.op_ms" "ms" "p50_ms";
    l "trace.overhead_frac" "fraction" "none: tracing cost, reported only";
    l "gc.minor_collections_per_op" "count" "cpu_ms_per_op";
    l "gc.major_collections_per_op" "count" "cpu_ms_per_op";
    l "net.wire_p50_ms" "ms" "p50_ms (one connection, no contention)";
    l "net.wire_p99_ms" "ms" "p90_ms (tail, traced output only)";
    l "net.roundtrip_us" "us" "p50_ms on oltp";
    l "net.unaccounted_ms" "ms" "ops_per_s on report with 2 connections";
    l ~better:Higher "net.admitted" "count" "failed_frac";
    l "net.shed" "count" "failed_frac";
  ]

let op_self families target =
  List.map (fun f -> l (Printf.sprintf "exec.op.%s.self_ms" f) "ms" target) families

let report =
  statement_layers
  @ op_self
      [ "scan"; "group_scan"; "select"; "project"; "join"; "aggregate"; "union";
        "apply"; "gapply" ]
      "ops_per_s on report"

let oltp =
  statement_layers
  @ [
      l "core.plan_cache.prepare_us_per_miss" "us" "p50_ms, ops_per_s on oltp";
      l "store.commit_us" "us" "write_p50_ms on oltp";
      l "store.wal_bytes_per_user_byte" "ratio" "write_p50_ms on oltp";
      l "store.fsyncs_per_write" "count" "write_p50_ms on oltp";
      l "store.recovery_ms" "ms" "setup_s on oltp";
    ]
  @ op_self [ "scan"; "select"; "project" ] "p50_ms on oltp"

let publish =
  [
    l "tpch.load_ms" "ms" "setup_s on publish";
    l "xmlpub.plan_us.outer_union" "us" "ops_per_s on publish";
    l "xmlpub.plan_us.gapply" "us" "ops_per_s on publish";
    l "xmlpub.tag_ms.outer_union" "ms" "ops_per_s on publish";
    l "xmlpub.tag_ms.gapply" "ms" "ops_per_s on publish";
    l "xmlpub.bytes_per_doc.outer_union" "bytes" "ops_per_s on publish";
    l "xmlpub.bytes_per_doc.gapply" "bytes" "ops_per_s on publish";
    l "exec.compile_us" "us" "ops_per_s on publish";
    l "exec.run_ms" "ms" "ops_per_s, p50_ms on publish";
    l "exec.minor_words_per_row" "words" "cpu_ms_per_op, peak_rss_mb on publish";
    l "exec.promoted_words" "words" "cpu_ms_per_op, peak_rss_mb on publish";
    l "trace.op_ms" "ms" "p50_ms on publish";
    l "trace.residual_ms" "ms" "p50_ms on publish (op time outside the layers)";
    l "trace.overhead_frac" "fraction" "none: tracing cost, reported only";
    l "gc.minor_collections_per_op" "count" "cpu_ms_per_op on publish";
    l "gc.major_collections_per_op" "count" "cpu_ms_per_op on publish";
  ]
  @ op_self
      [ "scan"; "group_scan"; "project"; "join"; "groupby"; "aggregate"; "union";
        "orderby"; "gapply" ]
      "ops_per_s on publish"

let all = [ ("report", report); ("oltp", oltp); ("publish", publish) ]

let full_name w m = w ^ "." ^ m.name

let better_string = function Lower -> "lower" | Higher -> "higher"
