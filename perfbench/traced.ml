(* The traced replay: each workload's seeded op sequence replayed in one
   thread and in process, calling the layers one after another —
   parse -> bind -> statistics -> optimize -> compile -> run -> render ->
   encode for a query, the engine's commit path for an INSERT, and
   plan -> compile -> run -> tag for a published document.

   One span is recorded per layer call; the spans of one op share its op
   id and hang off the op's root span.  Spans stay in memory and are
   written out at the end.  A layer's self time is its span minus its
   child spans.  The same replay runs once more with recording off
   (identical calls, no clock reads, no per-operator sink); the
   difference is the tracing overhead.  End-to-end numbers never come
   from here. *)

(* ---------- spans ---------- *)

type span = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  name : string;
  t0 : int;
  t1 : int;
}

type recorder = { on : bool; mutable spans : span list; mutable next : int }

let recorder on = { on; spans = []; next = 0 }

let span r ~op ~parent name f =
  if not r.on then f (-1)
  else begin
    let id = r.next in
    r.next <- id + 1;
    let t0 = Metrics.now_ns () in
    let x = f id in
    let t1 = Metrics.now_ns () in
    r.spans <- { id; parent; op; name; t0; t1 } :: r.spans;
    x
  end

let dur s = s.t1 - s.t0

(* Self nanoseconds per span name: each span minus its child spans. *)
let self_by_name r =
  let add t k v = Hashtbl.replace t k (v + Option.value ~default:0 (Hashtbl.find_opt t k)) in
  let child = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then add child s.parent (dur s)) r.spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s -> add self s.name (dur s - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
    r.spans;
  self

let root_durations r =
  Array.of_list
    (List.filter_map
       (fun s -> if s.parent < 0 then Some (Proc.ms_of_ns (dur s)) else None)
       r.spans)

let write_spans oc ~workload r =
  List.iter
    (fun s ->
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%d\t%d\n" workload s.id s.parent s.op
        s.name s.t0 s.t1)
    (List.rev r.spans)

(* ---------- accumulators ---------- *)

type acc = {
  mutable rows : int;
  mutable bytes : int;            (** rendered response bytes *)
  mutable minor_words : float;    (** allocated while executing *)
  mutable promoted_words : float;
  mutable rules : int;            (** optimizer rules fired *)
  op_self : (string, int) Hashtbl.t;  (** operator family -> self ns *)
  mutable wrong : int;            (** ops with a wrong answer *)
}

let acc () =
  {
    rows = 0;
    bytes = 0;
    minor_words = 0.;
    promoted_words = 0.;
    rules = 0;
    op_self = Hashtbl.create 16;
    wrong = 0;
  }

(* "join(fk->)[a = b]" -> "join": metric-safe operator family. *)
let family op =
  let n = String.length op in
  let rec go i =
    match if i < n then op.[i] else ' ' with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> go (i + 1)
    | _ -> i
  in
  String.sub op 0 (go 0)

let add_op_self acc (st : Obs.stat) =
  let rec walk (s : Obs.stat) =
    let kids = List.fold_left (fun a (c : Obs.stat) -> a + c.Obs.time_ns) 0 s.Obs.children in
    let k = family s.Obs.op in
    Hashtbl.replace acc.op_self k
      (s.Obs.time_ns - kids + Option.value ~default:0 (Hashtbl.find_opt acc.op_self k));
    List.iter walk s.Obs.children
  in
  walk st

(* Run a compiled plan, charging its allocation to [acc]. *)
let run_counted acc cat compiled =
  let mw0, pw0, _ = Gc.counters () in
  let rel = Executor.run_compiled cat compiled in
  let mw1, pw1, _ = Gc.counters () in
  acc.minor_words <- acc.minor_words +. (mw1 -. mw0);
  acc.promoted_words <- acc.promoted_words +. (pw1 -. pw0);
  rel

(* ---------- replayed statements ---------- *)

type stmt = {
  sql : string;
  write : bool;
  user_bytes : int;  (** an INSERT's values as text: id, connection, payload *)
  check : int -> string -> bool;  (** row count -> rendered body -> ok *)
}

type rop = { conn : int; stmts : stmt list }

(* Ops of all connections interleaved round-robin, as one thread
   replays them. *)
let interleave ~conns ~n gen =
  let gens = Array.init conns gen in
  List.init n (fun i -> (i mod conns, gens.(i mod conns) ()))

let report_ops ~seed ~n (r : Check.report_ref) =
  List.map
    (fun (conn, stmts) ->
      {
        conn;
        stmts =
          List.map
            (fun (_, sql) ->
              {
                sql;
                write = false;
                user_bytes = 0;
                check = (fun count body -> Check.report_ok r sql ~count ~body);
              })
            stmts;
      })
    (interleave ~conns:2 ~n (fun conn -> Ops.report_gen ~seed ~conn))

let oltp_ops ~seed ~n (r : Check.oltp_ref) =
  let acked = Array.make Ops.oltp_conns 0 in
  List.map
    (fun (conn, op) ->
      let sql = Ops.oltp_sql ~seed ~conn op in
      let stmt =
        match op with
        | Ops.Insert id ->
            acked.(conn) <- acked.(conn) + 1;
            let user_bytes =
              String.length (string_of_int id)
              + String.length (string_of_int conn)
              + String.length (Ops.payload ~seed ~conn id)
            in
            { sql; write = true; user_bytes; check = (fun _ _ -> true) }
        | _ ->
            let a = acked.(conn) in
            {
              sql;
              write = false;
              user_bytes = 0;
              check = (fun count body -> Check.oltp_read_ok r ~conn ~acked:a op ~count ~body);
            }
      in
      { conn; stmts = [ stmt ] })
    (interleave ~conns:Ops.oltp_conns ~n (fun conn -> Ops.oltp_gen ~seed ~conn))

let sequence_digest ops =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.concat_map
             (fun o -> List.map (fun s -> string_of_int o.conn ^ ":" ^ s.sql) o.stmts)
             ops)))

(* ---------- layered query path ---------- *)

let layered_query r acc db ~op ~parent sql =
  let cat = Engine.catalog db in
  let span name f = span r ~op ~parent name (fun _ -> f ()) in
  let stmt = span "sql.parse" (fun () -> Sql_parser.parse_statement sql) in
  let plan =
    span "sql.bind" (fun () ->
        match Sql_binder.bind_statement cat stmt with
        | Sql_binder.Bound_query p -> p
        | _ -> failwith ("not a query: " ^ sql))
  in
  span "storage.stats" (fun () ->
      List.iter (fun t -> ignore (Catalog.stats_of cat t)) (Plan_cache.tables_of_plan plan));
  let plan, partition =
    span "optimizer.optimize" (fun () ->
        let cbo = Engine.cbo_enabled db in
        let o = Optimizer.optimize ~cbo cat plan in
        acc.rules <- acc.rules + List.length o.Optimizer.trace;
        (* the engine's costed sort-vs-hash choice, part of preparing *)
        let sort_first =
          cbo
          &&
          let sort_c, hash_c = Cost.partition_costs cat o.Optimizer.plan in
          sort_c < hash_c
        in
        ( o.Optimizer.plan,
          if sort_first then Compile.Sort_partition else Compile.Hash_partition ))
  in
  let sink = if r.on then Some (Obs.make ()) else None in
  let compiled =
    span "exec.compile" (fun () ->
        Compile.plan
          ~config:
            (Compile.config_with ~partition ~batch_size:(Engine.batch_size db)
               ?observe:sink ())
          plan)
  in
  let rel = span "exec.run" (fun () -> run_counted acc cat compiled) in
  let body = span "relcore.render" (fun () -> Check.render rel) in
  let count = Relation.cardinality rel in
  ignore (span "net.encode" (fun () -> Wire.encode_response (Wire.Rows { count; body })));
  Option.iter (fun s -> Option.iter (add_op_self acc) (Obs.snapshot s)) sink;
  acc.rows <- acc.rows + count;
  acc.bytes <- acc.bytes + String.length body;
  (count, body)

let exec_write db sql =
  match Engine.exec db sql with
  | Engine.Message _ -> ()
  | _ -> failwith ("write failed: " ^ sql)

(* Replay [ops] through the layers on [db]. *)
let layered_pass r db ops =
  let acc = acc () in
  List.iteri
    (fun i o ->
      let answers =
        span r ~op:i ~parent:(-1) "op" (fun root ->
            List.map
              (fun s ->
                if s.write then begin
                  span r ~op:i ~parent:root "store.commit" (fun _ -> exec_write db s.sql);
                  None
                end
                else Some (layered_query r acc db ~op:i ~parent:root s.sql))
              o.stmts)
      in
      if
        not
          (List.for_all2
             (fun s a ->
               match a with None -> true | Some (count, body) -> s.check count body)
             o.stmts answers)
      then acc.wrong <- acc.wrong + 1)
    ops;
  acc

(* The engine's own path (plan cache included) over the same ops. *)
let engine_pass db ops =
  let acc = acc () in
  List.iter
    (fun o ->
      List.iter
        (fun s ->
          match Engine.exec db s.sql with
          | Engine.Rows rel ->
              let body = Check.render rel in
              acc.rows <- acc.rows + Relation.cardinality rel;
              acc.bytes <- acc.bytes + String.length body;
              if not (s.check (Relation.cardinality rel) body) then
                acc.wrong <- acc.wrong + 1
          | Engine.Message _ when s.write -> ()
          | _ -> acc.wrong <- acc.wrong + 1)
        o.stmts)
    ops;
  acc

(* ---------- publish path ---------- *)

let publish_pass r cat (reference : Check.publish_ref) docs_per_op =
  let acc = acc () in
  let bytes = Hashtbl.create 4 in
  List.iteri
    (fun i docs ->
      let out =
        span r ~op:i ~parent:(-1) "op" (fun root ->
            List.map
              (fun (d : Ops.doc) ->
                let st = Ops.strategy_name d.Ops.strategy in
                let span name f = span r ~op:i ~parent:root name (fun _ -> f ()) in
                let planned = span ("xmlpub.plan." ^ st) (fun () -> Docs.plan_doc cat d) in
                let sink = if r.on then Some (Obs.make ()) else None in
                let compiled =
                  span "exec.compile" (fun () ->
                      Compile.plan
                        ~config:(Compile.config_with ?observe:sink ())
                        (Docs.plan_of planned))
                in
                let rel = span "exec.run" (fun () -> run_counted acc cat compiled) in
                let s =
                  span ("xmlpub.tag." ^ st) (fun () ->
                      Docs.tag planned (Cursor.of_relation rel))
                in
                Option.iter (fun s -> Option.iter (add_op_self acc) (Obs.snapshot s)) sink;
                acc.rows <- acc.rows + Relation.cardinality rel;
                acc.bytes <- acc.bytes + String.length s;
                Hashtbl.replace bytes st
                  (String.length s + Option.value ~default:0 (Hashtbl.find_opt bytes st));
                s)
              docs)
      in
      if not (List.for_all2 (Docs.doc_ok reference) docs out) then
        acc.wrong <- acc.wrong + 1)
    docs_per_op;
  (acc, bytes)
