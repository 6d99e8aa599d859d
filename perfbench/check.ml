(* Answer checks.  Expected answers come from an in-process [Engine] over
   the same generated data, rendered with the same [Relation.pp] the
   server uses, so a wire answer is right iff its body matches. *)

let render rel = Format.asprintf "%a" Relation.pp rel

(* Order-insensitive digest of a rendered table: the multiset of its
   lines, folded with two independent string hashes. *)
type digest = { lines : int; h1 : int; h2 : int }

let digest body =
  let h1 = ref 0 and h2 = ref 0 and lines = ref 0 in
  let n = String.length body in
  let start = ref 0 in
  for i = 0 to n do
    if i = n || body.[i] = '\n' then begin
      if i > !start then begin
        let l = String.sub body !start (i - !start) in
        incr lines;
        h1 := !h1 + Hashtbl.hash l;
        h2 := !h2 + Hashtbl.seeded_hash 0x5eed l
      end;
      start := i + 1
    end
  done;
  { lines = !lines; h1 = !h1; h2 = !h2 }

let query db sql =
  match Engine.exec db sql with
  | Engine.Rows rel -> rel
  | _ -> failwith ("reference query did not return rows: " ^ sql)

(* ---------- report ---------- *)

type report_ref = (string, int * digest) Hashtbl.t

let report_reference db : report_ref =
  let t = Hashtbl.create 8 in
  List.iter
    (fun (_, sql) ->
      let rel = query db sql in
      Hashtbl.replace t sql (Relation.cardinality rel, digest (render rel)))
    Ops.report_statements;
  t

let report_ok (r : report_ref) sql ~count ~body =
  match Hashtbl.find_opt r sql with
  | Some (c, d) -> c = count && d = digest body
  | None -> false

(* ---------- oltp ---------- *)

(* Expected body of every point read, keyed by SQL text: each key's row
   rendered as the single-row result the server returns. *)
type oltp_ref = {
  point : (string, string) Hashtbl.t;
  events_schema : Schema.t array;  (** per connection *)
  seed : int;
}

let single_row_bodies db ~all_sql ~key_sql tbl =
  let rel = query db all_sql in
  let schema = Relation.schema rel in
  Relation.iter
    (fun row ->
      match row.(0) with
      | Value.Int k ->
          Hashtbl.replace tbl (key_sql k) (render (Relation.make schema [ row ]))
      | _ -> failwith "non-integer key")
    rel

let oltp_reference ~seed db =
  let point = Hashtbl.create 4096 in
  single_row_bodies db
    ~all_sql:"select s_suppkey, s_name, s_acctbal from supplier"
    ~key_sql:Ops.hot_sql point;
  single_row_bodies db
    ~all_sql:"select p_partkey, p_name, p_brand, p_retailprice from part"
    ~key_sql:Ops.cold_sql point;
  let events_schema =
    Array.init Ops.oltp_conns (fun conn ->
        List.iter (fun s -> ignore (Engine.exec db s)) (Ops.oltp_setup_sql conn);
        Relation.schema (query db (Ops.own_sql ~conn (-1))))
  in
  { point; events_schema; seed }

let event_row (r : oltp_ref) ~conn id =
  [| Value.Int id; Value.Int conn; Value.Str (Ops.payload ~seed:r.seed ~conn id) |]

(* [acked] is how many inserts this connection has had acknowledged so
   far (ids 0 .. acked-1): an own-table read must return its row iff the
   id is among them. *)
let oltp_read_ok (r : oltp_ref) ~conn ~acked op ~count ~body =
  match op with
  | Ops.Hot_read _ | Ops.Cold_read _ -> (
      match Hashtbl.find_opt r.point (Ops.oltp_sql ~seed:r.seed ~conn op) with
      | Some expected -> count = 1 && body = expected
      | None -> false)
  | Ops.Own_read id ->
      let rows = if id < acked then [ event_row r ~conn id ] else [] in
      count = List.length rows
      && body = render (Relation.make r.events_schema.(conn) rows)
  | Ops.Insert _ -> false

(* After the run: the table holds exactly ids 0 .. acked-1 with their
   payloads. *)
let events_sql conn =
  Printf.sprintf "select id, w, payload from %s" (Ops.events_table conn)

let events_ok (r : oltp_ref) ~conn ~acked ~count ~body =
  count = acked
  && digest body
     = digest
         (render
            (Relation.make r.events_schema.(conn)
               (List.init acked (event_row r ~conn))))

(* ---------- publish ---------- *)

(* Byte length and exact digest of each document's markup. *)
type publish_ref = (string, int * Digest.t) Hashtbl.t
