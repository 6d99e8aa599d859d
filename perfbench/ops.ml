(* Seeded operation sequences for the three workloads.

   The program under test only ever sees the statements generated here
   (or, for [publish], the documents selected here); the seed is the
   benchmark's input.  Every generator is a pure function of
   (seed, connection), so a run started from a fresh server replays the
   same statements and the tables grow the same way every time. *)

let msf = 1.0
let suppliers = 100
let parts = 2000

(* ---------- report ---------- *)

(* A string-keyed GApply beside the Figure 8 queries: [part] grouped by
   its 25 brands, per-group count / price range / a per-group subquery. *)
let brand_gapply =
  "select gapply(select count(*) as n, min(p_retailprice) as lo, \
   max(p_retailprice) as hi from g union all select count(*), null, null \
   from g where p_size > (select avg(p_size) from g)) from part group by \
   p_brand : g"

let report_statements =
  List.map (fun (name, gapply, _) -> (name, gapply)) Workloads.figure8_queries
  @ [ ("brand", brand_gapply) ]

(* One report: the five statements in a seeded order.  The texts never
   change, so they always fit the plan cache; the order varies so that a
   different seed is a different sequence. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let report_gen ~seed ~conn =
  let rng = Random.State.make [| seed; conn; 0x5e9 |] in
  fun () -> shuffle rng report_statements

(* ---------- oltp ---------- *)

type oltp_op =
  | Hot_read of int   (** supplier key from a 16-key hot set *)
  | Cold_read of int  (** part key over all 2000 parts *)
  | Insert of int     (** next id into the connection's own table *)
  | Own_read of int   (** id of the connection's own table *)

let oltp_conns = 2

let events_table conn = Printf.sprintf "events_%d" conn

let oltp_setup_sql conn =
  let t = events_table conn in
  [
    Printf.sprintf "create table %s (id int, w int, payload varchar)" t;
    Printf.sprintf "create index %s_id on %s (id)" t t;
  ]

let hot_keys ~seed =
  let rng = Random.State.make [| seed; 0x407 |] in
  Array.of_list
    (List.filteri (fun i _ -> i < 16)
       (shuffle rng (List.init suppliers (fun i -> i + 1))))

let payload ~seed ~conn id = Printf.sprintf "ev-%d-%d-%d" seed conn id

let hot_sql k =
  Printf.sprintf
    "select s_suppkey, s_name, s_acctbal from supplier where s_suppkey = %d" k

let cold_sql k =
  Printf.sprintf
    "select p_partkey, p_name, p_brand, p_retailprice from part where \
     p_partkey = %d"
    k

let insert_sql ~seed ~conn id =
  Printf.sprintf "insert into %s values (%d, %d, '%s')" (events_table conn) id
    conn (payload ~seed ~conn id)

let own_sql ~conn id =
  Printf.sprintf "select id, w, payload from %s where id = %d"
    (events_table conn) id

let oltp_sql ~seed ~conn = function
  | Hot_read k -> hot_sql k
  | Cold_read k -> cold_sql k
  | Insert id -> insert_sql ~seed ~conn id
  | Own_read id -> own_sql ~conn id

(* Mix: 45 % hot reads, 25 % cold reads, 20 % inserts, 10 % reads of
   an id this connection inserted earlier (id 0 before the first insert,
   which must read back empty). *)
let oltp_gen ~seed ~conn =
  let rng = Random.State.make [| seed; conn; 0x01f |] in
  let hot = hot_keys ~seed in
  let inserted = ref 0 in
  fun () ->
    let r = Random.State.int rng 100 in
    if r < 45 then Hot_read hot.(Random.State.int rng (Array.length hot))
    else if r < 70 then Cold_read (1 + Random.State.int rng parts)
    else if r < 90 then begin
      let id = !inserted in
      incr inserted;
      Insert id
    end
    else Own_read (if !inserted = 0 then 0 else Random.State.int rng !inserted)

(* ---------- publish ---------- *)

type strategy = Outer_union | Gapply

let strategy_name = function Outer_union -> "outer_union" | Gapply -> "gapply"

type doc = {
  view : string;  (** figure1 | q1 | deep *)
  strategy : strategy;
}

let doc_name d = d.view ^ "." ^ strategy_name d.strategy

let publish_docs =
  List.concat_map
    (fun view -> [ { view; strategy = Outer_union }; { view; strategy = Gapply } ])
    [ "figure1"; "q1"; "deep" ]

(* One op publishes all six documents in a seeded order. *)
let publish_gen ~seed =
  let rng = Random.State.make [| seed; 0x9b1 |] in
  fun () -> shuffle rng publish_docs
