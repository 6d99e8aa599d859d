(* The two wire workloads: closed-loop connections against a
   gapply_server child process.  Callers of a database server are
   application connections that each wait for their reply, so each
   connection sends its next op only when the previous one returned. *)

type run = {
  attempted : int;
  failed : int;
  lat_ms : float array;    (** per successful op *)
  write_ms : float array;  (** per successful INSERT (oltp) *)
  done_s : float array;    (** completion time of each successful op *)
  server_cpu_ms : float;
}

let describe = function
  | Wire.Rows { count; _ } -> Printf.sprintf "%d rows" count
  | Wire.Message m -> "message: " ^ m
  | Wire.Failed { cls; message } -> Printf.sprintf "failed (%s): %s" cls message
  | Wire.Overloaded { message; _ } -> "shed: " ^ message
  | _ -> "unexpected response"

(* The first few failed ops go to stderr; all of them count. *)
let failures_shown = Atomic.make 0

let note_failure sql what =
  if Atomic.fetch_and_add failures_shown 1 < 5 then
    Printf.eprintf "failed op: %s -> %s\n%!" sql what

let query c sql =
  match Net_client.query c sql with
  | Wire.Rows { count; body } -> Some (count, body)
  | _ -> None

let expect_answer c sql =
  match Net_client.query c sql with
  | Wire.Message _ | Wire.Rows _ -> ()
  | _ -> Proc.fail "statement failed during set-up: %s" sql

(* Spawn a server, send [setup] statements, and report the seconds from
   spawn until the last of them was answered. *)
let start_server ~exe ~args ~setup =
  let s = Proc.spawn ~exe args in
  let c = Net_client.connect ~port:s.Proc.port () in
  List.iter (expect_answer c) setup;
  let setup_s = float_of_int (Metrics.now_ns () - s.Proc.spawned_ns) /. 1e9 in
  ignore (Net_client.quit c);
  (s, setup_s)

(* [n] set-ups; all but the last server are drained right away, the last
   one is returned to serve the run.  Set-up time is the median. *)
let start_measured ~n ~exe ~args ~setup =
  let rec go i acc =
    let s, t = start_server ~exe ~args:(args ()) ~setup in
    if i = n then (s, Stats.median (Array.of_list (t :: acc)))
    else begin
      ignore (Proc.stop s);
      go (i + 1) (t :: acc)
    end
  in
  go 1 []

(* Run [conns] closed loops for [seconds]; [op w c] performs one op on
   connection [c] of loop [w] and returns [`Ok | `Write | `Failed]
   ([`Write] is a successful write).  Returns samples of successful ops
   only; failed ones count in [failed]. *)
let closed_loop ~(server : Proc.server) ~conns ~seconds op =
  let clients =
    Array.init conns (fun _ -> Net_client.connect ~port:server.Proc.port ())
  in
  let mu = Mutex.create () in
  let lat = Stats.buf () and wlat = Stats.buf () and done_s = Stats.buf () in
  let attempted = ref 0 and failed = ref 0 in
  let cpu0 = Proc.cpu_ms server.Proc.pid in
  let t0 = Metrics.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let loop w =
    let c = clients.(w) in
    while Metrics.now_ns () < deadline do
      let a = Metrics.now_ns () in
      let r =
        try op w c
        with e ->
          note_failure "(connection)" (Printexc.to_string e);
          `Failed
      in
      let b = Metrics.now_ns () in
      let ms = Proc.ms_of_ns (b - a) in
      Mutex.protect mu (fun () ->
          incr attempted;
          match r with
          | `Failed -> incr failed
          | (`Ok | `Write) as r ->
              Stats.push lat ms;
              Stats.push done_s (float_of_int (b - t0) /. 1e9);
              if r = `Write then Stats.push wlat ms)
    done
  in
  let threads = List.init conns (fun w -> Thread.create loop w) in
  List.iter Thread.join threads;
  let server_cpu_ms = Proc.cpu_ms server.Proc.pid -. cpu0 in
  Array.iter (fun c -> ignore (Net_client.quit c)) clients;
  {
    attempted = !attempted;
    failed = !failed;
    lat_ms = Stats.contents lat;
    write_ms = Stats.contents wlat;
    done_s = Stats.contents done_s;
    server_cpu_ms;
  }

(* ---------- report ---------- *)

let report_setup = [ "select count(*) as n from supplier" ]

let report_args () = [ "--tpch"; string_of_float Ops.msf ]

(* One report: all five statements, answers checked after the op's
   clock stopped so that checking does not count as latency. *)
let report_op (r : Check.report_ref) gens w c =
  let stmts = gens.(w) () in
  let answers = List.map (fun (_, sql) -> (sql, Net_client.query c sql)) stmts in
  let ok =
    List.for_all
      (fun (sql, a) ->
        match a with
        | Wire.Rows { count; body } when Check.report_ok r sql ~count ~body -> true
        | resp ->
            note_failure sql (describe resp);
            false)
      answers
  in
  if ok then `Ok else `Failed

(* ---------- oltp ---------- *)

let oltp_args dir () =
  [ "--tpch"; string_of_float Ops.msf; "--data-dir"; dir; "--durability"; "strict" ]

let oltp_setup = List.concat_map Ops.oltp_setup_sql (List.init Ops.oltp_conns Fun.id)

type oltp_conn = { gen : unit -> Ops.oltp_op; mutable acked : int }

let oltp_op (r : Check.oltp_ref) ~seed (conns : oltp_conn array) w c =
  let st = conns.(w) in
  let op = st.gen () in
  let sql = Ops.oltp_sql ~seed ~conn:w op in
  match op with
  | Ops.Insert id -> (
      match Net_client.query c sql with
      | Wire.Message _ when id = st.acked ->
          st.acked <- st.acked + 1;
          `Write
      | resp ->
          note_failure sql (describe resp);
          `Failed)
  | _ -> (
      match query c sql with
      | Some (count, body)
        when Check.oltp_read_ok r ~conn:w ~acked:st.acked op ~count ~body ->
          `Ok
      | Some (count, _) ->
          note_failure sql (Printf.sprintf "wrong answer (%d rows)" count);
          `Failed
      | None ->
          note_failure sql "no rows";
          `Failed)

(* Every acknowledged insert, and nothing else, is in each table. *)
let events_check (r : Check.oltp_ref) ~port (conns : oltp_conn array) =
  let c = Net_client.connect ~port () in
  let ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun w st ->
           match query c (Check.events_sql w) with
           | Some (count, body) ->
               Check.events_ok r ~conn:w ~acked:st.acked ~count ~body
           | None -> false)
         conns)
  in
  ignore (Net_client.quit c);
  ok
