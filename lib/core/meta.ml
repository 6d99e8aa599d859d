(* Backslash meta-commands, shared by the interactive shell and the
   network server.

   Everything here returns an [Engine.outcome] instead of printing, so
   the two front ends render identically typed results: the CLI prints
   them, the server frames them onto the wire.  Crucially an unknown
   meta-command (or a malformed argument) is a typed [Failed] — a wire
   client can switch on the stable error class instead of pattern
   matching free-text — and never raises.

   REPL-local toggles ([\q], [\timing], [\analyze]) stay in the front
   ends: they mutate presentation state, not the engine. *)

let tables_report db =
  let cat = Engine.catalog db in
  let buf = Buffer.create 128 in
  List.iter
    (fun name ->
      let t = Catalog.find_table cat name in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %8d row(s)  %s\n" name (Table.cardinality t)
           (Schema.to_string (Table.schema t))))
    (Catalog.table_names cat);
  Buffer.contents buf

(* The knob meta-commands are sugar over SQL SET, so they follow its
   session scoping: engine-global on the default session, a private
   overlay on any other (one network connection's [\timeout] never
   throttles its neighbors). *)
let knob_sql knob v =
  let name =
    match knob with
    | "\\timeout" -> "statement_timeout_ms"
    | "\\rowlimit" -> "statement_row_limit"
    | _ -> "statement_mem_limit"
  in
  match String.lowercase_ascii v with
  | "off" | "default" -> Some (Printf.sprintf "set %s = default" name)
  | v -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> Some (Printf.sprintf "set %s = %d" name n)
      | _ -> None)

let run sess cmd : Engine.outcome =
  let db = Engine.session_db sess in
  let guard f = try f () with e when Errors.is_engine_error e -> Engine.Failed e in
  match String.split_on_char ' ' (String.trim cmd) with
  | [ "\\tables" ] -> Message (tables_report db)
  | [ "\\stats"; table ] ->
      guard (fun () -> Engine.Message (Engine.stats_report db table))
  | [ "\\cache" ] -> Message (Engine.cache_report db)
  | [ "\\governor" ] -> Message (Engine.governor_report db)
  | [ "\\wal" ] -> Message (Engine.wal_report db)
  | [ "\\txn" ] -> Message (Engine.txn_report db)
  | [ "\\checkpoint" ] ->
      guard (fun () ->
          Engine.Message
            (Printf.sprintf "checkpoint: snapshot written (%s)"
               (Pretty.bytes (Engine.checkpoint db))))
  | [ ("\\timeout" | "\\rowlimit" | "\\memlimit") as knob; v ] -> (
      match knob_sql knob v with
      | Some sql -> guard (fun () -> Engine.exec_session sess sql)
      | None ->
          Failed
            (Errors.Type_error
               (Printf.sprintf "%s expects a positive integer or off" knob)))
  | [ ("\\timeout" | "\\rowlimit" | "\\memlimit") as knob ] ->
      Failed
        (Errors.Type_error
           (Printf.sprintf "%s expects a positive integer or off" knob))
  | first :: _ ->
      Failed
        (Errors.Name_error (Printf.sprintf "unknown meta-command %s" first))
  | [] -> Failed (Errors.Name_error "empty meta-command")
