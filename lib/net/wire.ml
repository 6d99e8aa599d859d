(* Length-framed wire protocol.

   Every frame is [tag (1 byte) | payload length u32 LE | payload]; the
   payload layout depends on the tag.  Strings are raw bytes (the SQL
   layer is byte-transparent).  Integers inside payloads are u32 LE.

   Requests:
     'Q' query     payload = SQL text (one statement)
     'M' meta      payload = backslash command
     'A' auth      payload = client token (admission-quota identity)
     'S' subscribe payload = lineage u8 | epoch u64 LE | offset u64 LE
     'X' quit      payload empty

   Responses:
     'R' rows        payload = row count u32 | rendered table
     'm' message     payload = text
     'E' explanation payload = text
     'F' failed      payload = class len u8 | class | message
     'O' overloaded  payload = queue depth u32 | retry-after ms u32 | message
     's' snapshot    payload = epoch u64 | wal offset u64 | snapshot body
     'b' batch       payload = epoch u64 | start offset u64 | raw WAL bytes
     'h' heartbeat   payload = epoch u64 | durable offset u64
     'G' goodbye     payload empty

   A subscription ('S') turns the connection into a one-way replication
   stream: the primary answers with 's'/'b'/'h' frames (or a typed 'F')
   until either side closes.  The batch payload is the primary's WAL
   bytes verbatim — records keep their own CRC framing, so the replica
   re-validates integrity with exactly the recovery scanner.

   A frame over [max_frame] (or an unknown tag) raises
   {!Protocol_error}: the server answers with a typed 'F' frame of
   class "protocol" and closes, so a confused client never hangs. *)

exception Protocol_error of string

let max_frame = 64 * 1024 * 1024

(* What a subscriber claims about its local state; the primary's
   position rules key on this.  [Marked] is a genuine replica resuming
   from a durable replication mark; [Bootstrap] has nothing (or asks for
   a fresh snapshot explicitly); [Unmarked] carries local history that
   never came from replication — an ex-primary whose diverged tail must
   be rejected, never silently rewound. *)
type lineage = Bootstrap | Marked | Unmarked

type request =
  | Query of string
  | Meta of string
  | Auth of string
  | Repl_subscribe of { lineage : lineage; epoch : int; offset : int }
  | Quit

type response =
  | Rows of { count : int; body : string }
  | Message of string
  | Explanation of string
  | Failed of { cls : string; message : string }
  | Overloaded of { queue_depth : int; retry_after_ms : int; message : string }
  | Repl_snapshot of { epoch : int; offset : int; body : string }
  | Repl_batch of { epoch : int; offset : int; data : string }
  | Repl_heartbeat of { epoch : int; offset : int }
  | Goodbye

(* ---------- payload primitives ---------- *)

let check_u32 n =
  if n < 0 || n > 0xFFFFFFFF then
    raise (Protocol_error (Printf.sprintf "u32 out of range: %d" n))

let put_u32 buf n =
  check_u32 n;
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let set_u32 b pos n =
  check_u32 n;
  Bytes.set_int32_le b pos (Int32.of_int n)

let get_u32 s pos =
  if pos + 4 > String.length s then
    raise (Protocol_error "truncated u32 in payload");
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* Replication positions are byte offsets and epochs: they outgrow u32
   on any long-lived log, so they ride as u64 (non-negative). *)
let put_u64 buf n =
  if n < 0 then raise (Protocol_error (Printf.sprintf "u64 out of range: %d" n));
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
  done

let get_u64 s pos =
  if pos + 8 > String.length s then
    raise (Protocol_error "truncated u64 in payload");
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let lineage_to_byte = function
  | Bootstrap -> '\000'
  | Marked -> '\001'
  | Unmarked -> '\002'

let lineage_of_byte = function
  | '\000' -> Bootstrap
  | '\001' -> Marked
  | '\002' -> Unmarked
  | c -> raise (Protocol_error (Printf.sprintf "unknown lineage byte %C" c))

(* ---------- encoding (to tag + payload) ---------- *)

let encode_request = function
  | Query sql -> ('Q', sql)
  | Meta cmd -> ('M', cmd)
  | Auth token -> ('A', token)
  | Repl_subscribe { lineage; epoch; offset } ->
      let buf = Buffer.create 17 in
      Buffer.add_char buf (lineage_to_byte lineage);
      put_u64 buf epoch;
      put_u64 buf offset;
      ('S', Buffer.contents buf)
  | Quit -> ('X', "")

let encode_response = function
  | Rows { count; body } ->
      let len = String.length body in
      let payload = Bytes.create (4 + len) in
      set_u32 payload 0 count;
      Bytes.blit_string body 0 payload 4 len;
      ('R', Bytes.unsafe_to_string payload)
  | Message m -> ('m', m)
  | Explanation e -> ('E', e)
  | Failed { cls; message } ->
      if String.length cls > 255 then
        raise (Protocol_error "error class too long");
      let buf = Buffer.create (String.length cls + String.length message + 1) in
      Buffer.add_char buf (Char.chr (String.length cls));
      Buffer.add_string buf cls;
      Buffer.add_string buf message;
      ('F', Buffer.contents buf)
  | Overloaded { queue_depth; retry_after_ms; message } ->
      let buf = Buffer.create (String.length message + 8) in
      put_u32 buf queue_depth;
      put_u32 buf retry_after_ms;
      Buffer.add_string buf message;
      ('O', Buffer.contents buf)
  | Repl_snapshot { epoch; offset; body } ->
      let buf = Buffer.create (String.length body + 16) in
      put_u64 buf epoch;
      put_u64 buf offset;
      Buffer.add_string buf body;
      ('s', Buffer.contents buf)
  | Repl_batch { epoch; offset; data } ->
      let buf = Buffer.create (String.length data + 16) in
      put_u64 buf epoch;
      put_u64 buf offset;
      Buffer.add_string buf data;
      ('b', Buffer.contents buf)
  | Repl_heartbeat { epoch; offset } ->
      let buf = Buffer.create 16 in
      put_u64 buf epoch;
      put_u64 buf offset;
      ('h', Buffer.contents buf)
  | Goodbye -> ('G', "")

(* ---------- decoding (from tag + payload) ---------- *)

let decode_request tag payload =
  match tag with
  | 'Q' -> Query payload
  | 'M' -> Meta payload
  | 'A' -> Auth payload
  | 'S' ->
      if String.length payload <> 17 then
        raise (Protocol_error "bad subscribe payload size");
      Repl_subscribe
        {
          lineage = lineage_of_byte payload.[0];
          epoch = get_u64 payload 1;
          offset = get_u64 payload 9;
        }
  | 'X' -> Quit
  | c -> raise (Protocol_error (Printf.sprintf "unknown request tag %C" c))

let decode_response tag payload =
  match tag with
  | 'R' ->
      let count = get_u32 payload 0 in
      Rows
        { count; body = String.sub payload 4 (String.length payload - 4) }
  | 'm' -> Message payload
  | 'E' -> Explanation payload
  | 'F' ->
      if payload = "" then raise (Protocol_error "empty failed frame");
      let n = Char.code payload.[0] in
      if 1 + n > String.length payload then
        raise (Protocol_error "truncated error class");
      Failed
        {
          cls = String.sub payload 1 n;
          message = String.sub payload (1 + n) (String.length payload - 1 - n);
        }
  | 'O' ->
      Overloaded
        {
          queue_depth = get_u32 payload 0;
          retry_after_ms = get_u32 payload 4;
          message = String.sub payload 8 (String.length payload - 8);
        }
  | 's' ->
      Repl_snapshot
        {
          epoch = get_u64 payload 0;
          offset = get_u64 payload 8;
          body = String.sub payload 16 (String.length payload - 16);
        }
  | 'b' ->
      Repl_batch
        {
          epoch = get_u64 payload 0;
          offset = get_u64 payload 8;
          data = String.sub payload 16 (String.length payload - 16);
        }
  | 'h' -> Repl_heartbeat { epoch = get_u64 payload 0; offset = get_u64 payload 8 }
  | 'G' -> Goodbye
  | c -> raise (Protocol_error (Printf.sprintf "unknown response tag %C" c))

(* ---------- framed IO over file descriptors ---------- *)

(* [read_exact] tolerates short reads and EINTR (a drain signal must
   not corrupt a frame mid-read); EOF inside a frame is a protocol
   error, EOF at a frame boundary is a clean close. *)
let read_exact fd buf pos len =
  let got = ref 0 in
  while !got < len do
    match Unix.read fd buf (pos + !got) (len - !got) with
    | 0 ->
        if !got = 0 then raise End_of_file
        else raise (Protocol_error "connection closed mid-frame")
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_all fd s =
  let len = String.length s in
  let sent = ref 0 in
  while !sent < len do
    let n =
      try Unix.write_substring fd s !sent (len - !sent)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    sent := !sent + n
  done

(* ---------- whole frames ---------- *)

let header_len = 5

let frame_of (tag, payload) =
  let len = String.length payload in
  let b = Bytes.create (header_len + len) in
  Bytes.set b 0 tag;
  set_u32 b 1 len;
  Bytes.blit_string payload 0 b header_len len;
  Bytes.unsafe_to_string b

let frame r = frame_of (encode_response r)

(* The table is rendered once, after room for the frame header and the
   row count; only those 9 bytes are written afterwards.  The renderer
   knows the exact length before it allocates, so an oversized table
   costs its cell texts, never its body. *)
let rows_frame rel =
  let reserve = header_len + 4 in
  match Relation.render ~reserve ~max_len:(max_frame - 4) rel with
  | Ok b ->
      Bytes.set b 0 'R';
      set_u32 b 1 (Bytes.length b - header_len);
      set_u32 b header_len (Relation.cardinality rel);
      Bytes.unsafe_to_string b
  | Error len ->
      frame
        (Failed
           {
             cls = "result_too_large";
             message =
               Printf.sprintf
                 "result of %d bytes exceeds the %d-byte frame limit"
                 (len + 4) max_frame;
           })

let write_frame fd tp = write_all fd (frame_of tp)

(* Returns [None] on a clean EOF at a frame boundary. *)
let read_frame fd =
  let header = Bytes.create 5 in
  match read_exact fd header 0 5 with
  | exception End_of_file -> None
  | () ->
      let tag = Bytes.get header 0 in
      let len =
        Char.code (Bytes.get header 1)
        lor (Char.code (Bytes.get header 2) lsl 8)
        lor (Char.code (Bytes.get header 3) lsl 16)
        lor (Char.code (Bytes.get header 4) lsl 24)
      in
      if len > max_frame then
        raise (Protocol_error (Printf.sprintf "frame too large: %d bytes" len));
      let payload = Bytes.create len in
      (try read_exact fd payload 0 len
       with End_of_file -> raise (Protocol_error "connection closed mid-frame"));
      Some (tag, Bytes.unsafe_to_string payload)

let write_request fd r = write_frame fd (encode_request r)
let write_response fd r = write_frame fd (encode_response r)

let read_request fd =
  match read_frame fd with
  | None -> None
  | Some (tag, payload) -> Some (decode_request tag payload)

let read_response fd =
  match read_frame fd with
  | None -> None
  | Some (tag, payload) -> Some (decode_response tag payload)
