(** Length-framed wire protocol between the server and its clients.

    Every frame is [tag (1 byte) | payload length u32 LE | payload].
    Requests carry SQL text ('Q'), a backslash meta-command ('M'), or a
    quit ('X'); responses mirror {!Engine.outcome} plus the two
    server-side cases a wire client must distinguish: a typed failure
    ('F', with a stable error-class string) and an admission shed ('O',
    with the queue depth and a retry-after hint).

    Malformed traffic — unknown tag, oversized frame, EOF mid-frame —
    raises {!Protocol_error}; a clean EOF at a frame boundary reads as
    [None]. *)

exception Protocol_error of string

val max_frame : int
(** Upper bound on a frame payload (64 MiB); larger frames are a
    protocol error, not an allocation. *)

type lineage =
  | Bootstrap  (** no local state (or an explicit resync request):
                   please send a snapshot *)
  | Marked     (** a genuine replica resuming from a durable
                   replication mark *)
  | Unmarked   (** local history that never came from replication — an
                   ex-primary whose diverged tail must be rejected,
                   never silently rewound *)

type request =
  | Query of string  (** one SQL statement *)
  | Meta of string   (** backslash meta-command, e.g. ["\\cache"] *)
  | Auth of string   (** client token: the admission-quota identity *)
  | Repl_subscribe of { lineage : lineage; epoch : int; offset : int }
      (** turn this connection into a replication stream from the given
          primary-side position *)
  | Quit

type response =
  | Rows of { count : int; body : string }
      (** result cardinality + the rendered table *)
  | Message of string       (** DDL/DML/SET confirmation *)
  | Explanation of string   (** EXPLAIN output *)
  | Failed of { cls : string; message : string }
      (** typed statement failure; [cls] is the stable error class
          ("parse", "name", "type", "exec", "timeout", "cancelled",
          "txn_conflict", "read_only", "disk_full", "repl_diverged",
          "protocol", ...) *)
  | Overloaded of { queue_depth : int; retry_after_ms : int; message : string }
      (** admission shed: nothing ran; back off and retry *)
  | Repl_snapshot of { epoch : int; offset : int; body : string }
      (** whole-database transfer stamped with the WAL position it
          covers; stream resumes from (epoch, offset) *)
  | Repl_batch of { epoch : int; offset : int; data : string }
      (** raw primary WAL bytes starting at (epoch, offset); records
          keep their own CRC framing *)
  | Repl_heartbeat of { epoch : int; offset : int }
      (** primary liveness + durable position when there is nothing to
          ship *)
  | Goodbye

(** {1 Framed IO over file descriptors}

    Reads tolerate short reads and EINTR; writes are complete-or-raise.
    A read on a socket with [SO_RCVTIMEO] set propagates
    [EAGAIN]/[EWOULDBLOCK] to the caller — the server's idle-timeout
    signal. *)

val write_request : Unix.file_descr -> request -> unit
val write_response : Unix.file_descr -> response -> unit

val read_request : Unix.file_descr -> request option
(** [None] on clean EOF at a frame boundary. *)

val read_response : Unix.file_descr -> response option

val write_all : Unix.file_descr -> string -> unit
(** Complete write of a raw byte string (EINTR-safe): a whole frame
    from {!frame} or {!rows_frame}, or the plain-HTTP metrics
    listener's response. *)

val frame : response -> string
(** The complete frame (header and payload) of a response, built in one
    exact-size buffer. *)

val rows_frame : Relation.t -> string
(** The complete ['R'] frame of a result table.  The table is rendered
    by {!Relation.render} straight into the frame, after the header and
    row count, so its text is written once and never copied.  A table
    whose payload would exceed {!max_frame} (which the client would
    refuse to read) becomes a ['F'] frame of class ["result_too_large"]
    naming both sizes instead, and no buffer for its text is allocated. *)

(** {1 Raw codec} — exposed for protocol round-trip tests. *)

val encode_request : request -> char * string
val decode_request : char -> string -> request
val encode_response : response -> char * string
val decode_response : char -> string -> response
