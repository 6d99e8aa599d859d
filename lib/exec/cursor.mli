(** Pull-based tuple cursors.

    A cursor is a stateful generator: each call returns the next tuple
    or [None] at end-of-stream.  Operators exchange {!Batch} cursors;
    this row interface survives only as the adapter at the root of a
    compiled plan, for consumers that take one tuple at a time (the
    tagger, client-side GApply). *)

type t = unit -> Tuple.t option

val of_relation : Relation.t -> t

val iter : (Tuple.t -> unit) -> t -> unit

val length : t -> int
(** Count remaining tuples, consuming the cursor. *)
