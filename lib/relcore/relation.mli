(** Materialised relations: a schema plus an ordered multiset of rows.

    The engine follows SQL multiset semantics (paper Section 3):
    duplicates are preserved everywhere and eliminated only by an
    explicit {!distinct}.  Row order is an evaluation artifact;
    {!equal_as_multiset} is the semantic comparison used by the tests. *)

type t

val make : Schema.t -> Tuple.t list -> t
val of_array : Schema.t -> Tuple.t array -> t
val empty : Schema.t -> t

val schema : t -> Schema.t
val rows : t -> Tuple.t list
val rows_array : t -> Tuple.t array
val cardinality : t -> int
val is_empty : t -> bool

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val map_rows : (Tuple.t -> Tuple.t) -> t -> t
val filter_rows : (Tuple.t -> bool) -> t -> t

val append : t -> t -> t
(** Multiset union (UNION ALL).
    @raise Errors.Plan_error on arity mismatch. *)

val project : int list -> t -> t
(** Project both schema and rows onto the given column indexes. *)

val sort_by : (Tuple.t -> Tuple.t -> int) -> t -> t
(** Stable sort. *)

val distinct : t -> t
(** Duplicate elimination under the total value order (SQL DISTINCT). *)

val equal_as_multiset : t -> t -> bool
(** Same rows with the same multiplicities, irrespective of order. *)

val equal_as_list : t -> t -> bool
(** Row-for-row equality including order. *)

(** {1 Rendering} *)

val render : ?reserve:int -> ?max_len:int -> t -> (Bytes.t, int) result
(** [render ~reserve ~max_len r] renders [r] as an aligned ASCII table:
    a [+---+] rule, the header row (qualified columns as
    [source.name]), a rule, one [| cell |] line per row with every cell
    left-aligned and padded to its column's widest text, a closing rule
    and a [(N row(s))] footer.  An empty schema renders as
    [(N row(s) over the empty schema)].

    The text is computed in two passes and written once: [Ok out] holds
    it at offset [reserve] (default 0) of a buffer of exactly [reserve +]
    its length, leaving the first [reserve] bytes for the caller (the
    server writes its frame header there).  When the text would be
    longer than [max_len] (default [Sys.max_string_length]) the result
    is [Error len] with the length it would have had, and no output
    buffer is allocated. *)

val to_string : t -> string
(** The {!render} text as a string (used by the CLI and examples). *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
