(* Materialised relations: a schema plus an ordered multiset of rows.

   The engine follows SQL multiset semantics (Section 3 of the paper):
   duplicates are preserved everywhere and eliminated only by an explicit
   [distinct].  Row order is an artifact of evaluation; [equal_as_multiset]
   is the semantic comparison used throughout the test suite. *)

type t = { schema : Schema.t; rows : Tuple.t array }

let make schema rows = { schema; rows = Array.of_list rows }
let of_array schema rows = { schema; rows }
let empty schema = { schema; rows = [||] }

let schema r = r.schema
let rows r = Array.to_list r.rows
let rows_array r = r.rows
let cardinality r = Array.length r.rows
let is_empty r = Array.length r.rows = 0

let iter f r = Array.iter f r.rows
let fold f init r = Array.fold_left f init r.rows
let map_rows f r = { r with rows = Array.map f r.rows }
let filter_rows f r =
  { r with rows = Array.of_list (List.filter f (Array.to_list r.rows)) }

let append a b =
  if Schema.arity a.schema <> Schema.arity b.schema then
    Errors.plan_errorf "Relation.append: arity mismatch (%d vs %d)"
      (Schema.arity a.schema) (Schema.arity b.schema);
  { a with rows = Array.append a.rows b.rows }

(** Project both schema and rows onto the column indexes [idxs]. *)
let project idxs r =
  {
    schema = Schema.project idxs r.schema;
    rows = Array.map (Tuple.project idxs) r.rows;
  }

(** Stable sort by the given tuple comparison. *)
let sort_by cmp r =
  let rows = Array.copy r.rows in
  let tagged = Array.mapi (fun i t -> (i, t)) rows in
  Array.sort
    (fun (i, a) (j, b) ->
      let c = cmp a b in
      if c <> 0 then c else compare i j)
    tagged;
  { r with rows = Array.map snd tagged }

(** Duplicate elimination under the total value order (SQL DISTINCT). *)
let distinct r =
  let seen = Hashtbl.create 64 in
  let keep = ref [] in
  Array.iter
    (fun row ->
      let h = Tuple.hash row in
      let bucket = try Hashtbl.find seen h with Not_found -> [] in
      if not (List.exists (Tuple.equal row) bucket) then begin
        Hashtbl.replace seen h (row :: bucket);
        keep := row :: !keep
      end)
    r.rows;
  { r with rows = Array.of_list (List.rev !keep) }

(** Multiset equality: same rows with the same multiplicities,
    irrespective of order. *)
let equal_as_multiset a b =
  Array.length a.rows = Array.length b.rows
  && Schema.arity a.schema = Schema.arity b.schema
  &&
  let sort r =
    let c = Array.copy r.rows in
    Array.sort Tuple.compare c;
    c
  in
  let xa = sort a and xb = sort b in
  Array.for_all2 Tuple.equal xa xb

let equal_as_list a b =
  Array.length a.rows = Array.length b.rows
  && Array.for_all2 Tuple.equal a.rows b.rows

(* Aligned ASCII table, rendered in two passes.  The first builds every
   cell's text once, headers included, into one flat row-major array and
   records each column's width.  The second knows the exact output
   length from the widths alone, so it allocates one [Bytes] and fills it
   with blits: no [Format] directive per cell and no growing buffer.

   Every line has the same length: per column ["| "] (or ["+-"]), the
   cell padded to the column width, and [" "] (or ["-"]), then a closing
   ["|\n"] (or ["+\n"]). *)

let header (c : Schema.column) =
  match c.Schema.source with
  | None -> c.Schema.cname
  | Some s -> s ^ "." ^ c.Schema.cname

let render ?(reserve = 0) ?(max_len = Sys.max_string_length) r =
  let ncols = Array.length r.schema and nrows = Array.length r.rows in
  (* one exact-size allocation, or none when the text is too long *)
  let emit len fill =
    if len > max_len then Error len
    else begin
      let out = Bytes.create (reserve + len) in
      fill out;
      Ok out
    end
  in
  if ncols = 0 then
    let text = "(" ^ string_of_int nrows ^ " row(s) over the empty schema)\n" in
    emit (String.length text) (fun out ->
        Bytes.blit_string text 0 out reserve (String.length text))
  else begin
    (* pass 1: cell text and column widths *)
    let cells = Array.make ((nrows + 1) * ncols) "" in
    let width = Array.make ncols 0 in
    let put k i s =
      cells.(k) <- s;
      if String.length s > width.(i) then width.(i) <- String.length s
    in
    Array.iteri (fun i c -> put i i (header c)) r.schema;
    Array.iteri
      (fun j row ->
        let base = (j + 1) * ncols in
        for i = 0 to ncols - 1 do
          put (base + i) i (Value.to_string row.(i))
        done)
      r.rows;
    (* pass 2: exact length, one allocation, blits and fills *)
    let line_len = Array.fold_left (fun n w -> n + w + 3) 2 width in
    let footer = "(" ^ string_of_int nrows ^ " row(s))\n" in
    let rule = Bytes.make line_len '-' in
    let p = ref 0 in
    Array.iter (fun w -> Bytes.set rule !p '+'; p := !p + w + 3) width;
    Bytes.blit_string "+\n" 0 rule !p 2;
    emit
      (((nrows + 4) * line_len) + String.length footer)
      (fun out ->
        let pos = ref reserve in
        let add_rule () =
          Bytes.blit rule 0 out !pos line_len;
          pos := !pos + line_len
        in
        let add_row k =
          for i = 0 to ncols - 1 do
            let s = cells.(k + i) and w = width.(i) and p = !pos in
            let n = String.length s in
            Bytes.blit_string "| " 0 out p 2;
            Bytes.blit_string s 0 out (p + 2) n;
            Bytes.fill out (p + 2 + n) (w - n + 1) ' ';
            pos := p + w + 3
          done;
          Bytes.blit_string "|\n" 0 out !pos 2;
          pos := !pos + 2
        in
        add_rule ();
        add_row 0;
        add_rule ();
        for j = 1 to nrows do
          add_row (j * ncols)
        done;
        add_rule ();
        Bytes.blit_string footer 0 out !pos (String.length footer))
  end

let to_string r =
  match render r with
  | Ok out -> Bytes.unsafe_to_string out
  | Error len ->
      invalid_arg
        (Printf.sprintf "Relation.to_string: %d bytes exceed the string limit"
           len)

let pp ppf r = Format.pp_print_string ppf (to_string r)
