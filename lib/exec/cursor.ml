(* Pull-based tuple cursors: the row adapter at the root of a compiled
   plan ([Compile.compiled.run], built by [Batch.to_cursor]), for
   consumers that take one tuple at a time.  Operators themselves
   exchange batches (see Batch). *)

type t = unit -> Tuple.t option

let of_relation rel : t =
  let rows = Relation.rows_array rel in
  let i = ref 0 in
  fun () ->
    if !i < Array.length rows then begin
      let row = rows.(!i) in
      incr i;
      Some row
    end
    else None

let rec iter f (c : t) =
  match c () with
  | None -> ()
  | Some row ->
      f row;
      iter f c

(** Count remaining tuples, consuming the cursor. *)
let length c =
  let n = ref 0 in
  iter (fun _ -> incr n) c;
  !n
