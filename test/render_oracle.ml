(* The Format-based table printer and float rule that [Relation.render]
   and [Value.to_string] replaced, kept as the reference the rendering
   properties compare against byte for byte.  One [%-*s] directive per
   cell: slow, but obviously right. *)

let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if String.contains s '.' || String.contains s 'e' ||
     String.contains s 'n' (* nan, inf *)
  then s
  else s ^ ".0"

let value_to_string = function
  | Value.Float f -> float_to_string f
  | v -> Value.to_string v

let pp ppf r =
  let headers =
    Array.map
      (fun (c : Schema.column) ->
        match c.Schema.source with
        | None -> c.Schema.cname
        | Some s -> s ^ "." ^ c.Schema.cname)
      (Relation.schema r)
  in
  let ncols = Array.length headers in
  let width = Array.map String.length headers in
  let cells =
    Array.map
      (fun row ->
        Array.mapi
          (fun i v ->
            let s = value_to_string v in
            if String.length s > width.(i) then width.(i) <- String.length s;
            s)
          (Array.sub row 0 ncols))
      (Relation.rows_array r)
  in
  let line ppf () =
    for i = 0 to ncols - 1 do
      Format.fprintf ppf "+%s" (String.make (width.(i) + 2) '-')
    done;
    Format.fprintf ppf "+@\n"
  in
  let row ppf cells =
    for i = 0 to ncols - 1 do
      Format.fprintf ppf "| %-*s " width.(i) cells.(i)
    done;
    Format.fprintf ppf "|@\n"
  in
  let nrows = Relation.cardinality r in
  if ncols = 0 then
    Format.fprintf ppf "(%d row(s) over the empty schema)@\n" nrows
  else begin
    line ppf ();
    row ppf headers;
    line ppf ();
    Array.iter (row ppf) cells;
    line ppf ();
    Format.fprintf ppf "(%d row(s))@\n" nrows
  end

let to_string r = Format.asprintf "%a" pp r
