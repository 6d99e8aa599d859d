(* The constant-space tagger (middleware of Section 2).

   Consumes a tuple stream that is *clustered by the parent key* (which
   the sorted outer union guarantees with ORDER BY, and the GApply plan
   guarantees with its final order-by) and emits XML.  The tagger keeps
   only the current parent element open — its space is bounded by one
   group, never by the whole document, which is exactly the property the
   paper's SQL formulations must preserve (hence their ORDER BY
   clauses).

   Two variants:
   - [tag_to_buffer] streams markup text (true constant-space tagging);
   - [tag] builds an [Xml.t] for programmatic use and tests. *)

let key_of (enc : Publish.encoding) (row : Tuple.t) =
  Tuple.project (List.init enc.Publish.e_key_count (fun i -> i)) row

let branch_of (enc : Publish.encoding) (row : Tuple.t) :
    Publish.branch_desc =
  match Tuple.get row enc.Publish.e_node_col with
  | Value.Int 0 -> enc.Publish.e_parent
  | Value.Int id -> (
      match
        List.find_opt
          (fun (b : Publish.branch_desc) -> b.Publish.b_id = id)
          enc.Publish.e_branches
      with
      | Some b -> b
      | None -> Errors.exec_errorf "tagger: unknown node id %d" id)
  | v ->
      Errors.exec_errorf "tagger: non-integer node id %s" (Value.to_string v)

let field_elements (branch : Publish.branch_desc) (row : Tuple.t) =
  List.filter_map
    (fun (tag, idx) ->
      match Tuple.get row idx with
      | Value.Null -> None
      | v -> Some (Xml.element tag [ Xml.text (Value.to_string v) ]))
    branch.Publish.b_fields

(** Build the document tree. *)
let tag (enc : Publish.encoding) (cursor : Cursor.t) : Xml.t =
  let parents = ref [] in
  let current_key = ref None in
  let current_children = ref [] in
  let close_current () =
    match !current_key with
    | None -> ()
    | Some _ ->
        parents :=
          Xml.element
            (match enc.Publish.e_parent.Publish.b_tag with
            | Some t -> t
            | None -> "item")
            (List.rev !current_children)
          :: !parents;
        current_key := None;
        current_children := []
  in
  Cursor.iter
    (fun row ->
      let key = key_of enc row in
      let branch = branch_of enc row in
      if branch.Publish.b_id = 0 then begin
        close_current ();
        current_key := Some key;
        current_children := List.rev (field_elements branch row)
      end
      else begin
        (match !current_key with
        | Some k when Tuple.equal k key -> ()
        | _ ->
            Errors.exec_errorf
              "tagger: child row %s arrived without its parent (stream \
               not clustered?)"
              (Tuple.to_string row));
        match branch.Publish.b_tag with
        | Some tag ->
            current_children :=
              Xml.element tag (field_elements branch row)
              :: !current_children
        | None ->
            (* derived value: its field elements attach to the parent *)
            current_children :=
              List.rev_append (field_elements branch row) !current_children
      end)
    cursor;
  close_current ();
  Xml.element enc.Publish.e_root_tag (List.rev !parents)

(** Stream markup into a buffer; memory is bounded by a single row. *)
let tag_to_buffer (enc : Publish.encoding) (cursor : Cursor.t)
    (buf : Buffer.t) : unit =
  let parent_tag =
    match enc.Publish.e_parent.Publish.b_tag with
    | Some t -> t
    | None -> "item"
  in
  let open_tag tag =
    Buffer.add_char buf '<';
    Buffer.add_string buf tag;
    Buffer.add_char buf '>'
  in
  let close_tag tag =
    Buffer.add_string buf "</";
    Buffer.add_string buf tag;
    Buffer.add_char buf '>'
  in
  open_tag enc.Publish.e_root_tag;
  let current_key = ref None in
  let close_current () = if !current_key <> None then close_tag parent_tag in
  (* the markup of [field_elements], written straight into [buf] *)
  let emit_fields (branch : Publish.branch_desc) row =
    List.iter
      (fun (tag, idx) ->
        match Tuple.get row idx with
        | Value.Null -> ()
        | v ->
            open_tag tag;
            Xml.add_escaped buf (Value.to_string v);
            close_tag tag)
      branch.Publish.b_fields
  in
  Cursor.iter
    (fun row ->
      let key = key_of enc row in
      let branch = branch_of enc row in
      if branch.Publish.b_id = 0 then begin
        close_current ();
        current_key := Some key;
        open_tag parent_tag;
        emit_fields branch row
      end
      else begin
        (match !current_key with
        | Some k when Tuple.equal k key -> ()
        | _ ->
            Errors.exec_errorf
              "tagger: stream not clustered at row %s" (Tuple.to_string row));
        match branch.Publish.b_tag with
        | Some tag ->
            open_tag tag;
            emit_fields branch row;
            close_tag tag
        | None -> emit_fields branch row
      end)
    cursor;
  close_current ();
  close_tag enc.Publish.e_root_tag

(** Publish a view end-to-end with the given strategy. *)
type strategy = Sorted_outer_union | Gapply_pass

let publish ?(strategy = Gapply_pass) (catalog : Catalog.t)
    (spec : Publish.spec) : Xml.t =
  let plan, enc =
    match strategy with
    | Sorted_outer_union -> Publish.outer_union_plan catalog spec
    | Gapply_pass -> Publish.gapply_plan catalog spec
  in
  let compiled = Compile.plan plan in
  tag enc (compiled.Compile.run (Env.make catalog))
