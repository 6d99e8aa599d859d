(* The publishing pipeline of paper Section 2 over the three views, each
   under both strategies: plan, compile, execute, tag.

   [publish_streaming] is the end-to-end op: the compiled plan's cursor
   feeds the tagger directly, as the pipeline runs in production.  The
   traced replay calls the same layers one by one (see [Traced]) and
   materializes the rows between execution and tagging so that each
   layer gets its own span. *)

type planned =
  | Flat of Plan.t * Publish.encoding
  | Deep of Plan.t * Deep_publish.encoding

let spec_of_view = function
  | "figure1" -> Publish.of_view Xml_view.figure1
  | "q1" -> Flwr.compile Flwr.q1
  | v -> invalid_arg ("unknown view " ^ v)

let plan_doc cat (d : Ops.doc) =
  match (d.Ops.view, d.Ops.strategy) with
  | "deep", Ops.Outer_union ->
      let p, e = Deep_publish.outer_union_plan cat Deep_view.customer_orders in
      Deep (p, e)
  | "deep", Ops.Gapply ->
      let p, e = Deep_publish.gapply_plan cat Deep_view.customer_orders in
      Deep (p, e)
  | v, Ops.Outer_union ->
      let p, e = Publish.outer_union_plan cat (spec_of_view v) in
      Flat (p, e)
  | v, Ops.Gapply ->
      let p, e = Publish.gapply_plan cat (spec_of_view v) in
      Flat (p, e)

let plan_of = function Flat (p, _) | Deep (p, _) -> p

(* Tag a row stream into markup text. *)
let tag planned cursor =
  match planned with
  | Flat (_, enc) ->
      let buf = Buffer.create 65536 in
      Tagger.tag_to_buffer enc cursor buf;
      Buffer.contents buf
  | Deep (_, enc) -> Xml.to_string (Deep_publish.tag enc cursor)

let publish_streaming cat d =
  let planned = plan_doc cat d in
  let compiled = Compile.plan (plan_of planned) in
  tag planned (compiled.Compile.run (Env.make cat))

(* Reference: both strategies of each view must publish the same
   document up to sibling order; the bytes of each document are then
   pinned for every later op. *)
let reference cat : Check.publish_ref =
  let t = Hashtbl.create 8 in
  List.iter
    (fun view ->
      let same =
        if view = "deep" then
          Xml.equal_unordered
            (Deep_publish.publish ~strategy:Deep_publish.Sorted_outer_union cat
               Deep_view.customer_orders)
            (Deep_publish.publish ~strategy:Deep_publish.Gapply_pass cat
               Deep_view.customer_orders)
        else
          let spec = spec_of_view view in
          Xml.equal_unordered
            (Tagger.publish ~strategy:Tagger.Sorted_outer_union cat spec)
            (Tagger.publish ~strategy:Tagger.Gapply_pass cat spec)
      in
      if not same then failwith ("strategies disagree on view " ^ view))
    [ "figure1"; "q1"; "deep" ];
  List.iter
    (fun d ->
      let s = publish_streaming cat d in
      Hashtbl.replace t (Ops.doc_name d) (String.length s, Digest.string s))
    Ops.publish_docs;
  t

let doc_ok (r : Check.publish_ref) d s =
  match Hashtbl.find_opt r (Ops.doc_name d) with
  | Some (len, dg) -> String.length s = len && Digest.string s = dg
  | None -> false
