(* Name resolution and translation of SQL ASTs into logical plans.

   Highlights:
   - FROM lists build a left-deep join tree; WHERE conjuncts are placed
     as low as possible (single-table conjuncts as leaf selections,
     two-sided equality conjuncts as join predicates), giving the
     "annotated join tree" normal form Section 4 of the paper assumes;
   - equi-join predicates are matched against declared foreign keys so
     joins carry the FK annotation the invariant-grouping rule needs;
   - EXISTS and scalar subqueries become algebraic Apply (+ Exists /
     renamed Aggregate) nodes — the shapes the Section 4 analyses and
     group-selection rules pattern-match;
   - the paper's extension  select gapply(PGQ) ... group by C : x
     becomes a GApply node whose per-group query scans the relation
     variable [x]. *)

let aggregate_functions = [ "count"; "sum"; "avg"; "min"; "max" ]

(* ---------- scopes ---------- *)

type from_item = {
  fi_alias : string;
  fi_schema : Schema.t;        (* qualified by fi_alias *)
  fi_table : string option;    (* base table name, for FK lookup *)
  fi_plan : Plan.t;
}

type scope = {
  catalog : Catalog.t;
  items : from_item list;
  combined : Schema.t;
  group_vars : (string * Schema.t) list;  (* relation-valued variables *)
  parent : scope option;
}

let root_scope catalog ?(group_vars = []) ?parent () =
  { catalog; items = []; combined = Schema.empty; group_vars; parent }

let rec find_group_var scope name =
  match List.assoc_opt name scope.group_vars with
  | Some s -> Some s
  | None -> Option.bind scope.parent (fun p -> find_group_var p name)

(* Resolve a column reference within [scope]; emit a canonical
   [Expr.Col]; fall back to enclosing scopes as [Expr.Outer]. *)
let resolve_col scope (qual : string option) (name : string) : Expr.t =
  let canonical schema i =
    let c = Schema.get schema i in
    Expr.col ?qual:c.Schema.source c.Schema.cname
  in
  let rec go s depth =
    match Schema.find_all ?qual name s.combined with
    | [ i ] ->
        let r = canonical s.combined i in
        if depth = 0 then Expr.Col r else Expr.Outer r
    | _ :: _ :: _ ->
        Errors.name_errorf "ambiguous column reference %s"
          (match qual with None -> name | Some q -> q ^ "." ^ name)
    | [] -> (
        match s.parent with
        | Some p -> go p (depth + 1)
        | None ->
            Errors.name_errorf "unknown column %s"
              (match qual with None -> name | Some q -> q ^ "." ^ name))
  in
  go scope 0

(* ---------- aggregate / subquery detection ---------- *)

let rec expr_has_aggregate (e : Sql_ast.expr) =
  match e with
  | Sql_ast.Fun_call (name, _, _) when List.mem name aggregate_functions ->
      true
  | Sql_ast.Binop (_, a, b) -> expr_has_aggregate a || expr_has_aggregate b
  | Sql_ast.Neg a | Sql_ast.Not a | Sql_ast.Is_null a | Sql_ast.Is_not_null a
    ->
      expr_has_aggregate a
  | Sql_ast.Case (whens, els) ->
      List.exists (fun (c, v) -> expr_has_aggregate c || expr_has_aggregate v) whens
      || (match els with Some e -> expr_has_aggregate e | None -> false)
  | _ -> false

let rec expr_has_subquery (e : Sql_ast.expr) =
  match e with
  | Sql_ast.Exists _ | Sql_ast.Scalar_subquery _ | Sql_ast.In_subquery _ ->
      true
  | Sql_ast.Binop (_, a, b) -> expr_has_subquery a || expr_has_subquery b
  | Sql_ast.Neg a | Sql_ast.Not a | Sql_ast.Is_null a | Sql_ast.Is_not_null a
    ->
      expr_has_subquery a
  | Sql_ast.Case (whens, els) ->
      List.exists (fun (c, v) -> expr_has_subquery c || expr_has_subquery v) whens
      || (match els with Some e -> expr_has_subquery e | None -> false)
  | _ -> false

(* ---------- pure expression binding (no aggregates, no subqueries) --- *)

let bind_binop : Sql_ast.binop -> Expr.binop = function
  | Sql_ast.Add -> Expr.Add
  | Sql_ast.Sub -> Expr.Sub
  | Sql_ast.Mul -> Expr.Mul
  | Sql_ast.Div -> Expr.Div
  | Sql_ast.Concat -> Expr.Concat
  | Sql_ast.Eq -> Expr.Eq
  | Sql_ast.Neq -> Expr.Neq
  | Sql_ast.Lt -> Expr.Lt
  | Sql_ast.Lte -> Expr.Lte
  | Sql_ast.Gt -> Expr.Gt
  | Sql_ast.Gte -> Expr.Gte
  | Sql_ast.And -> Expr.And
  | Sql_ast.Or -> Expr.Or

let rec bind_pure scope (e : Sql_ast.expr) : Expr.t =
  match e with
  | Sql_ast.Lit_int i -> Expr.int i
  | Sql_ast.Lit_float f -> Expr.float f
  | Sql_ast.Lit_string s -> Expr.str s
  | Sql_ast.Lit_bool b -> Expr.bool b
  | Sql_ast.Lit_null -> Expr.null
  | Sql_ast.Col_ref (qual, name) -> resolve_col scope qual name
  | Sql_ast.Star -> Errors.name_errorf "'*' is only valid inside count(...)"
  | Sql_ast.Binop (op, a, b) ->
      Expr.Binary (bind_binop op, bind_pure scope a, bind_pure scope b)
  | Sql_ast.Neg a -> Expr.Unary (Expr.Neg, bind_pure scope a)
  | Sql_ast.Not a -> Expr.Unary (Expr.Not, bind_pure scope a)
  | Sql_ast.Is_null a -> Expr.Unary (Expr.Is_null, bind_pure scope a)
  | Sql_ast.Is_not_null a -> Expr.Unary (Expr.Is_not_null, bind_pure scope a)
  | Sql_ast.Case (whens, els) ->
      Expr.Case
        ( List.map (fun (c, v) -> (bind_pure scope c, bind_pure scope v)) whens,
          Option.map (bind_pure scope) els )
  | Sql_ast.Fun_call (name, _, _) when List.mem name aggregate_functions ->
      Errors.name_errorf "aggregate %s is not allowed in this context" name
  | Sql_ast.Fun_call (name, _, _) ->
      Errors.name_errorf "unknown function %s" name
  | Sql_ast.Exists _ | Sql_ast.Scalar_subquery _ | Sql_ast.In_subquery _ ->
      Errors.plan_errorf "internal: subquery reached pure binding"

let bind_agg scope (name : string) distinct (args : Sql_ast.expr list) :
    Expr.agg =
  match (name, args) with
  | "count", [ Sql_ast.Star ] -> Expr.count_star
  | ("count" | "sum" | "avg" | "min" | "max"), [ arg ] ->
      let fn =
        match name with
        | "count" -> Expr.Count
        | "sum" -> Expr.Sum
        | "avg" -> Expr.Avg
        | "min" -> Expr.Min
        | "max" -> Expr.Max
        | _ -> assert false
      in
      Expr.agg ~distinct fn (Some (bind_pure scope arg))
  | _, _ ->
      Errors.name_errorf "aggregate %s: wrong number of arguments" name

(* ---------- FROM / WHERE: join tree construction ---------- *)

let fresh_counter = ref 0

let fresh_name prefix =
  incr fresh_counter;
  Printf.sprintf "__%s%d" prefix !fresh_counter

let rec bind_from_item (catalog : Catalog.t) ~group_vars ~parent
    (r : Sql_ast.table_ref) : from_item =
  match r with
  | Sql_ast.From_table (name, alias_opt) -> (
      let alias = Option.value alias_opt ~default:name in
      (* a FROM item naming a relation-valued variable scans the group *)
      let lookup_gv =
        let probe = root_scope catalog ~group_vars ?parent () in
        find_group_var probe name
      in
      match lookup_gv with
      | Some gschema ->
          (* unaliased, the group schema keeps its own qualifiers so that
             PGQ references resolve exactly like outer-query references;
             an alias requalifies it, as for a derived table *)
          let plan = Plan.group_scan ~var:name gschema in
          let plan =
            match alias_opt with
            | None -> plan
            | Some a -> Plan.alias a plan
          in
          {
            fi_alias = alias;
            fi_schema = Props.schema_of plan;
            fi_table = None;
            fi_plan = plan;
          }
      | None ->
          let table = Catalog.find_table catalog name in
          let plan = Plan.table_scan ~table:name ~alias (Table.schema table) in
          {
            fi_alias = alias;
            fi_schema = Props.schema_of plan;
            fi_table = Some name;
            fi_plan = plan;
          })
  | Sql_ast.From_subquery (q, alias, derived_cols) ->
      let plan = bind_query catalog ~group_vars ~parent q in
      let schema = Props.schema_of plan in
      let plan =
        match derived_cols with
        | None -> plan
        | Some cols ->
            if List.length cols <> Schema.arity schema then
              Errors.name_errorf
                "derived table %s declares %d columns but the query \
                 produces %d"
                alias (List.length cols) (Schema.arity schema)
            else
              Plan.project
                (List.map2
                   (fun (c : Schema.column) out ->
                     ( Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
                       out ))
                   (Schema.to_list schema) cols)
                plan
      in
      let plan = Plan.alias alias plan in
      {
        fi_alias = alias;
        fi_schema = Props.schema_of plan;
        fi_table = None;
        fi_plan = plan;
      }

(* Which FROM items does a bound conjunct touch?  Returns indexes. *)
and touched_items (items : from_item list) (e : Expr.t) : int list =
  let refs = Expr.columns e in
  let index_of (r : Expr.col_ref) =
    let rec go i = function
      | [] -> None
      | fi :: rest ->
          if Schema.find_all ?qual:r.Expr.qual r.Expr.name fi.fi_schema <> []
          then Some i
          else go (i + 1) rest
    in
    go 0 items
  in
  List.sort_uniq compare (List.filter_map index_of refs)

(* Detect a foreign-key direction for an equi-join step. *)
and fk_direction catalog ~(left_items : from_item list)
    ~(right_item : from_item) (pred : Expr.t) : Plan.fk_direction option =
  let equi_pairs =
    List.filter_map
      (function
        | Expr.Binary (Expr.Eq, Expr.Col a, Expr.Col b) -> Some (a, b)
        | _ -> None)
      (Expr.conjuncts pred)
  in
  let item_of (r : Expr.col_ref) =
    List.find_opt
      (fun fi ->
        Schema.find_all ?qual:r.Expr.qual r.Expr.name fi.fi_schema <> [])
      (right_item :: left_items)
  in
  (* collect, per (left table, right table) pair, the joined columns *)
  let oriented =
    List.filter_map
      (fun (a, b) ->
        match (item_of a, item_of b) with
        | Some fa, Some fb
          when fa.fi_alias <> fb.fi_alias
               && (fa.fi_alias = right_item.fi_alias
                  || fb.fi_alias = right_item.fi_alias) ->
            if fb.fi_alias = right_item.fi_alias then Some ((fa, a), (fb, b))
            else Some ((fb, b), (fa, a))
        | _ -> None)
      equi_pairs
  in
  match oriented with
  | [] -> None
  | ((left_fi, _), (right_fi, _)) :: _ -> (
      let left_cols =
        List.filter_map
          (fun ((fi, (a : Expr.col_ref)), _) ->
            if fi.fi_alias = left_fi.fi_alias then Some a.Expr.name else None)
          oriented
      in
      let right_cols =
        List.filter_map
          (fun (_, (fi, (b : Expr.col_ref))) ->
            if fi.fi_alias = right_fi.fi_alias then Some b.Expr.name else None)
          oriented
      in
      match (left_fi.fi_table, right_fi.fi_table) with
      | Some lt, Some rt ->
          if
            Catalog.has_foreign_key catalog ~table:lt ~cols:left_cols
              ~ref_table:rt ~ref_cols:right_cols
          then Some Plan.Left_to_right
          else if
            Catalog.has_foreign_key catalog ~table:rt ~cols:right_cols
              ~ref_table:lt ~ref_cols:left_cols
          then Some Plan.Right_to_left
          else None
      | _ -> None)

(* Build the join tree for a FROM list with its WHERE clause. *)
and bind_from_where (catalog : Catalog.t) ~group_vars ~parent
    (from : Sql_ast.table_ref list) (where : Sql_ast.expr option) :
    scope * Plan.t =
  if from = [] then
    Errors.plan_errorf "queries without a FROM clause are not supported";
  let items =
    List.map (bind_from_item catalog ~group_vars ~parent) from
  in
  (match
     List.sort_uniq String.compare (List.map (fun fi -> fi.fi_alias) items)
   with
  | uniq when List.length uniq <> List.length items ->
      Errors.name_errorf "duplicate table alias in FROM"
  | _ -> ());
  let combined =
    List.fold_left
      (fun acc fi -> Schema.concat acc fi.fi_schema)
      Schema.empty items
  in
  let scope = { catalog; items; combined; group_vars; parent } in
  (* split WHERE into pure conjuncts and subquery conjuncts *)
  let conjuncts =
    match where with None -> [] | Some w -> split_conjuncts w
  in
  let pure_sql, subq_sql =
    List.partition (fun c -> not (expr_has_subquery c)) conjuncts
  in
  let pure =
    List.map (fun c -> (bind_pure scope c, ref false)) pure_sql
  in
  (* leaf selections: conjuncts touching exactly one item *)
  let items_with_selections =
    List.mapi
      (fun i fi ->
        let mine =
          List.filter_map
            (fun (c, used) ->
              if
                (not !used)
                && (not (Expr.references_outer c))
                && touched_items items c = [ i ]
              then begin
                used := true;
                Some c
              end
              else None)
            pure
        in
        match mine with
        | [] -> fi
        | ps -> { fi with fi_plan = Plan.select (Expr.conjoin ps) fi.fi_plan })
      items
  in
  (* left-deep join tree; join predicates attach at the lowest step where
     all their columns are available *)
  let plan =
    match items_with_selections with
    | [] -> assert false
    | first :: rest ->
        let _, plan =
          List.fold_left
            (fun (covered, acc_plan) fi ->
              let i =
                let rec idx j = function
                  | [] -> assert false
                  | x :: rest ->
                      if x.fi_alias = fi.fi_alias then j else idx (j + 1) rest
                in
                idx 0 items
              in
              let covered = i :: covered in
              let preds =
                List.filter_map
                  (fun (c, used) ->
                    if
                      (not !used)
                      && (not (Expr.references_outer c))
                      &&
                      let touched = touched_items items c in
                      touched <> []
                      && List.mem i touched
                      && List.for_all (fun t -> List.mem t covered) touched
                    then begin
                      used := true;
                      Some c
                    end
                    else None)
                  pure
              in
              let pred =
                match preds with [] -> Expr.true_ | ps -> Expr.conjoin ps
              in
              let left_items =
                List.filter (fun x -> x.fi_alias <> fi.fi_alias) items
              in
              let fk =
                fk_direction catalog ~left_items ~right_item:fi pred
              in
              (covered, Plan.join ?fk pred acc_plan fi.fi_plan))
            ([ 0 ], first.fi_plan)
            rest
        in
        plan
  in
  (* leftover pure conjuncts (correlated or constant) as a top select *)
  let leftover =
    List.filter_map (fun (c, used) -> if !used then None else Some c) pure
  in
  let plan =
    match leftover with
    | [] -> plan
    | ps -> Plan.select (Expr.conjoin ps) plan
  in
  (* subquery conjuncts become Apply / Exists nodes *)
  let plan =
    List.fold_left (fun plan c -> apply_subquery_conjunct scope plan c) plan
      subq_sql
  in
  (scope, plan)

and split_conjuncts (e : Sql_ast.expr) : Sql_ast.expr list =
  match e with
  | Sql_ast.Binop (Sql_ast.And, a, b) -> split_conjuncts a @ split_conjuncts b
  | e -> [ e ]

(* Rewrite one WHERE conjunct containing subqueries:
   - a top-level [NOT] EXISTS becomes Apply(plan, Exists(inner));
   - scalar subqueries are bound, renamed to a fresh column, attached
     with Apply, and the conjunct becomes an ordinary selection. *)
(* [x [NOT] IN (q)] desugars to [[NOT] EXISTS (select 1 from (q) as
   __int(__inv) where __inv = x)].  Note the standard simplification:
   NOT IN over a subquery containing NULLs follows the EXISTS semantics
   (rows with no match qualify) rather than SQL's three-valued NOT IN. *)
and desugar_in e q negated : Sql_ast.expr =
  Sql_ast.Exists
    ( Sql_ast.Select
        {
          Sql_ast.distinct = false;
          items = [ Sql_ast.Item (Sql_ast.Lit_int 1, None) ];
          from = [ Sql_ast.From_subquery (q, "__int", Some [ "__inv" ]) ];
          where =
            Some (Sql_ast.Binop (Sql_ast.Eq, Sql_ast.Col_ref (None, "__inv"), e));
          group_by = [];
          group_var = None;
          having = None;
        },
      negated )

and apply_subquery_conjunct scope (plan : Plan.t) (c : Sql_ast.expr) : Plan.t
    =
  let c =
    match c with
    | Sql_ast.In_subquery (e, q, negated) -> desugar_in e q negated
    | c -> c
  in
  match c with
  | Sql_ast.Exists (q, negated) ->
      let inner = bind_query scope.catalog ~group_vars:scope.group_vars
          ~parent:(Some scope) q
      in
      Plan.apply plan (Plan.exists ~negated inner)
  | _ ->
      let additions = ref [] in
      let rec rewrite (e : Sql_ast.expr) : Sql_ast.expr =
        match e with
        | Sql_ast.Scalar_subquery q ->
            let col = attach_scalar q in
            Sql_ast.Col_ref (None, col)
        | Sql_ast.Exists _ | Sql_ast.In_subquery _ ->
            Errors.plan_errorf
              "EXISTS / IN must appear as a top-level WHERE conjunct"
        | Sql_ast.Binop (op, a, b) -> Sql_ast.Binop (op, rewrite a, rewrite b)
        | Sql_ast.Neg a -> Sql_ast.Neg (rewrite a)
        | Sql_ast.Not a -> Sql_ast.Not (rewrite a)
        | Sql_ast.Is_null a -> Sql_ast.Is_null (rewrite a)
        | Sql_ast.Is_not_null a -> Sql_ast.Is_not_null (rewrite a)
        | Sql_ast.Case (whens, els) ->
            Sql_ast.Case
              ( List.map (fun (c, v) -> (rewrite c, rewrite v)) whens,
                Option.map rewrite els )
        | e -> e
      and attach_scalar q : string =
        let inner =
          bind_query scope.catalog ~group_vars:scope.group_vars
            ~parent:(Some scope) q
        in
        let inner_schema = Props.schema_of inner in
        if Schema.arity inner_schema <> 1 then
          Errors.plan_errorf
            "scalar subquery must return exactly one column";
        let fresh = fresh_name "sq" in
        let inner =
          (* keep canonical shapes: rename an Aggregate's single output
             in place rather than wrapping it in a projection *)
          match inner with
          | Plan.Aggregate { aggs = [ (a, _) ]; input } ->
              Plan.aggregate [ (a, fresh) ] input
          | _ ->
              let c = Schema.get inner_schema 0 in
              Plan.project
                [ (Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
                   fresh) ]
                inner
        in
        additions := inner :: !additions;
        fresh
      in
      let rewritten = rewrite c in
      let plan =
        List.fold_left (fun p inner -> Plan.apply p inner) plan
          (List.rev !additions)
      in
      (* bind the rewritten conjunct against the widened schema *)
      let widened =
        {
          scope with
          combined = Props.schema_of plan;
        }
      in
      Plan.select (bind_pure widened rewritten) plan

(* ---------- SELECT list handling ---------- *)

(* Collect aggregate calls from an item expression, replacing them by
   references to named aggregate output columns. *)
and extract_aggregates scope (collected : (Expr.agg * string) list ref)
    (e : Sql_ast.expr) : Sql_ast.expr =
  match e with
  | Sql_ast.Fun_call (name, distinct, args)
    when List.mem name aggregate_functions ->
      let agg = bind_agg scope name distinct args in
      let existing =
        List.find_opt (fun (a, _) -> Expr.agg_equal a agg) !collected
      in
      let col =
        match existing with
        | Some (_, n) -> n
        | None ->
            let n = fresh_name "agg" in
            collected := !collected @ [ (agg, n) ];
            n
      in
      Sql_ast.Col_ref (None, col)
  | Sql_ast.Binop (op, a, b) ->
      Sql_ast.Binop
        (op, extract_aggregates scope collected a,
         extract_aggregates scope collected b)
  | Sql_ast.Neg a -> Sql_ast.Neg (extract_aggregates scope collected a)
  | Sql_ast.Not a -> Sql_ast.Not (extract_aggregates scope collected a)
  | Sql_ast.Is_null a -> Sql_ast.Is_null (extract_aggregates scope collected a)
  | Sql_ast.Is_not_null a ->
      Sql_ast.Is_not_null (extract_aggregates scope collected a)
  | Sql_ast.Case (whens, els) ->
      Sql_ast.Case
        ( List.map
            (fun (c, v) ->
              ( extract_aggregates scope collected c,
                extract_aggregates scope collected v ))
            whens,
          Option.map (extract_aggregates scope collected) els )
  | e -> e

and default_item_name (e : Sql_ast.expr) (i : int) : string =
  match e with
  | Sql_ast.Col_ref (_, n) -> n
  | Sql_ast.Fun_call (n, _, _) -> n
  | _ -> Printf.sprintf "col%d" (i + 1)

(* Bind a select core with aggregation (GROUP BY without ':', or
   aggregates in the select list). *)
and bind_aggregate_select scope plan (spec : Sql_ast.select_spec) : Plan.t =
  let keys =
    List.map
      (fun (q, n) ->
        match resolve_col scope q n with
        | Expr.Col r -> r
        | _ -> Errors.name_errorf "grouping column %s is not local" n)
      spec.Sql_ast.group_by
  in
  let collected = ref [] in
  let items =
    List.map
      (function
        | Sql_ast.Item_star ->
            Errors.plan_errorf "SELECT * cannot be combined with GROUP BY"
        | Sql_ast.Item_gapply _ ->
            Errors.plan_errorf
              "gapply requires the GROUP BY ... : var form"
        | Sql_ast.Item (e, alias) ->
            (extract_aggregates scope collected e, alias))
      spec.Sql_ast.items
  in
  let having =
    Option.map (fun h -> extract_aggregates scope collected h)
      spec.Sql_ast.having
  in
  let grouped =
    if keys = [] then Plan.aggregate !collected plan
    else Plan.group_by keys !collected plan
  in
  let out_schema = Props.schema_of grouped in
  let post_scope =
    {
      scope with
      items = [];
      combined = out_schema;
      parent = scope.parent;
    }
  in
  let filtered =
    match having with
    | None -> grouped
    | Some h -> Plan.select (bind_pure post_scope h) grouped
  in
  (* final projection over keys and aggregate columns *)
  let named_items =
    List.mapi
      (fun i (e, alias) ->
        let name =
          match alias with Some a -> a | None -> default_item_name e i
        in
        (bind_pure post_scope e, name))
      items
  in
  (* Collapse the projection when the items are a positional pass-through
     of the groupby output: rename aggregate outputs in place instead of
     wrapping a projection, so the plan keeps the canonical shape the
     Section 4 rules pattern-match (e.g. a bare Aggregate node). *)
  let positional =
    List.length named_items = Schema.arity out_schema
    && List.for_all2
         (fun (e, _) (c : Schema.column) ->
           match e with
           | Expr.Col r -> String.equal r.Expr.name c.Schema.cname
           | _ -> false)
         named_items (Schema.to_list out_schema)
  in
  let rename_aggs offset aggs =
    List.mapi
      (fun i (a, _) -> (a, snd (List.nth named_items (offset + i))))
      aggs
  in
  let key_names_unchanged nkeys =
    List.for_all2
      (fun (_, name) (c : Schema.column) -> String.equal name c.Schema.cname)
      (List.filteri (fun i _ -> i < nkeys) named_items)
      (List.filteri (fun i _ -> i < nkeys) (Schema.to_list out_schema))
  in
  if positional && having = None then
    match grouped with
    | Plan.Aggregate { aggs; input } ->
        Plan.aggregate (rename_aggs 0 aggs) input
    | Plan.Group_by { keys; aggs; input }
      when key_names_unchanged (List.length keys) ->
        Plan.group_by keys (rename_aggs (List.length keys) aggs) input
    | _ -> Plan.project named_items filtered
  else if positional && having <> None && key_names_unchanged 0 then
    (* having present: keep the filter, skip only an identity projection *)
    if
      List.for_all2
        (fun (_, name) (c : Schema.column) ->
          String.equal name c.Schema.cname)
        named_items (Schema.to_list out_schema)
    then filtered
    else Plan.project named_items filtered
  else Plan.project named_items filtered

(* Bind the paper's gapply form. *)
and bind_gapply_select scope plan (spec : Sql_ast.select_spec) : Plan.t =
  let var =
    match spec.Sql_ast.group_var with Some v -> v | None -> assert false
  in
  let pgq_ast, as_cols =
    match spec.Sql_ast.items with
    | [ Sql_ast.Item_gapply (q, cols) ] -> (q, cols)
    | _ ->
        Errors.plan_errorf
          "a gapply query must have gapply(...) as its only select item"
  in
  if spec.Sql_ast.having <> None then
    Errors.plan_errorf "HAVING cannot be combined with gapply";
  let gcols =
    List.map
      (fun (q, n) ->
        match resolve_col scope q n with
        | Expr.Col r -> r
        | _ -> Errors.name_errorf "grouping column %s is not local" n)
      spec.Sql_ast.group_by
  in
  let group_schema = Props.schema_of plan in
  let pgq =
    bind_query scope.catalog
      ~group_vars:((var, group_schema) :: scope.group_vars)
      ~parent:scope.parent pgq_ast
  in
  (* the paper's syntax guarantees results clustered by the grouping
     columns (Section 3.1), so gapply-syntax plans carry the clustering
     requirement; the physical operator satisfies it directly, making a
     separate partition operator on top redundant *)
  let ga = Plan.g_apply_clustered ~gcols ~var ~outer:plan ~pgq in
  match as_cols with
  | [] -> ga
  | cols ->
      let out = Props.schema_of ga in
      let arity = Schema.arity out in
      let pgq_arity = Schema.arity (Props.schema_of pgq) in
      let rename offset =
        Plan.project
          (List.mapi
             (fun i (c : Schema.column) ->
               let name =
                 if i >= offset then List.nth cols (i - offset)
                 else c.Schema.cname
               in
               ( Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
                 name ))
             (Schema.to_list out))
          ga
      in
      if List.length cols = arity then rename 0
      else if List.length cols = pgq_arity then rename (arity - pgq_arity)
      else
        Errors.name_errorf
          "gapply AS list has %d columns; expected %d (whole result) or %d \
           (per-group result)"
          (List.length cols) arity pgq_arity

(* Plain select list (no aggregation). *)
and bind_plain_select scope plan (spec : Sql_ast.select_spec) : Plan.t =
  (* pre-attach scalar subqueries appearing in the select list *)
  let additions = ref [] in
  let rec strip (e : Sql_ast.expr) : Sql_ast.expr =
    match e with
    | Sql_ast.Scalar_subquery q ->
        let inner =
          bind_query scope.catalog ~group_vars:scope.group_vars
            ~parent:(Some scope) q
        in
        let inner_schema = Props.schema_of inner in
        if Schema.arity inner_schema <> 1 then
          Errors.plan_errorf "scalar subquery must return exactly one column";
        let fresh = fresh_name "sq" in
        let inner =
          match inner with
          | Plan.Aggregate { aggs = [ (a, _) ]; input } ->
              Plan.aggregate [ (a, fresh) ] input
          | _ ->
              let c = Schema.get inner_schema 0 in
              Plan.project
                [ (Expr.Col (Expr.col ?qual:c.Schema.source c.Schema.cname),
                   fresh) ]
                inner
        in
        additions := inner :: !additions;
        Sql_ast.Col_ref (None, fresh)
    | Sql_ast.Binop (op, a, b) -> Sql_ast.Binop (op, strip a, strip b)
    | Sql_ast.Neg a -> Sql_ast.Neg (strip a)
    | Sql_ast.Not a -> Sql_ast.Not (strip a)
    | Sql_ast.Is_null a -> Sql_ast.Is_null (strip a)
    | Sql_ast.Is_not_null a -> Sql_ast.Is_not_null (strip a)
    | Sql_ast.Case (whens, els) ->
        Sql_ast.Case
          ( List.map (fun (c, v) -> (strip c, strip v)) whens,
            Option.map strip els )
    | e -> e
  in
  let items =
    List.map
      (function
        | Sql_ast.Item_star -> Sql_ast.Item_star
        | Sql_ast.Item (e, alias) -> Sql_ast.Item (strip e, alias)
        | Sql_ast.Item_gapply _ ->
            Errors.plan_errorf
              "gapply requires the GROUP BY ... : var form")
      spec.Sql_ast.items
  in
  let plan =
    List.fold_left (fun p inner -> Plan.apply p inner) plan
      (List.rev !additions)
  in
  let widened = { scope with combined = Props.schema_of plan } in
  match items with
  | [ Sql_ast.Item_star ] when !additions = [] -> plan
  | _ ->
      let named =
        List.concat
          (List.mapi
             (fun i item ->
               match item with
               | Sql_ast.Item_star ->
                   (* expand to the pre-subquery FROM columns *)
                   List.map
                     (fun (c : Schema.column) ->
                       ( Expr.Col
                           (Expr.col ?qual:c.Schema.source c.Schema.cname),
                         c.Schema.cname ))
                     (Schema.to_list scope.combined)
               | Sql_ast.Item (e, alias) ->
                   let name =
                     match alias with
                     | Some a -> a
                     | None -> default_item_name e i
                   in
                   [ (bind_pure widened e, name) ]
               | Sql_ast.Item_gapply _ -> assert false)
             items)
      in
      Plan.project named plan

and bind_select (catalog : Catalog.t) ~group_vars ~parent
    (spec : Sql_ast.select_spec) : Plan.t =
  let scope, plan =
    bind_from_where catalog ~group_vars ~parent spec.Sql_ast.from
      spec.Sql_ast.where
  in
  let has_gapply_item =
    List.exists
      (function Sql_ast.Item_gapply _ -> true | _ -> false)
      spec.Sql_ast.items
  in
  let has_aggregates =
    List.exists
      (function
        | Sql_ast.Item (e, _) -> expr_has_aggregate e
        | _ -> false)
      spec.Sql_ast.items
    || (match spec.Sql_ast.having with
       | Some h -> expr_has_aggregate h
       | None -> false)
  in
  let plan =
    if has_gapply_item || spec.Sql_ast.group_var <> None then
      bind_gapply_select scope plan spec
    else if spec.Sql_ast.group_by <> [] || has_aggregates then
      bind_aggregate_select scope plan spec
    else bind_plain_select scope plan spec
  in
  if spec.Sql_ast.distinct then Plan.distinct plan else plan

and bind_query (catalog : Catalog.t) ?(group_vars = []) ?(parent = None)
    (q : Sql_ast.query) : Plan.t =
  match q with
  | Sql_ast.Select spec -> bind_select catalog ~group_vars ~parent spec
  | Sql_ast.Union_all (a, b) ->
      let pa = bind_query catalog ~group_vars ~parent a in
      let pb = bind_query catalog ~group_vars ~parent b in
      let sa = Props.schema_of pa and sb = Props.schema_of pb in
      if Schema.arity sa <> Schema.arity sb then
        Errors.plan_errorf "UNION ALL branches have different arities (%d, %d)"
          (Schema.arity sa) (Schema.arity sb);
      let flatten p =
        match p with Plan.Union_all ps -> ps | p -> [ p ]
      in
      Plan.union_all (flatten pa @ flatten pb)
  | Sql_ast.Order_by (q, keys) ->
      let plan = bind_query catalog ~group_vars ~parent q in
      let out = Props.schema_of plan in
      let scope_of schema =
        { catalog; items = []; combined = schema; group_vars; parent }
      in
      let dir_of = function
        | Sql_ast.Asc -> Plan.Asc
        | Sql_ast.Desc -> Plan.Desc
      in
      (* Order keys may reference output columns (possibly dropping a
         stale qualifier, as in ORDER BY tmp.k over a projection that
         exported k) or, failing that, columns of the input under the
         projection — the standard "hidden sort column" treatment. *)
      let rec strip_quals (e : Sql_ast.expr) =
        match e with
        | Sql_ast.Col_ref (Some _, n) -> Sql_ast.Col_ref (None, n)
        | Sql_ast.Binop (op, a, b) ->
            Sql_ast.Binop (op, strip_quals a, strip_quals b)
        | Sql_ast.Neg a -> Sql_ast.Neg (strip_quals a)
        | Sql_ast.Not a -> Sql_ast.Not (strip_quals a)
        | Sql_ast.Is_null a -> Sql_ast.Is_null (strip_quals a)
        | Sql_ast.Is_not_null a -> Sql_ast.Is_not_null (strip_quals a)
        | e -> e
      in
      let try_bind schema e =
        try Some (bind_pure (scope_of schema) e)
        with Errors.Name_error _ -> (
          try Some (bind_pure (scope_of schema) (strip_quals e))
          with Errors.Name_error _ -> None)
      in
      let direct =
        List.map (fun (e, d) -> (try_bind out e, e, dir_of d)) keys
      in
      if List.for_all (fun (b, _, _) -> b <> None) direct then
        Plan.order_by
          (List.map (fun (b, _, d) -> (Option.get b, d)) direct)
          plan
      else (
        match plan with
        | Plan.Project { items; input } ->
            let in_schema = Props.schema_of input in
            let hidden = ref [] in
            let resolved =
              List.map
                (fun (b, e, d) ->
                  match b with
                  | Some bound -> (bound, d)
                  | None -> (
                      match try_bind in_schema e with
                      | None ->
                          Errors.name_errorf
                            "cannot resolve ORDER BY expression %s"
                            (Sql_ast.expr_to_string e)
                      | Some bound ->
                          let name = fresh_name "ord" in
                          hidden := (bound, name) :: !hidden;
                          (Expr.column name, d)))
                direct
            in
            let widened =
              Plan.project (items @ List.rev !hidden) input
            in
            let sorted = Plan.order_by resolved widened in
            Plan.project
              (List.map
                 (fun (_, name) -> (Expr.column name, name))
                 items)
              sorted
        | _ ->
            Errors.name_errorf
              "ORDER BY references columns outside the query output")

(* ---------- statements ---------- *)

let bind_literal_row scope (exprs : Sql_ast.expr list) : Tuple.t =
  Tuple.of_list
    (List.map
       (fun e ->
         let bound = bind_pure scope e in
         match bound with
         | Expr.Lit v -> v
         | Expr.Unary (Expr.Neg, Expr.Lit v) -> Value.neg v
         | _ ->
             Errors.plan_errorf "INSERT values must be literals")
       exprs)

(** Execute a DDL/DML statement against the catalog; returns a plan for
    SELECT / EXPLAIN statements. *)
type bound_statement =
  | Bound_query of Plan.t
  | Bound_explain of Plan.t
  | Bound_explain_analyze of Plan.t
  | Bound_ddl of string   (* human-readable confirmation *)
  | Bound_prepare of string * Sql_ast.query
  | Bound_execute of string
  | Bound_deallocate of string
      (* prepared-statement statements are resolved by the engine, which
         owns the prepared-handle namespace and the plan cache *)
  | Bound_set of string * Sql_ast.set_value
      (* session knobs are interpreted by the engine, which owns the
         per-statement budget and the durability policy *)

(** Bind an INSERT's literal rows and validate them against the table —
    without applying anything.  The transactional engine stages the
    result until COMMIT; validating here means a bad statement fails at
    statement time and leaves no stranded uncommitted version behind. *)
let bind_insert_rows (catalog : Catalog.t) (name : string)
    (rows : Sql_ast.expr list list) : Table.t * Tuple.t list =
  let table = Catalog.find_table catalog name in
  let scope = root_scope catalog () in
  (* bind every row before inserting any: a bad literal in row k must
     not leave rows 1..k-1 inserted (and the table version bumped) *)
  let bound = List.map (bind_literal_row scope) rows in
  Table.check_rows table bound;
  (table, bound)

let bind_statement (catalog : Catalog.t) (stmt : Sql_ast.statement) :
    bound_statement =
  match stmt with
  | Sql_ast.Stmt_select q -> Bound_query (bind_query catalog q)
  | Sql_ast.Stmt_explain q -> Bound_explain (bind_query catalog q)
  | Sql_ast.Stmt_explain_analyze q ->
      Bound_explain_analyze (bind_query catalog q)
  | Sql_ast.Stmt_create_table (name, cols, constraints) ->
      let primary_key =
        List.concat_map
          (function Sql_ast.Primary_key ks -> ks | _ -> [])
          constraints
      in
      let foreign_keys =
        List.filter_map
          (function
            | Sql_ast.Foreign_key (ks, t, rs) ->
                Some
                  {
                    Table.fk_columns = ks;
                    fk_table = t;
                    fk_ref_columns = rs;
                  }
            | _ -> None)
          constraints
      in
      let table =
        Table.create ~primary_key ~foreign_keys name
          (List.map
             (fun (c : Sql_ast.column_def) ->
               (c.Sql_ast.col_name, c.Sql_ast.col_type))
             cols)
      in
      Catalog.add_table catalog table;
      Bound_ddl (Printf.sprintf "created table %s" name)
  | Sql_ast.Stmt_insert (name, rows) ->
      let table, bound = bind_insert_rows catalog name rows in
      (* insert_all validates arity for the whole batch before storing
         anything, so a bad row can't leave a partial insert (or a
         phantom Table.version bump) behind *)
      (* no eager stats invalidation: the insert bumps Table.version, and
         the catalog's statistics cache is version-stamped — the next
         consumer recomputes lazily (Catalog.stats_of), without bumping
         the stats epoch (and stranding unrelated cached plans) now *)
      Table.insert_all table bound;
      Bound_ddl
        (Printf.sprintf "inserted %d row(s) into %s" (List.length rows) name)
  | Sql_ast.Stmt_create_index (name, table, cols) ->
      Catalog.create_index catalog ~name ~table ~columns:cols;
      Bound_ddl (Printf.sprintf "created index %s on %s" name table)
  | Sql_ast.Stmt_drop_table name ->
      Catalog.drop_table catalog name;
      Bound_ddl (Printf.sprintf "dropped table %s" name)
  | Sql_ast.Stmt_drop_index name ->
      Catalog.drop_index catalog name;
      Bound_ddl (Printf.sprintf "dropped index %s" name)
  | Sql_ast.Stmt_prepare (name, q) -> Bound_prepare (name, q)
  | Sql_ast.Stmt_execute name -> Bound_execute name
  | Sql_ast.Stmt_deallocate name -> Bound_deallocate name
  | Sql_ast.Stmt_set (name, v) -> Bound_set (name, v)
  | Sql_ast.Stmt_begin | Sql_ast.Stmt_commit | Sql_ast.Stmt_rollback ->
      (* transaction control never reaches the binder: the engine owns
         session transaction state (and the WAL never records these —
         recovery sees Txn_begin/Txn_commit markers instead) *)
      Errors.plan_errorf "transaction control is handled by the engine"
