(* SQL abstract syntax.

   The dialect is the one used throughout the paper: SELECT / FROM /
   WHERE / GROUP BY / HAVING / ORDER BY / UNION ALL, EXISTS and scalar
   subqueries, aggregate functions, searched CASE — plus the paper's
   Section 3.1 extension:

     select gapply(<query over the group variable>) [as (c1, ..., cn)]
     from ...
     where ...
     group by g1, ..., gk : var                                        *)

type binop =
  | Add | Sub | Mul | Div | Concat
  | Eq | Neq | Lt | Lte | Gt | Gte
  | And | Or

type order_dir = Asc | Desc

type expr =
  | Lit_int of int
  | Lit_float of float
  | Lit_string of string
  | Lit_bool of bool
  | Lit_null
  | Col_ref of string option * string   (* optional qualifier, name *)
  | Star                                (* only valid inside count-star *)
  | Binop of binop * expr * expr
  | Neg of expr
  | Not of expr
  | Is_null of expr
  | Is_not_null of expr
  | Fun_call of string * bool * expr list  (* name, DISTINCT?, args *)
  | Case of (expr * expr) list * expr option
  | Exists of query * bool              (* query, negated? *)
  | In_subquery of expr * query * bool  (* expr [NOT] IN (query) *)
  | Scalar_subquery of query

and select_item =
  | Item of expr * string option        (* expression [AS alias] *)
  | Item_star
  | Item_gapply of query * string list  (* gapply(PGQ) [as (cols)] *)

and table_ref =
  | From_table of string * string option          (* table [alias] *)
  | From_subquery of query * string * string list option
      (* (query) alias [(derived column names)] *)

and select_spec = {
  distinct : bool;
  items : select_item list;
  from : table_ref list;
  where : expr option;
  group_by : (string option * string) list;       (* grouping columns *)
  group_var : string option;                      (* the ': x' variable *)
  having : expr option;
}

and query =
  | Select of select_spec
  | Union_all of query * query
  | Order_by of query * (expr * order_dir) list

type column_def = { col_name : string; col_type : Datatype.t }

type table_constraint =
  | Primary_key of string list
  | Foreign_key of string list * string * string list

type statement =
  | Stmt_select of query
  | Stmt_create_table of string * column_def list * table_constraint list
  | Stmt_create_index of string * string * string list
      (* index name, table, columns *)
  | Stmt_insert of string * expr list list
  | Stmt_drop_table of string
  | Stmt_drop_index of string
  | Stmt_explain of query
  | Stmt_explain_analyze of query
      (* execute the query under per-operator instrumentation and render
         the annotated operator tree *)
  | Stmt_prepare of string * query  (* PREPARE name AS query *)
  | Stmt_execute of string
  | Stmt_deallocate of string
  | Stmt_begin
      (* BEGIN [TRANSACTION | WORK] — open an interactive transaction on
         the session: reads pin a snapshot, writes stage until COMMIT *)
  | Stmt_commit  (* COMMIT [TRANSACTION | WORK] *)
  | Stmt_rollback  (* ROLLBACK [TRANSACTION | WORK] *)
  | Stmt_set of string * set_value
      (* SET <knob> = <int> | <ident> | DEFAULT — session resource knobs
         (statement_timeout_ms, ...) take ints, durability takes an
         identifier (off | lazy | strict); DEFAULT resets to the
         knob's default *)

and set_value = Set_default | Set_int of int | Set_ident of string

(* ---------- printing (used by error messages, the CLI, and the
   parse/print round-trip property tests) ---------- *)

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Concat -> "||"
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Lte -> "<=" | Gt -> ">"
  | Gte -> ">=" | And -> "AND" | Or -> "OR"

let quote_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

(* The shortest text that reads back as exactly [f]. The lexer reads an
   exponent only after a decimal point, so "1e-05" is written "1.0e-05";
   it reads an overflowing literal as infinity, so infinity is written as
   one. The parser makes no negative or NaN literal. *)
let float_literal f =
  if f = Float.infinity then "1.0e999"
  else
    let s =
      match
        List.find_opt
          (fun s -> float_of_string s = f)
          [ Printf.sprintf "%.15g" f; Printf.sprintf "%.16g" f ]
      with
      | Some s -> s
      | None -> Printf.sprintf "%.17g" f
    in
    if String.contains s '.' then s
    else
      match String.index_opt s 'e' with
      | Some i -> String.sub s 0 i ^ ".0" ^ String.sub s i (String.length s - i)
      | None -> s ^ ".0"

let rec expr_to_string = function
  | Lit_int i -> string_of_int i
  | Lit_float f -> float_literal f
  | Lit_string s -> quote_string s
  | Lit_bool b -> if b then "TRUE" else "FALSE"
  | Lit_null -> "NULL"
  | Col_ref (None, n) -> n
  | Col_ref (Some q, n) -> q ^ "." ^ n
  | Star -> "*"
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_to_string op)
        (expr_to_string b)
  | Neg e -> Printf.sprintf "(- %s)" (expr_to_string e)
  | Not e -> Printf.sprintf "(NOT %s)" (expr_to_string e)
  | Is_null e -> Printf.sprintf "(%s IS NULL)" (expr_to_string e)
  | Is_not_null e -> Printf.sprintf "(%s IS NOT NULL)" (expr_to_string e)
  | Fun_call (name, distinct, args) ->
      Printf.sprintf "%s(%s%s)" name
        (if distinct then "distinct " else "")
        (String.concat ", " (List.map expr_to_string args))
  | Case (whens, els) ->
      "CASE "
      ^ String.concat " "
          (List.map
             (fun (c, v) ->
               Printf.sprintf "WHEN %s THEN %s" (expr_to_string c)
                 (expr_to_string v))
             whens)
      ^ (match els with
        | None -> ""
        | Some e -> " ELSE " ^ expr_to_string e)
      ^ " END"
  | Exists (q, negated) ->
      Printf.sprintf "(%sEXISTS (%s))"
        (if negated then "NOT " else "")
        (query_to_string q)
  | In_subquery (e, q, negated) ->
      Printf.sprintf "(%s %sIN (%s))" (expr_to_string e)
        (if negated then "NOT " else "")
        (query_to_string q)
  | Scalar_subquery q -> Printf.sprintf "(%s)" (query_to_string q)

and item_to_string = function
  | Item (e, None) -> expr_to_string e
  | Item (e, Some a) -> expr_to_string e ^ " AS " ^ a
  | Item_star -> "*"
  | Item_gapply (q, []) -> Printf.sprintf "gapply(%s)" (query_to_string q)
  | Item_gapply (q, cols) ->
      Printf.sprintf "gapply(%s) AS (%s)" (query_to_string q)
        (String.concat ", " cols)

and table_ref_to_string = function
  | From_table (t, None) -> t
  | From_table (t, Some a) -> t ^ " AS " ^ a
  | From_subquery (q, a, None) ->
      Printf.sprintf "(%s) AS %s" (query_to_string q) a
  | From_subquery (q, a, Some cols) ->
      Printf.sprintf "(%s) AS %s (%s)" (query_to_string q) a
        (String.concat ", " cols)

and select_to_string (s : select_spec) =
  let parts = Buffer.create 64 in
  Buffer.add_string parts "SELECT ";
  if s.distinct then Buffer.add_string parts "DISTINCT ";
  Buffer.add_string parts
    (String.concat ", " (List.map item_to_string s.items));
  (match s.from with
  | [] -> ()
  | from ->
      Buffer.add_string parts " FROM ";
      Buffer.add_string parts
        (String.concat ", " (List.map table_ref_to_string from)));
  (match s.where with
  | None -> ()
  | Some w ->
      Buffer.add_string parts " WHERE ";
      Buffer.add_string parts (expr_to_string w));
  (match s.group_by with
  | [] -> ()
  | cols ->
      Buffer.add_string parts " GROUP BY ";
      Buffer.add_string parts
        (String.concat ", "
           (List.map
              (fun (q, n) ->
                match q with None -> n | Some q -> q ^ "." ^ n)
              cols));
      (match s.group_var with
      | None -> ()
      | Some v ->
          Buffer.add_string parts " : ";
          Buffer.add_string parts v));
  (match s.having with
  | None -> ()
  | Some h ->
      Buffer.add_string parts " HAVING ";
      Buffer.add_string parts (expr_to_string h));
  Buffer.contents parts

and query_to_string = function
  | Select s -> select_to_string s
  | Union_all (a, b) ->
      Printf.sprintf "%s UNION ALL %s" (query_to_string a)
        (query_to_string b)
  | Order_by (q, keys) ->
      Printf.sprintf "%s ORDER BY %s" (query_to_string q)
        (String.concat ", "
           (List.map
              (fun (e, d) ->
                expr_to_string e
                ^ match d with Asc -> "" | Desc -> " DESC")
              keys))

let statement_to_string = function
  | Stmt_select q -> query_to_string q
  | Stmt_create_table (name, cols, constraints) ->
      Printf.sprintf "CREATE TABLE %s (%s%s)" name
        (String.concat ", "
           (List.map
              (fun c ->
                c.col_name ^ " " ^ Datatype.to_string c.col_type)
              cols))
        (String.concat ""
           (List.map
              (function
                | Primary_key ks ->
                    ", PRIMARY KEY (" ^ String.concat ", " ks ^ ")"
                | Foreign_key (ks, t, rs) ->
                    Printf.sprintf ", FOREIGN KEY (%s) REFERENCES %s (%s)"
                      (String.concat ", " ks) t (String.concat ", " rs))
              constraints))
  | Stmt_insert (t, rows) ->
      Printf.sprintf "INSERT INTO %s VALUES %s" t
        (String.concat ", "
           (List.map
              (fun row ->
                "(" ^ String.concat ", " (List.map expr_to_string row) ^ ")")
              rows))
  | Stmt_create_index (name, table, cols) ->
      Printf.sprintf "CREATE INDEX %s ON %s (%s)" name table
        (String.concat ", " cols)
  | Stmt_drop_table t -> "DROP TABLE " ^ t
  | Stmt_drop_index t -> "DROP INDEX " ^ t
  | Stmt_explain q -> "EXPLAIN " ^ query_to_string q
  | Stmt_explain_analyze q -> "EXPLAIN ANALYZE " ^ query_to_string q
  | Stmt_prepare (name, q) -> "PREPARE " ^ name ^ " AS " ^ query_to_string q
  | Stmt_execute name -> "EXECUTE " ^ name
  | Stmt_deallocate name -> "DEALLOCATE " ^ name
  | Stmt_begin -> "BEGIN"
  | Stmt_commit -> "COMMIT"
  | Stmt_rollback -> "ROLLBACK"
  | Stmt_set (name, Set_int v) -> Printf.sprintf "SET %s = %d" name v
  | Stmt_set (name, Set_ident v) -> Printf.sprintf "SET %s = %s" name v
  | Stmt_set (name, Set_default) -> Printf.sprintf "SET %s = DEFAULT" name
