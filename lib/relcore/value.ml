(* Runtime values.

   Two comparison regimes coexist, as in SQL engines:
   - [sql_compare] implements expression-level comparison with NULL
     propagation (result is [None] when either side is NULL) and numeric
     int/float coercion;
   - [compare_total] is the total order used internally by sort, group-by
     and distinct, where NULL sorts first and compares equal to itself. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

let type_of = function
  | Null -> None
  | Int _ -> Some Datatype.Int
  | Float _ -> Some Datatype.Float
  | Str _ -> Some Datatype.Str
  | Bool _ -> Some Datatype.Bool

let is_null = function
  | Null -> true
  | Int _ | Float _ | Str _ | Bool _ -> false

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f ->
      (* [string_of_float] is [%.12g] with a "." after a bare integer;
         complete that to ".0" so floats round-trip through the parser. *)
      let s = string_of_float f in
      if s.[String.length s - 1] = '.' then s ^ "0" else s
  | Str s -> s
  | Bool b -> if b then "TRUE" else "FALSE"

(** Like [to_string] but quotes strings, for SQL literal rendering. *)
let to_literal = function
  | Str s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''"
          else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf
  | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* ---------- numeric views ---------- *)

let as_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Str _ | Bool _ -> None

let numeric_exn ctx = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> Errors.type_errorf "%s: expected numeric value, got %s" ctx
           (to_string v)

(* ---------- total order (sorting / grouping / distinct) ---------- *)

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare_total a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> compare x y
  | Float x, Float y -> compare x y
  | Int x, Float y -> compare (float_of_int x) y
  | Float x, Int y -> compare x (float_of_int y)
  | Str x, Str y -> compare x y
  | Bool x, Bool y -> compare x y
  | _ -> compare (rank a) (rank b)

let equal_total a b = compare_total a b = 0

(** Hash compatible with [equal_total]: ints and equal-valued floats hash
    alike so hash partitioning groups them together. *)
let hash = function
  | Null -> 17
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Bool b -> if b then 3 else 5

(* ---------- SQL (null-propagating) comparison ---------- *)

let sql_compare a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | Int x, Int y -> Some (compare x y)
  | Float x, Float y -> Some (compare x y)
  | Int x, Float y -> Some (compare (float_of_int x) y)
  | Float x, Int y -> Some (compare x (float_of_int y))
  | Str x, Str y -> Some (compare x y)
  | Bool x, Bool y -> Some (compare x y)
  | _ ->
      Errors.type_errorf "cannot compare %s with %s" (to_string a)
        (to_string b)

let cmp_truth op a b =
  match sql_compare a b with
  | None -> Truth.Unknown
  | Some c -> Truth.of_bool (op c 0)

let eq = cmp_truth ( = )
let neq = cmp_truth ( <> )
let lt = cmp_truth ( < )
let lte = cmp_truth ( <= )
let gt = cmp_truth ( > )
let gte = cmp_truth ( >= )

(* ---------- arithmetic ---------- *)

let arith name int_op float_op a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) ->
      Float (float_op (numeric_exn name a) (numeric_exn name b))
  | _ ->
      Errors.type_errorf "%s: non-numeric operands %s, %s" name (to_string a)
        (to_string b)

let add = arith "+" ( + ) ( +. )
let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

(* SQL raises on division by zero; we map it to NULL so generated
   parameter sweeps never abort a whole benchmark run.  This is the only
   deliberate deviation from strict SQL semantics. *)
let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int _, Int 0 -> Null
  | Int x, Int y -> Int (x / y)
  | (Int _ | Float _), (Int _ | Float _) ->
      let d = numeric_exn "/" b in
      if d = 0. then Null else Float (numeric_exn "/" a /. d)
  | _ ->
      Errors.type_errorf "/: non-numeric operands %s, %s" (to_string a)
        (to_string b)

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> Errors.type_errorf "-: non-numeric operand %s" (to_string v)

let concat a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | x, y -> Str (to_string x ^ to_string y)

(** Hash table keyed on single values under the total order — the
    batched hash join's single-key fast path. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal_total
  let hash = hash
end)
