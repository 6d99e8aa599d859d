(* Table statistics for the cost model of paper §4.4.

   Per column we keep: an NDV (number of distinct values — exact below
   [ndv_exact_threshold], a linear-counting sketch estimate above it),
   the null count, numeric min/max, and an equi-depth histogram over the
   non-null values.  The paper's costing needs (a) the number of groups
   = distinct values of the grouping columns, (b) average group size =
   outer cardinality / group count, and (c) selectivity estimation for
   predicates; the histogram makes (c) skew-aware instead of assuming
   uniformity over [min, max].

   A [table_stats] is stamped with the [Table.version] it was computed
   from ([built_version]); the catalog treats a stamp that no longer
   matches the live table as stale and recomputes lazily — the same
   double-checked version protocol indexes use (see Index.refresh). *)

(* Above this many distinct values the exact hash table stops growing
   and the NDV falls back to the linear-counting sketch. *)
let ndv_exact_threshold = 4096

(* Linear-counting bitmap size in bits (power of two).  The estimator
   n = -m ln(empty/m) is accurate while n is below ~m, far beyond this
   engine's micro-scale tables. *)
let sketch_bits = 1 lsl 16

(* Target number of equi-depth histogram buckets. *)
let histogram_buckets = 16

type bucket = {
  b_lo : Value.t;     (** smallest value in the bucket (inclusive) *)
  b_hi : Value.t;     (** largest value in the bucket (inclusive) *)
  b_rows : int;       (** rows falling in the bucket *)
  b_distinct : int;   (** distinct values in the bucket *)
}

type column_stats = {
  distinct_count : int;  (** NDV: exact when [ndv_exact], else estimated *)
  ndv_exact : bool;
  null_count : int;
  min_value : Value.t;  (** [Value.Null] when the column is all-null/empty *)
  max_value : Value.t;
  histogram : bucket array;
      (** equi-depth over non-null values, [||] for an empty column *)
}

type table_stats = {
  row_count : int;
  built_version : int;  (** [Table.version] covered; 0 for ad-hoc input *)
  columns : (string * column_stats) list;  (* by column name *)
}

let empty_column_stats =
  {
    distinct_count = 0;
    ndv_exact = true;
    null_count = 0;
    min_value = Value.Null;
    max_value = Value.Null;
    histogram = [||];
  }

(* ---------- NDV: exact hash table with a sketch fallback ---------- *)

type ndv_acc = {
  exact : (Value.t, unit) Hashtbl.t;  (* capped at ndv_exact_threshold *)
  sketch : Bytes.t;                   (* linear-counting bitmap *)
  mutable overflowed : bool;
}

let ndv_create () =
  {
    exact = Hashtbl.create 64;
    sketch = Bytes.make (sketch_bits / 8) '\000';
    overflowed = false;
  }

let ndv_add acc v =
  let h = Hashtbl.hash v land (sketch_bits - 1) in
  let byte = h lsr 3 and bit = h land 7 in
  Bytes.set acc.sketch byte
    (Char.chr (Char.code (Bytes.get acc.sketch byte) lor (1 lsl bit)));
  if not acc.overflowed then begin
    Hashtbl.replace acc.exact v ();
    if Hashtbl.length acc.exact > ndv_exact_threshold then
      acc.overflowed <- true
  end

(* Linear counting: n = -m ln(V) with V the fraction of still-empty
   bitmap positions.  With a full bitmap fall back to the exact floor
   (the estimate diverges; never reached at this engine's scale). *)
let ndv_estimate acc =
  if not acc.overflowed then (Hashtbl.length acc.exact, true)
  else
    let zero = ref 0 in
    Bytes.iter
      (fun c ->
        let c = Char.code c in
        for bit = 0 to 7 do
          if c land (1 lsl bit) = 0 then incr zero
        done)
      acc.sketch;
    let m = float_of_int sketch_bits in
    let est =
      if !zero = 0 then Hashtbl.length acc.exact
      else
        int_of_float
          (Float.round (-.m *. Float.log (float_of_int !zero /. m)))
    in
    (max est (Hashtbl.length acc.exact), false)

(* ---------- equi-depth histogram ---------- *)

(* Build over the (sorted-in-place) non-null values: bucket depth
   ceil(n / histogram_buckets); a run of one value is never split across
   buckets (a bucket closes only on a value change once full), keeping
   equality estimates sharp on heavy hitters.  Invariants (checked by
   test_stats.ml): bucket rows sum to n, bounds are monotone, each
   bucket has b_lo <= b_hi. *)
let build_histogram (values : Value.t array) : bucket array =
  let n = Array.length values in
  if n = 0 then [||]
  else begin
    Array.sort Value.compare_total values;
    let depth = max 1 ((n + histogram_buckets - 1) / histogram_buckets) in
    let out = ref [] in
    let start = ref 0 in
    let distinct = ref 1 in
    let flush stop =
      (* bucket covers values.(start .. stop) inclusive *)
      out :=
        {
          b_lo = values.(!start);
          b_hi = values.(stop);
          b_rows = stop - !start + 1;
          b_distinct = !distinct;
        }
        :: !out;
      start := stop + 1;
      distinct := 1
    in
    for i = 1 to n - 1 do
      let changed = Value.compare_total values.(i) values.(i - 1) <> 0 in
      if changed && i - !start >= depth then flush (i - 1)
      else if changed then incr distinct
    done;
    flush (n - 1);
    Array.of_list (List.rev !out)
  end

let compute ?(version = 0) (schema : Schema.t) (rel : Relation.t) :
    table_stats =
  let arity = Schema.arity schema in
  let row_count = Relation.cardinality rel in
  let ndvs = Array.init arity (fun _ -> ndv_create ()) in
  let nulls = Array.make arity 0 in
  let mins = Array.make arity Value.Null in
  let maxs = Array.make arity Value.Null in
  let vals = Array.init arity (fun _ -> Array.make row_count Value.Null) in
  let nvals = Array.make arity 0 in
  Relation.iter
    (fun row ->
      for i = 0 to arity - 1 do
        let v = Tuple.get row i in
        if Value.is_null v then nulls.(i) <- nulls.(i) + 1
        else begin
          ndv_add ndvs.(i) v;
          vals.(i).(nvals.(i)) <- v;
          nvals.(i) <- nvals.(i) + 1;
          if Value.is_null mins.(i) || Value.compare_total v mins.(i) < 0
          then mins.(i) <- v;
          if Value.is_null maxs.(i) || Value.compare_total v maxs.(i) > 0
          then maxs.(i) <- v
        end
      done)
    rel;
  let columns =
    List.mapi
      (fun i (c : Schema.column) ->
        let distinct_count, ndv_exact = ndv_estimate ndvs.(i) in
        ( c.Schema.cname,
          {
            distinct_count;
            ndv_exact;
            null_count = nulls.(i);
            min_value = mins.(i);
            max_value = maxs.(i);
            histogram =
              build_histogram (Array.sub vals.(i) 0 nvals.(i));
          } ))
      (Schema.to_list schema)
  in
  { row_count; built_version = version; columns }

let column_stats stats name : column_stats option =
  List.assoc_opt name stats.columns

let distinct_count stats name =
  match column_stats stats name with
  | Some c -> max 1 c.distinct_count
  | None -> 1

(** Fraction of rows with value equal to a constant, under uniformity:
    1 / distinct-count. *)
let eq_selectivity stats name =
  match column_stats stats name with
  | Some c when c.distinct_count > 0 -> 1. /. float_of_int c.distinct_count
  | Some _ | None -> 1.

(* The histogram bucket containing [v] under the total order, if any. *)
let find_bucket (c : column_stats) (v : Value.t) =
  let n = Array.length c.histogram in
  let rec go i =
    if i >= n then None
    else
      let b = c.histogram.(i) in
      if
        Value.compare_total v b.b_lo >= 0
        && Value.compare_total v b.b_hi <= 0
      then Some b
      else go (i + 1)
  in
  go 0

(** Histogram-aware equality selectivity for a known constant: the
    containing bucket's average frequency (rows / distinct) over the
    table; 0 outside [min, max] is clamped to one row's worth.  Falls
    back to 1/NDV without a histogram. *)
let eq_selectivity_at stats name (v : Value.t) =
  match column_stats stats name with
  | None -> 1.
  | Some c -> (
      let rows = float_of_int (max 1 stats.row_count) in
      match find_bucket c v with
      | Some b ->
          float_of_int b.b_rows
          /. float_of_int (max 1 b.b_distinct)
          /. rows
      | None ->
          if Array.length c.histogram = 0 then eq_selectivity stats name
          else 1. /. rows)

(* Fraction of one bucket's rows lying strictly below [bound],
   interpolated linearly when numeric; half a bucket otherwise. *)
let bucket_fraction_below (b : bucket) (bound : Value.t) =
  match
    (Value.as_float b.b_lo, Value.as_float b.b_hi, Value.as_float bound)
  with
  | Some lo, Some hi, Some x when hi > lo ->
      Float.max 0. (Float.min 1. ((x -. lo) /. (hi -. lo)))
  | _ -> 0.5

(** Fraction of rows passing [column < bound] ([lower]) or
    [column > bound]: full buckets below the bound count whole, the
    bucket containing it is interpolated — so skew (many rows packed
    into a narrow value range) shifts the estimate, unlike plain
    min/max interpolation.  Min/max interpolation remains the fallback
    when no histogram exists; 1/3 with no statistics at all. *)
let range_selectivity stats name ~(lower : bool) (bound : Value.t) =
  let fallback = 1. /. 3. in
  match column_stats stats name with
  | None -> fallback
  | Some c ->
      if Array.length c.histogram > 0 then begin
        let total =
          float_of_int
            (Array.fold_left (fun acc b -> acc + b.b_rows) 0 c.histogram)
        in
        let below = ref 0. in
        Array.iter
          (fun b ->
            if Value.compare_total b.b_hi bound < 0 then
              below := !below +. float_of_int b.b_rows
            else if Value.compare_total b.b_lo bound < 0 then
              below :=
                !below
                +. (float_of_int b.b_rows *. bucket_fraction_below b bound))
          c.histogram;
        let frac = if total > 0. then !below /. total else fallback in
        let frac = Float.max 0. (Float.min 1. frac) in
        if lower then frac else 1. -. frac
      end
      else
        (* no histogram: interpolate from min/max when numeric *)
        match
          (Value.as_float c.min_value, Value.as_float c.max_value,
           Value.as_float bound)
        with
        | Some lo, Some hi, Some b when hi > lo ->
            let frac = (b -. lo) /. (hi -. lo) in
            let frac = Float.max 0. (Float.min 1. frac) in
            if lower then frac else 1. -. frac
        | _ -> fallback

let pp_bucket ppf b =
  Format.fprintf ppf "[%a..%a]:%d/%d" Value.pp b.b_lo Value.pp b.b_hi
    b.b_rows b.b_distinct

let pp ppf stats =
  Format.fprintf ppf "rows=%d version=%d@\n" stats.row_count
    stats.built_version;
  List.iter
    (fun (name, c) ->
      Format.fprintf ppf "  %s: ndv=%d%s nulls=%d min=%a max=%a@\n" name
        c.distinct_count
        (if c.ndv_exact then "" else "~")
        c.null_count Value.pp c.min_value Value.pp c.max_value;
      if Array.length c.histogram > 0 then begin
        Format.fprintf ppf "    hist:";
        Array.iter
          (fun b -> Format.fprintf ppf " %a" pp_bucket b)
          c.histogram;
        Format.fprintf ppf "@\n"
      end)
    stats.columns
