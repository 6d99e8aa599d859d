(* Aggregate accumulators.

   SQL semantics: NULL inputs are skipped (for every aggregate except
   count-star); SUM/AVG/MIN/MAX over zero non-null inputs yield NULL;
   COUNT yields 0.  DISTINCT aggregates deduplicate their inputs under
   the total value order before accumulating. *)


type t = {
  spec : Expr.agg;
  mutable count : int;          (* non-null inputs seen; all rows for count-star *)
  mutable sum : float;
  mutable sum_is_int : bool;    (* all inputs were Int -> SUM stays Int *)
  mutable best : Value.t;       (* running MIN or MAX; Null when none *)
  seen : (Value.t, unit) Hashtbl.t option;  (* distinct filter *)
}

let create (spec : Expr.agg) =
  {
    spec;
    count = 0;
    sum = 0.;
    sum_is_int = true;
    best = Value.Null;
    seen = (if spec.distinct then Some (Hashtbl.create 16) else None);
  }

(** Feed one row's evaluated argument ([Value.Null] argument for
    count-star, which counts every row). *)
let add st (v : Value.t) =
  match st.spec.fn with
  | Expr.Count_star -> st.count <- st.count + 1
  | Expr.Count | Expr.Sum | Expr.Avg | Expr.Min | Expr.Max ->
      if not (Value.is_null v) then begin
        let fresh =
          match st.seen with
          | None -> true
          | Some tbl ->
              if Hashtbl.mem tbl v then false
              else begin
                Hashtbl.add tbl v ();
                true
              end
        in
        if fresh then begin
          st.count <- st.count + 1;
          match st.spec.fn with
          | Expr.Count -> ()
          | Expr.Sum | Expr.Avg ->
              (match v with
              | Value.Int i -> st.sum <- st.sum +. float_of_int i
              | Value.Float f ->
                  st.sum_is_int <- false;
                  st.sum <- st.sum +. f
              | _ ->
                  Errors.type_errorf "%s: non-numeric input %s"
                    (Expr.agg_to_string st.spec) (Value.to_string v))
          | Expr.Min ->
              if Value.is_null st.best
                 || Value.compare_total v st.best < 0
              then st.best <- v
          | Expr.Max ->
              if Value.is_null st.best
                 || Value.compare_total v st.best > 0
              then st.best <- v
          | Expr.Count_star -> assert false
        end
      end

let finish st : Value.t =
  match st.spec.fn with
  | Expr.Count_star | Expr.Count -> Value.Int st.count
  | Expr.Sum ->
      if st.count = 0 then Value.Null
      else if st.sum_is_int then Value.Int (int_of_float st.sum)
      else Value.Float st.sum
  | Expr.Avg ->
      if st.count = 0 then Value.Null
      else Value.Float (st.sum /. float_of_int st.count)
  | Expr.Min | Expr.Max -> st.best

(** Declared result type of an aggregate given its argument type. *)
let result_type (spec : Expr.agg) (arg_ty : Datatype.t option) =
  match spec.fn with
  | Expr.Count_star | Expr.Count -> Datatype.Int
  | Expr.Avg -> Datatype.Float
  | Expr.Sum | Expr.Min | Expr.Max -> (
      match arg_ty with Some t -> t | None -> Datatype.Float)
