(* Order statistics over samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(Int.max 0 (Int.min (n - 1) (r - 1)))

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum a = Array.fold_left ( +. ) 0. a
let mean a = if Array.length a = 0 then 0. else sum a /. float_of_int (Array.length a)

(* Growable float sample buffer. *)
type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 1024 0.; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

(* Completed ops per second, robust to short disturbances: the sorted
   completion times (seconds since the window opened) are cut into
   [chunks] runs of equal op count, each run's rate is its op count over
   the time it took, and the median rate is reported. *)
let chunked_rate ?(chunks = 10) done_s =
  let t = sorted done_s in
  let n = Array.length t in
  if n = 0 then 0. else
  let k = min chunks n in
  let prev = ref 0. and lo = ref 0 in
  let rates =
    Array.init k (fun j ->
        let hi = (j + 1) * n / k in
        let last = t.(hi - 1) in
        let r = float_of_int (hi - !lo) /. (last -. !prev) in
        prev := last;
        lo := hi;
        r)
  in
  median rates
