(* Result output: one human-readable line per metric, then the result
   object as the last line of standard output. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let host_start = lazy (Proc.host_ticks ())

let machine_line () =
  ignore (Lazy.force host_start);
  Printf.printf "machine: nproc=%d ocaml=%s os=%s\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type

(* Share of host CPU time stolen by the hypervisor since [machine_line]:
   a noisy neighbour shows here, not in the program's own numbers. *)
let steal_line () =
  let s0, t0 = Lazy.force host_start in
  let s1, t1 = Proc.host_ticks () in
  Printf.printf "machine: host steal %.2f%% of CPU time during this run\n"
    (100. *. float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0)))

let print_metric { name; value; unit_ } =
  Printf.printf "%-44s %16.6f %s\n" name value unit_

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric value"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  steal_line ();
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number value) (json_string unit_))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
