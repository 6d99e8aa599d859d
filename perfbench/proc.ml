(* Process-level plumbing: the benchmark's work directory inside the
   checkout, the gapply_server child process, and /proc readings.

   Every server this module spawns is registered until it has been
   reaped; [cleanup] (also installed with [at_exit]) SIGKILLs and reaps
   whatever is left and removes the work directory, so no process or
   file outlives a run even when a check fails. *)

let ms_of_ns ns = float_of_int ns /. 1e6

(* ---------- work directory ---------- *)

let work_root = ".perfbench_tmp"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let run_dir =
  lazy
    (let d =
       Filename.concat
         (Filename.concat (Sys.getcwd ()) work_root)
         (Printf.sprintf "run-%d" (Unix.getpid ()))
     in
     rm_rf d;
     mkdir_p d;
     d)

let dir_seq = ref 0

(* A fresh, empty directory under this run's work directory. *)
let fresh_dir tag =
  incr dir_seq;
  let d =
    Filename.concat (Lazy.force run_dir) (Printf.sprintf "%s-%d" tag !dir_seq)
  in
  mkdir_p d;
  d

(* ---------- the server child ---------- *)

type server = {
  pid : int;
  port : int;
  out : in_channel;  (** the rest of the server's stdout *)
  spawned_ns : int;
}

let live : (int, unit) Hashtbl.t = Hashtbl.create 4

exception Server_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Server_failed s)) fmt

(* Spawn [exe args] with stdout on a pipe and wait for its
   "listening on PORT" announcement (the port is ephemeral). *)
let spawn ~exe args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawned_ns = Metrics.now_ns () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "--listen" :: "127.0.0.1:0" :: args))
      Unix.stdin wr Unix.stderr
  in
  Hashtbl.replace live pid ();
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let rec await () =
    match input_line out with
    | line -> (
        match Scanf.sscanf_opt line "listening on %d" (fun p -> p) with
        | Some port -> port
        | None -> await ())
    | exception End_of_file -> fail "server exited before listening"
  in
  let port = await () in
  { pid; port; out; spawned_ns }

let rec waitpid_deadline pid deadline_ns =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Metrics.now_ns () > deadline_ns then None
      else begin
        Unix.sleepf 0.005;
        waitpid_deadline pid deadline_ns
      end
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      waitpid_deadline pid deadline_ns

let reap s =
  Hashtbl.remove live s.pid;
  close_in_noerr s.out

(* SIGKILL: no drain, no final fsync — a crash. *)
let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  reap s

(* Graceful drain: SIGTERM, then the server must exit 0 within 20 s.
   Returns the lines it printed after "listening on". *)
let stop s =
  Unix.kill s.pid Sys.sigterm;
  let status = waitpid_deadline s.pid (Metrics.now_ns () + 20_000_000_000) in
  let rest = In_channel.input_all s.out in
  match status with
  | Some (Unix.WEXITED 0) ->
      reap s;
      String.split_on_char '\n' rest
  | Some _ ->
      reap s;
      fail "server did not exit 0 after SIGTERM: %s" rest
  | None ->
      kill s;
      fail "server did not exit within 20 s of SIGTERM"

let cleanup () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    live;
  Hashtbl.reset live;
  if Lazy.is_val run_dir then begin
    rm_rf (Lazy.force run_dir);
    try Unix.rmdir work_root with Unix.Unix_error _ -> ()
  end

let () = at_exit cleanup

(* ---------- /proc ---------- *)

(* utime + stime of a process in ms.  The fields count USER_HZ ticks,
   which Linux fixes at 100 per second for user space. *)
let cpu_ms pid =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  in
  (* the command name may hold spaces: split after its closing paren *)
  let close = String.rindex line ')' in
  let fields =
    String.split_on_char ' '
      (String.sub line (close + 2) (String.length line - close - 2))
  in
  (* fields now start at field 3 (state); utime/stime are fields 14/15 *)
  let tick i = float_of_string (List.nth fields (i - 3)) in
  (tick 14 +. tick 15) *. 10.

(* VmHWM (peak resident set) in MB. *)
let peak_rss_mb pid =
  let lines =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_lines
  in
  match
    List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id) lines
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> fail "no VmHWM in /proc/%d/status" pid


(* Host CPU counters from the first line of /proc/stat: (steal, total)
   in USER_HZ ticks.  Steal is time the hypervisor ran something else
   while this machine wanted the CPU. *)
let host_ticks () =
  let line = In_channel.with_open_text "/proc/stat" input_line in
  let fields =
    List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line))
  in
  (List.nth fields 7, List.fold_left ( + ) 0 fields)
