(* Clock and process probes.

   Every timing in the benchmark reads the monotonic ns clock; process
   counters come from /proc, read before and after the timed phase so
   only that phase is charged. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let cores_online () =
  (* "0-1,4" style list of online CPU ids. *)
  let count_ranges s =
    String.split_on_char ',' (String.trim s)
    |> List.fold_left
         (fun acc r ->
           match String.split_on_char '-' r with
           | [ a ] when a <> "" -> ignore (int_of_string a); acc + 1
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | _ -> acc)
         0
  in
  match In_channel.with_open_text "/sys/devices/system/cpu/online" In_channel.input_all with
  | s -> ( try max 1 (count_ranges s) with _ -> Domain.recommended_domain_count ())
  | exception Sys_error _ -> Domain.recommended_domain_count ()

let read_file path = In_channel.with_open_text path In_channel.input_all

(* utime + stime of the whole process (every thread), in seconds.
   /proc reports them in USER_HZ ticks, which Linux fixes at 100. *)
let clk_tck = 100.0

let stat_cpu_s s =
  (* The command name may hold spaces: fields start after the last ')'. *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest.(0) is field 3 (state); utime and stime are fields 14 and 15. *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let cpu_s pid = stat_cpu_s (read_file (Printf.sprintf "/proc/%d/stat" pid))

(* utime + stime of each thread of a process, by thread id. *)
let thread_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun tid ->
         match read_file (Printf.sprintf "%s/%s/stat" dir tid) with
         | text -> Some (tid, stat_cpu_s text)
         | exception Sys_error _ -> None)

let status_field text key =
  let prefix = key ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        let v = String.sub line (String.length prefix) (String.length line - String.length prefix) in
        Scanf.sscanf (String.trim v) "%d" Option.some
      else None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0

(* Peak resident set (VmHWM), in kB. *)
let peak_rss_kb pid = status_field (read_file (Printf.sprintf "/proc/%d/status" pid)) "VmHWM"

(* Voluntary + involuntary context switches summed over every thread
   (the process-level status line only counts the main thread). *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/status" dir tid) with
      | text ->
        acc + status_field text "voluntary_ctxt_switches"
        + status_field text "nonvoluntary_ctxt_switches"
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type sample = {
  wall_ns : int;
  cpu : float;
  threads : (string * float) list;
  ctx : int;
  client_cpu : float;
}

let sample pid =
  {
    wall_ns = now_ns ();
    cpu = cpu_s pid;
    threads = thread_cpu_s pid;
    ctx = ctx_switches pid;
    client_cpu = self_cpu_s ();
  }

(* CPU seconds each thread spent between two samples, busiest first. *)
let thread_deltas a b =
  List.map (fun (tid, c) -> c -. Option.value (List.assoc_opt tid a.threads) ~default:0.0) b.threads
  |> List.sort (fun x y -> compare y x)
