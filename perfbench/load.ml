(* End-to-end payment-service benchmark.

   load --workload NAME --seed N --seconds S --trace 0|1 --server EXE

   A single-process closed-loop load generator.  It writes a seeded
   instance, spawns the real `unicast listen` on a Unix socket, drives
   it with a fixed seeded request stream, and checks every pay and ack
   reply against an in-process replay of the same stream.

   --trace 0 prints the end-to-end metrics (tracing off), with timings
   scaled by an in-run machine-speed canary; the raw figures follow.  --trace 1
   runs the same stream untraced, then against a server with
   runtime_events on (GC), then replays it in-process with spans around
   each layer, and prints the per-layer metrics and the ledger: for
   edits and pays, the end-to-end median minus the layer medians is the
   residual (syscalls, scheduling, queueing), and the ops_per_s lost to
   tracing is the overhead.

   The last line of stdout is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   Exit status is nonzero on any error reply, drop, timeout or oracle
   mismatch. *)

module P = Wnet_proto
module W = Workload
module C = Client

(* -- small numerics -------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Nearest-rank percentile of ns samples. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (p *. fi n)) - 1 in
    fi s.(max 0 (min (n - 1) k))
  end

let median_f xs =
  let s = List.sort compare xs in
  let n = List.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then List.nth s (n / 2)
  else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Growable int sample buffer. *)
type vec = { mutable n : int; mutable a : int array }

let vec () = { n = 0; a = Array.make 1024 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let samples v = Array.sub v.a 0 v.n

(* -- one pass against a spawned server ------------------------------- *)

type counters = { bytes_in : int; bytes_out : int }

let counters_of (r : C.reply) =
  List.fold_left
    (fun acc -> function
      | P.Server_stats s -> { bytes_in = s.bytes_in; bytes_out = s.bytes_out }
      | _ -> acc)
    { bytes_in = 0; bytes_out = 0 } r.C.responses

type segment = {
  rate : float;  (** replies per second *)
  seg_canary : int;  (** the canary that closed it, ns *)
  pays_end : int;  (** pay samples taken by its end *)
}

type pass = {
  setup_s : float;
  canary : int array;
  segments : segment array;  (** the timed phase, about 200 ms each *)
  wall_s : float;
  replies : int;
  sent : int;
  edit_lat : int array;
  pay_lat : int array;
  errs : int;
  digests : int array array;
  answered : int array;  (** replies received, per connection *)
  server_cpu_s : float;
  server_threads : float list;  (** CPU s per server thread, busiest first *)
  server_ctx : int;
  server_rss_kb : int;
  client_cpu_s : float;
  before : counters;
  after : counters;
  gc : Gctrace.t option;
}

let timeout = 30.0

(* Machine-speed canary: a fixed loop of float work and minor-heap
   allocation over an L1-sized array -- benchmark code the program
   cannot change, and insensitive to what the cache held before.  It
   runs on as many domains at once as the server keeps busy (its pool
   or its shards), about every 200 ms of the timed phase while the
   server has no request outstanding, and 5 more times right after it;
   a sample is the mean of the loop times.  The canary's wall time and
   client CPU are taken out of the timed phase's.  Each canary closes a
   segment of the timed phase, and the segment's rate and pay latencies
   are scaled by that canary.   The 2-core VM this was
   tuned on drifts up to 2x in speed over tens of seconds, and its two
   cores slow each other down when both are busy; the gated timings are
   scaled by the run's median canary (see [normalise]) so that drift
   cancels, and the raw figures are printed beside them. *)
let canary_data = Array.init 4096 (fun i -> float_of_int ((i * 7919) mod 4099))

let canary_loop () =
  let t0 = Probe.now_ns () in
  let acc = ref 0.0 and cells = ref [] in
  for _ = 1 to 24 do
    cells := [];
    Array.iteri
      (fun i x ->
        acc := !acc +. sqrt (x +. !acc);
        if i land 7 = 0 then cells := !acc :: !cells)
      canary_data
  done;
  ignore (Sys.opaque_identity (!acc, !cells));
  Probe.now_ns () - t0

let canary ~domains samples () =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn canary_loop) in
  let mine = canary_loop () in
  push samples (List.fold_left (fun a d -> a + Domain.join d) mine others / domains)

(* Domains the server keeps busy during a pay: its pool, or its shards. *)
let busy (spec : W.spec) = max spec.W.domains spec.W.shards

type env = {
  exe : string;
  work : string;
  spec : W.spec;
  inst : W.instance;
  graph : string;
}

(* Spawn to the first pay reply on every connection: codec upgrade,
   session attach, and the cold-start fill all count as set-up. *)
let open_server env ~trace =
  let sock = Filename.concat env.work "s.sock" in
  let events_dir =
    if trace then begin
      let d = Filename.concat env.work "events" in
      if not (Sys.file_exists d) then Sys.mkdir d 0o755;
      Some d
    end
    else None
  in
  let t0 = Probe.now_ns () in
  let srv = C.spawn ~exe:env.exe ~graph:env.graph ~sock ~spec:env.spec ~root:env.inst.W.root ~events_dir in
  let deadline = t0 + 60_000_000_000 in
  let conns =
    Array.init env.spec.W.conns (fun i ->
        let c = C.connect ~sock ~server:srv ~deadline in
        C.greet c ~timeout;
        if env.spec.W.proto = 2 then ignore (C.call c (P.Proto { proto = 2 }) ~timeout);
        if i > 0 then ignore (C.call c (P.Attach { session = i }) ~timeout);
        c)
  in
  let first = Array.map (fun c -> C.call c P.Pay ~timeout) conns in
  let setup_s = fi (Probe.now_ns () - t0) /. 1e9 in
  if Array.exists (fun (r : C.reply) -> r.C.err) first then raise (C.Protocol "first pay failed");
  (srv, conns, setup_s)

let close_server srv conns =
  Array.iter C.close conns;
  C.stop srv

let run_pass env windows ~trace =
  let srv, conns, setup_s = open_server env ~trace in
  let gc =
    Option.map (fun dir -> Gctrace.attach ~dir ~pid:srv.C.pid) srv.C.events_dir
  in
  let before = counters_of (C.call conns.(0) P.Stats ~timeout) in
  let edit_lat = vec () and pay_lat = vec () in
  let digests = Array.map (fun ws -> Array.make (Array.fold_left (fun a w -> a + Array.length w) 0 ws) 0) windows in
  let next = Array.make (Array.length conns) 0 in
  let errs = ref 0 and replies = ref 0 in
  let last_poll = ref 0 in
  let on_reply i (r : C.reply) =
    incr replies;
    if r.C.err then incr errs;
    (match r.C.kind with
    | C.Edit -> push edit_lat r.C.latency
    | C.Pay -> push pay_lat r.C.latency
    | C.Stats | C.Ctl -> ());
    digests.(i).(next.(i)) <- (if r.C.kind = C.Stats then -1 else r.C.digest);
    next.(i) <- next.(i) + 1;
    match gc with
    | Some g ->
      (* Drain the ring often enough that it never wraps. *)
      let t = Probe.now_ns () in
      if t - !last_poll > 20_000_000 then begin
        Gctrace.poll g;
        last_poll := t
      end
    | None -> ()
  in
  Option.iter Gctrace.start gc;
  let canaries = vec () and quiet_ns = ref 0 and quiet_cpu = ref 0.0 in
  let segments = ref [] and seg_t = ref 0 and seg_r = ref 0 in
  let quiet () =
    let t0 = Probe.now_ns () and c0 = Probe.self_cpu_s () in
    canary ~domains:(busy env.spec) canaries ();
    let rate = ratio (fi (!replies - !seg_r)) (fi (t0 - !seg_t) /. 1e9) in
    segments := { rate; seg_canary = canaries.a.(canaries.n - 1); pays_end = pay_lat.n } :: !segments;
    let t1 = Probe.now_ns () in
    quiet_ns := !quiet_ns + (t1 - t0);
    quiet_cpu := !quiet_cpu +. (Probe.self_cpu_s () -. c0);
    seg_t := t1;
    seg_r := !replies
  in
  let p0 = Probe.sample srv.C.pid in
  seg_t := p0.Probe.wall_ns;
  (* A timeout or a lost connection ends the pass; the requests left
     unanswered count as drops. *)
  let ok =
    match
      C.run_windows ~quiet ~quiet_every:200_000_000 conns windows ~timeout ~on_reply
    with
    | () -> true
    | exception ((C.Timeout | C.Protocol _ | Unix.Unix_error _) as e) ->
      prerr_endline ("pass aborted: " ^ Printexc.to_string e);
      false
  in
  (* The last canary closes the last segment. *)
  if ok then quiet ();
  let p1 = if ok then Probe.sample srv.C.pid else { p0 with Probe.wall_ns = Probe.now_ns () } in
  for _ = 1 to 4 do canary ~domains:(busy env.spec) canaries () done;
  if ok then Option.iter Gctrace.stop gc;
  let rss = if ok then Probe.peak_rss_kb srv.C.pid else 0 in
  let after = if ok then counters_of (C.call conns.(0) P.Stats ~timeout) else before in
  close_server srv conns;
  {
    setup_s;
    canary = samples canaries;
    segments = Array.of_list (List.rev !segments);
    wall_s = fi (p1.Probe.wall_ns - p0.Probe.wall_ns - !quiet_ns) /. 1e9;
    replies = !replies;
    sent = Array.fold_left (fun a d -> a + Array.length d) 0 digests;
    edit_lat = samples edit_lat;
    pay_lat = samples pay_lat;
    errs = !errs;
    digests;
    answered = next;
    server_cpu_s = p1.Probe.cpu -. p0.Probe.cpu;
    server_threads = Probe.thread_deltas p0 p1;
    server_ctx = p1.Probe.ctx - p0.Probe.ctx;
    server_rss_kb = rss;
    client_cpu_s = p1.Probe.client_cpu -. p0.Probe.client_cpu -. !quiet_cpu;
    before;
    after;
    gc;
  }

(* Oracle check: every pay and ack reply received must equal the
   replay's (unanswered requests are counted as drops instead). *)
let mismatches (p : pass) (r : Replay.result) =
  let bad = ref 0 in
  Array.iteri
    (fun i ds ->
      for j = 0 to p.answered.(i) - 1 do
        if ds.(j) <> r.Replay.digests.(i).(j) then incr bad
      done)
    p.digests;
  !bad

(* -- metrics ---------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Timings as they would read on a machine whose canary takes exactly
   1 ms: durations scale by 1 ms / canary, rates by canary / 1 ms.
   Memory is not scaled. *)
let canary_ref_ns = 1e6

let slowness (p : pass) = percentile p.canary 0.50 /. canary_ref_ns

(* The median segment's rate: a stall of the host costs the segments
   it falls in, not the whole run. *)
let ops_per_s ~scaled (p : pass) =
  median_f
    (Array.to_list
       (Array.map
          (fun s -> if scaled then s.rate *. fi s.seg_canary /. canary_ref_ns else s.rate)
          p.segments))

(* Pay latencies, each scaled by the canary of its segment. *)
let scaled_pay_lat (p : pass) =
  let out = Array.copy p.pay_lat and lo = ref 0 in
  Array.iter
    (fun s ->
      for j = !lo to s.pays_end - 1 do
        out.(j) <- int_of_float (fi out.(j) *. canary_ref_ns /. fi s.seg_canary)
      done;
      lo := s.pays_end)
    p.segments;
  out

(* The gated end-to-end metrics.  Edit latency and the p99 tails move
   with the host's wakeup and scheduling noise by more than any usable
   bound, even after canary scaling, so they are printed with these but
   reported as per-layer figures. *)
let gated_metrics ~scaled (p : pass) ~setup_s =
  let slow = if scaled then slowness p else 1.0 in
  let pays = if scaled then scaled_pay_lat p else p.pay_lat in
  [
    m "setup_s" "s" (setup_s /. slow);
    m "ops_per_s" "1/s" (ops_per_s ~scaled p);
    m "pay_p50_ms" "ms" (percentile pays 0.50 /. 1e6);
    m "server_peak_rss_mb" "MB" (fi p.server_rss_kb /. 1024.0);
  ]

let latency_metrics (p : pass) =
  [
    m "pay_p99_ms" "ms" (percentile p.pay_lat 0.99 /. 1e6);
    m "edit_p50_us" "us" (percentile p.edit_lat 0.50 /. 1e3);
    m "edit_p99_us" "us" (percentile p.edit_lat 0.99 /. 1e3);
  ]

let median_ns xs = percentile xs 0.50

let layer_metrics (spec : W.spec) (p : pass) (t : pass) (r : Replay.result) ~replay_canary =
  let hist = r.Replay.region_hist in
  let st = r.Replay.delta in
  let pays = fi r.Replay.pays and edits = fi r.Replay.edits in
  let total kind layer = Array.fold_left ( + ) 0 (Replay.durations r kind layer) in
  let med kind layer = median_ns (Replay.durations r kind layer) in
  let kops = fi p.replies /. 1000.0 in
  let ops = fi p.replies in
  let hist_pct q =
    let total = List.fold_left (fun a (_, c) -> a + c) 0 hist in
    let target = Float.ceil (q *. fi total) in
    let rec go acc = function
      | [] -> 0.0
      | (k, c) :: rest -> if fi (acc + c) >= target then fi k else go (acc + c) rest
    in
    if total = 0 then 0.0 else go 0 hist
  in
  (* Shard skew: CPU of the busiest shard thread over the mean of the
     [shards] busiest server threads.  The stream fixes how many
     requests each shard gets; how evenly their cost lands does not. *)
  let skew =
    let top = List.filteri (fun i _ -> i < spec.W.shards) p.server_threads in
    ratio (List.fold_left max 0.0 top) (List.fold_left ( +. ) 0.0 top /. fi (List.length top))
  in
  (* The ledger is canary-scaled: the server pass and the replay run
     tens of seconds apart, and the host's speed drifts in between. *)
  let on_server = 1.0 /. slowness p
  and in_replay = canary_ref_ns /. percentile replay_canary 0.50 in
  let edit_e2e = on_server *. median_ns p.edit_lat and pay_e2e = median_ns (scaled_pay_lat p) in
  let med kind layer = in_replay *. med kind layer in
  let ed = med C.Edit Replay.l_decode and ea = med C.Edit Replay.l_apply and ee = med C.Edit Replay.l_encode in
  let pd = med C.Pay Replay.l_decode and pf = med C.Pay Replay.l_flush
  and pp = med C.Pay Replay.l_pay and pe = med C.Pay Replay.l_encode in
  let gc = Option.get t.gc in
  let pauses = Array.of_list gc.Gctrace.pauses in
  latency_metrics p
  @ [
    m "proto.decode_ns_per_req" "ns" (ratio (fi r.Replay.decode_ns) (fi r.Replay.requests));
    m "proto.minor_words_per_req" "words" (ratio r.Replay.decode_words (fi r.Replay.requests));
    m "proto.encode_us_per_pay" "us" (ratio (fi (total C.Pay Replay.l_encode)) pays /. 1e3);
    m "proto.reply_bytes_per_pay" "B" (ratio (fi r.Replay.pay_reply_bytes) pays);
    m "session.apply_ns_per_edit" "ns" (ratio (fi (total C.Edit Replay.l_apply)) edits);
    m "session.coalesced_per_flush" "count" (ratio (fi st.coalesced_edits) (fi st.inval_passes));
    m "session.flush_us_per_pay" "us" (ratio (fi (total C.Pay Replay.l_flush)) pays /. 1e3);
    m "session.payments_ms_per_pay" "ms" (ratio (fi (total C.Pay Replay.l_pay)) pays /. 1e6);
    m "session.spt_runs_per_pay" "count" (ratio (fi st.spt_runs) pays);
    m "session.cache_hit_ratio" "ratio" (ratio (fi st.avoid_reused) (fi (st.avoid_reused + st.avoid_runs)));
    m "session.repaired_per_pay" "count" (ratio (fi st.repaired_entries) pays);
    m "session.fallback_per_pay" "count" (ratio (fi st.fallback_recomputes) pays);
    m "graph.fills_per_pay" "count" (ratio (fi (st.avoid_bounded + st.avoid_fallback)) pays);
    m "graph.bounded_ratio" "ratio" (ratio (fi st.avoid_bounded) (fi (st.avoid_bounded + st.avoid_fallback)));
    m "graph.region_p50" "nodes" (hist_pct 0.50);
    m "graph.region_p99" "nodes" (hist_pct 0.99);
    m "par.tasks_per_pay" "count" (ratio (fi st.tasks_executed) pays);
    m "par.steal_ratio" "ratio" (ratio (fi st.tasks_stolen) (fi st.tasks_executed));
    m "server.cpu_ms_per_kop" "ms" (ratio (p.server_cpu_s *. 1e3) kops);
    m "server.ctx_switches_per_op" "count" (ratio (fi p.server_ctx) ops);
    m "server.bytes_in_per_op" "B" (ratio (fi (p.after.bytes_in - p.before.bytes_in)) ops);
    m "server.bytes_out_per_op" "B" (ratio (fi (p.after.bytes_out - p.before.bytes_out)) ops);
    m "server.shard_skew" "ratio" skew;
    m "server.residual_us_per_edit" "us" ((edit_e2e -. ed -. ea -. ee) /. 1e3);
    m "server.residual_us_per_pay" "us" ((pay_e2e -. pd -. pf -. pp -. pe) /. 1e3);
    m "gc.minor_per_kop" "count" (ratio (fi (Gctrace.minor_collections gc)) (fi t.replies /. 1000.0));
    m "gc.major_slices_per_kop" "count" (ratio (fi gc.Gctrace.major_slices) (fi t.replies /. 1000.0));
    m "gc.minor_pause_p99_us" "us" (percentile pauses 0.99 /. 1e3);
    m "client.cpu_share" "ratio" (ratio p.client_cpu_s p.wall_s);
    m "ledger.edit.e2e_p50_us" "us" (edit_e2e /. 1e3);
    m "ledger.edit.decode_p50_us" "us" (ed /. 1e3);
    m "ledger.edit.apply_p50_us" "us" (ea /. 1e3);
    m "ledger.edit.encode_p50_us" "us" (ee /. 1e3);
    m "ledger.pay.e2e_p50_us" "us" (pay_e2e /. 1e3);
    m "ledger.pay.decode_p50_us" "us" (pd /. 1e3);
    m "ledger.pay.flush_p50_us" "us" (pf /. 1e3);
    m "ledger.pay.pay_p50_us" "us" (pp /. 1e3);
    m "ledger.pay.encode_p50_us" "us" (pe /. 1e3);
    (* Each pass's ops_per_s scaled by its own canaries. *)
    m "trace.ops_overhead" "ratio" (1.0 -. ratio (ops_per_s ~scaled:true t) (ops_per_s ~scaled:true p));
  ]

(* -- output ----------------------------------------------------------- *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json metrics =
  List.map
    (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit_)
    metrics
  |> String.concat ", "
  |> Printf.sprintf "{%s}"

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_json metrics)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* -- main ------------------------------------------------------------- *)

(* Set-ups per untraced run; setup_s is their median. *)
let setups = 9

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let server = ref "_build/default/bin/unicast.exe" and work = ref ".perfbench" in
  let inject = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME link-drift | node-drift | edit-flood");
      ("--seed", Arg.Set_int seed, "N instance and request-stream seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measured seconds (sizes the stream)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--server", Arg.Set_string server, "EXE the unicast binary to spawn");
      ("--work", Arg.Set_string work, "DIR scratch directory for instances, sockets, spans");
      ("--inject", Arg.Set_string inject, "err|digest self-test faults that must raise error_rate");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "load --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match W.find !workload with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let cores = Probe.cores_online () in
  if spec.W.domains > cores || spec.W.shards > cores then begin
    Printf.eprintf "%s needs %d domains / %d shards but only %d cores are online\n" spec.W.name
      spec.W.domains spec.W.shards cores;
    exit 3
  end;
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  at_exit C.kill_all;
  (* Leave no server behind when stopped from outside. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  let inst = W.instance spec ~seed:!seed in
  let graph = Filename.concat !work (spec.W.name ^ ".graph") in
  write_file graph inst.W.text;
  let steps = spec.W.steps_per_s * !seconds in
  let windows = W.stream spec inst ~seed:!seed ~steps in
  if !inject = "err" then
    (* A request the session must refuse: the access point cannot leave. *)
    windows.(0).(0).(0) <- P.Leave { node = inst.W.root };
  let env = { exe = !server; work = !work; spec; inst; graph } in
  let traced = !trace = 1 in
  let main = run_pass env windows ~trace:false in
  let setup_s =
    if traced then main.setup_s
    else
      median_f
        (main.setup_s
        :: List.init (setups - 1) (fun _ ->
               let srv, conns, s = open_server env ~trace:false in
               close_server srv conns;
               s))
  in
  let tpass = if traced then Some (run_pass env windows ~trace:true) else None in
  (* The replay takes its own canary, on as many domains as its pool,
     5 times before and 5 times after it: the ledger compares its layer
     times with the untraced pass's end-to-end times, each scaled by the
     canary of its own phase.  Not during the replay: an idle pool
     domain answering the canary's stop-the-world minor collections
     would slow it down by up to 2x. *)
  let replay_canary = vec () in
  let replay_canaries () =
    if traced then for _ = 1 to 5 do canary ~domains:(Replay.domains spec) replay_canary () done
  in
  replay_canaries ();
  let rp = Replay.run spec inst windows ~encode:traced in
  replay_canaries ();
  if !inject = "digest" then
    main.digests.(0).(1) <- main.digests.(0).(1) lxor 1;
  let passes = main :: Option.to_list tpass in
  let bad = List.fold_left (fun a p -> a + mismatches p rp) 0 passes in
  let errs = List.fold_left (fun a p -> a + p.errs) 0 passes in
  let drops = List.fold_left (fun a p -> a + p.sent - p.replies) 0 passes in
  let attempted = List.fold_left (fun a p -> a + p.sent) 0 passes in
  let failed = min attempted (bad + errs + drops) in
  let error_rate = ratio (fi failed) (fi attempted) in
  let metrics =
    match tpass with
    | None -> gated_metrics ~scaled:true main ~setup_s
    | Some t ->
      Replay.write_spans rp (Filename.concat !work (spec.W.name ^ ".spans.tsv"));
      layer_metrics spec main t rp ~replay_canary:(samples replay_canary)
  in
  Printf.printf
    "# workload=%s seed=%d n=%d links=%d root=%d cores_online=%d shards=%d domains=%d proto=%d \
     conns=%d steps=%d requests=%d pays=%d edits=%d trace=%d\n"
    spec.W.name !seed inst.W.nodes inst.W.links inst.W.root cores spec.W.shards spec.W.domains
    spec.W.proto spec.W.conns steps main.sent (Array.length main.pay_lat)
    (Array.length main.edit_lat) !trace;
  (* The canaries time the benchmark's own loop, not the program. *)
  let canary_us = percentile main.canary 0.50 /. 1e3
  and replay_canary_us = percentile (samples replay_canary) 0.50 /. 1e3 in
  Printf.printf "# canary_us=%.1f%s\n" canary_us
    (if traced then Printf.sprintf " replay_canary_us=%.1f" replay_canary_us else "");
  Option.iter
    (fun (t : pass) ->
      let lost = (Option.get t.gc).Gctrace.lost in
      if lost > 0 then Printf.printf "# %d runtime events lost: the gc.* figures undercount\n" lost)
    tpass;
  let show x = Printf.printf "%-30s %14.4f %s\n" x.name x.value x.unit_ in
  List.iter show metrics;
  let raw = if traced then [] else gated_metrics ~scaled:false main ~setup_s @ latency_metrics main in
  if not traced then begin
    print_endline "# raw, not canary-scaled:";
    List.iter show raw
  end;
  Printf.printf "%-30s %14.6f %s  (err=%d mismatch=%d drop=%d of %d)\n" "error_rate" error_rate
    "ratio" errs bad drops attempted;
  let line = result_json ~correct:(failed = 0) ~attempted ~failed metrics in
  write_file
    (Filename.concat !work (Printf.sprintf "%s.seed%d.trace%d.json" spec.W.name !seed !trace))
    (Printf.sprintf
       "{\"workload\": %S, \"seed\": %d, \"n\": %d, \"links\": %d, \"cores_online\": %d, \
        \"error_rate\": %s, \"canary_us\": %s, \"replay_canary_us\": %s, \"raw\": %s, \"result\": %s}\n"
       spec.W.name !seed inst.W.nodes inst.W.links cores (json_float error_rate) (json_float canary_us)
       (json_float replay_canary_us) (metrics_json raw) line);
  print_endline line;
  exit (if failed = 0 then 0 else 1)
