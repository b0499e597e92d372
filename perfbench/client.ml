(* The load generator's side of the wire: the spawned server process,
   closed-loop connections in either codec, and reply digests.

   Latency runs from the write that carries a request to the read that
   delivers the last line (or frame) of its reply.  Replies are only
   parsed after that timestamp is taken: a pay reply's per-source lines
   are buffered raw until its closing [ok served=] line arrives. *)

module P = Wnet_proto
module B = Wnet_proto_bin

type kind = Edit | Pay | Stats | Ctl

let kind_of = function
  | P.Cost_node _ | P.Cost_link _ | P.Join _ | P.Rejoin _ | P.Leave _ -> Edit
  | P.Pay -> Pay
  | P.Stats -> Stats
  | P.Proto _ | P.Attach _ | P.Quit -> Ctl

(* -- reply digests -------------------------------------------------- *)

(* FNV-style mixing on 63-bit ints; a float enters as its two 32-bit
   halves so every bit of the charge counts. *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_float h f =
  let b = Int64.bits_of_float f in
  mix (mix h (Int64.to_int (Int64.logand b 0xffffffffL))) (Int64.to_int (Int64.shift_right_logical b 32))

let digest_response h = function
  | P.Served { src; path; charge } ->
    mix_float (List.fold_left mix (mix (mix h 1) src) path) charge
  | P.Paid { served; unbounded; total } ->
    mix_float (mix (mix (mix h 2) served) unbounded) total
  | P.Ack { version; node } ->
    mix (mix (mix h 3) version) (Option.value node ~default:(-1))
  | P.Err m -> mix (mix h 4) (Hashtbl.hash m)
  | _ -> h

let digest0 = 0x4bf29ce484222325
let digest rs = List.fold_left digest_response digest0 rs

let is_err = List.exists (function P.Err _ -> true | _ -> false)

(* -- the server process ---------------------------------------------- *)

type server = { pid : int; events_dir : string option }

let live : int list ref = ref []

let model_name = function Workload.Link -> "link" | Workload.Node -> "node"

let spawn ~exe ~graph ~sock ~(spec : Workload.spec) ~root ~events_dir =
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not
             (String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS" kv
             || String.starts_with ~prefix:"WNET_DOMAINS" kv))
  in
  let env =
    match events_dir with
    | None -> env
    | Some d ->
      "OCAML_RUNTIME_EVENTS_START=1" :: ("OCAML_RUNTIME_EVENTS_DIR=" ^ d) :: env
  in
  let args =
    [|
      exe; "listen"; graph; "--socket"; sock; "--model"; model_name spec.model;
      "--root"; string_of_int root; "--domains"; string_of_int spec.domains;
      "--shards"; string_of_int spec.shards; "--sessions"; string_of_int spec.sessions;
    |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process_env exe args (Array.of_list env) null null Unix.stderr in
  Unix.close null;
  live := pid :: !live;
  { pid; events_dir }

(* Graceful stop (the server drains and says bye), escalating to
   SIGKILL if it has not exited within 10 s. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let give_up = Probe.now_ns () + 10_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Probe.now_ns () < give_up ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (try wait () with Unix.Unix_error (Unix.ECHILD, _, _) -> ());
  live := List.filter (( <> ) s.pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let exited s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> false
  | _ -> live := List.filter (( <> ) s.pid) !live; true

(* -- connections ----------------------------------------------------- *)

type reply = {
  kind : kind;
  latency : int;  (** ns *)
  responses : P.response list;  (** empty for [Pay]: see [digest] *)
  digest : int;
  err : bool;
}

type pending = { pkind : kind; sent : int }

type conn = {
  fd : Unix.file_descr;
  mutable proto : int;
  chunk : Bytes.t;
  line : Buffer.t;  (** partial text line *)
  mutable raw : string list;  (** text pay lines awaiting their [ok served=] *)
  mutable got : P.response list;  (** reply so far, newest first *)
  mutable h : int;  (** digest of the pay reply so far *)
  dec : B.dec;
  view : B.view;
  enc : B.enc;
  out : Buffer.t;
  queue : pending Queue.t;
}

exception Protocol of string

let connect ~sock ~server ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      if exited server then raise (Protocol "server exited before listening");
      if Probe.now_ns () > deadline then raise (Protocol "server never listened");
      Unix.sleepf 0.0005;
      go ()
  in
  let fd = go () in
  {
    fd;
    proto = 1;
    chunk = Bytes.create 65536;
    line = Buffer.create 256;
    raw = [];
    got = [];
    h = digest0;
    dec = B.dec_create ~cap:65536 ();
    view = B.make_view ();
    enc = B.enc_create ~cap:4096 ();
    out = Buffer.create 4096;
    queue = Queue.create ();
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

(* One write carries the whole window; every request in it is timed
   from just before that write. *)
let send c reqs =
  let buf, off, len =
    if c.proto = 2 then begin
      Array.iter (fun r -> B.encode_request c.enc r) reqs;
      let off = B.enc_offset c.enc and len = B.enc_pending c.enc in
      B.enc_consume c.enc len;
      (B.enc_buffer c.enc, off, len)
    end
    else begin
      Buffer.clear c.out;
      Array.iter
        (fun r ->
          Buffer.add_string c.out (P.print_request r);
          Buffer.add_char c.out '\n')
        reqs;
      (Buffer.to_bytes c.out, 0, Buffer.length c.out)
    end
  in
  let sent = Probe.now_ns () in
  write_all c.fd buf off len;
  Array.iter (fun r -> Queue.push { pkind = kind_of r; sent } c.queue) reqs

let finish c t_read on_reply =
  let p = Queue.pop c.queue in
  let responses = List.rev c.got in
  let err = is_err c.got in
  let digest, responses =
    if p.pkind = Pay then (List.fold_left digest_response c.h responses, [])
    else (digest responses, responses)
  in
  c.got <- [];
  c.h <- digest0;
  on_reply { kind = p.pkind; latency = t_read - p.sent; responses; digest; err }

(* A decoded response joins the reply at the head of the queue; the
   reply is complete on its kind's closing message. *)
let on_response c t_read on_reply r =
  if Queue.is_empty c.queue then raise (Protocol "reply with no request outstanding");
  let kind = (Queue.peek c.queue).pkind in
  match (kind, r) with
  | _, P.Err _ ->
    c.got <- r :: c.got;
    finish c t_read on_reply
  | Pay, P.Served _ -> c.h <- digest_response c.h r
  | Pay, P.Paid _ ->
    c.got <- [ r ];
    finish c t_read on_reply
  | Stats, P.Conn_stats _ ->
    c.got <- r :: c.got;
    finish c t_read on_reply
  | Stats, _ -> c.got <- r :: c.got
  | (Edit | Ctl), _ ->
    c.got <- [ r ];
    (match r with P.Ready { proto = 2; _ } -> c.proto <- 2 | _ -> ());
    finish c t_read on_reply
  | Pay, _ -> raise (Protocol "unexpected message in a pay reply")

let parse_line l =
  match P.parse_response l with
  | Ok r -> r
  | Error m -> raise (Protocol (Printf.sprintf "unparsable reply %S: %s" l m))

let on_line c t_read on_reply l =
  let kind = if Queue.is_empty c.queue then Ctl else (Queue.peek c.queue).pkind in
  if kind = Pay && String.starts_with ~prefix:"src " l then c.raw <- l :: c.raw
  else begin
    if kind = Pay && c.raw <> [] then begin
      (* The closing line is here: the timestamp is taken, parse the rest. *)
      List.iter (fun l -> c.h <- digest_response c.h (parse_line l)) (List.rev c.raw);
      c.raw <- []
    end;
    on_response c t_read on_reply (parse_line l)
  end

(* Read what is available and dispatch complete replies.  Returns false
   on end of stream. *)
let receive c on_reply =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  let t_read = Probe.now_ns () in
  if n = 0 then false
  else begin
    if c.proto = 2 then B.dec_feed c.dec c.chunk 0 n
    else begin
      (* Split complete lines off the chunk.  A [ready proto=2] banner
         switches the stream to frames: the bytes behind it are fed to
         the frame decoder instead. *)
      let rec lines start =
        match Bytes.index_from_opt c.chunk start '\n' with
        | Some i when i < n ->
          Buffer.add_subbytes c.line c.chunk start (i - start);
          let l = Buffer.contents c.line in
          Buffer.clear c.line;
          on_line c t_read on_reply l;
          if c.proto = 2 then B.dec_feed c.dec c.chunk (i + 1) (n - i - 1)
          else lines (i + 1)
        | _ -> Buffer.add_subbytes c.line c.chunk start (n - start)
      in
      lines 0
    end;
    if c.proto = 2 then begin
      let rec drain () =
        match B.decode_response c.dec c.view with
        | `Resp r ->
          on_response c t_read on_reply r;
          drain ()
        | `Need_more -> ()
        | `Corrupt m -> raise (Protocol ("corrupt frame: " ^ m))
      in
      drain ()
    end;
    true
  end

exception Timeout

(* Closed loop over every connection: each sends its next window only
   once the previous window is fully answered.  [on_reply c r] sees
   every reply of connection [c] in order.  Every [quiet_every] ns the
   connections hold back their next window until all are answered, and
   [quiet] runs while the server has nothing to do. *)
let run_windows ?(quiet = ignore) ?(quiet_every = max_int) conns windows ~timeout ~on_reply =
  let k = Array.length conns in
  let next = Array.make k 0 and parked = Array.make k false in
  let active = ref 0 and last_quiet = ref (Probe.now_ns ()) in
  let advance i =
    if next.(i) < Array.length windows.(i) then
      if Probe.now_ns () - !last_quiet >= quiet_every then parked.(i) <- true
      else begin
        send conns.(i) windows.(i).(next.(i));
        next.(i) <- next.(i) + 1;
        incr active
      end
  in
  for i = 0 to k - 1 do advance i done;
  while !active > 0 || Array.exists Fun.id parked do
    if !active = 0 then begin
      quiet ();
      last_quiet := Probe.now_ns ();
      Array.iteri
        (fun i p ->
          if p then begin
            parked.(i) <- false;
            advance i
          end)
        parked
    end
    else begin
      let fds =
        List.filter_map (fun c -> if Queue.is_empty c.queue then None else Some c.fd) (Array.to_list conns)
      in
      let ready, _, _ =
        match Unix.select fds [] [] timeout with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> (fds, [], [])
      in
      if ready = [] then raise Timeout;
      Array.iteri
        (fun i c ->
          if List.mem c.fd ready && not (Queue.is_empty c.queue) then begin
            if not (receive c (on_reply i)) then raise (Protocol "server closed the connection");
            if Queue.is_empty c.queue then begin
              decr active;
              advance i
            end
          end)
        conns
    end
  done

(* One request, answered before returning (connection set-up and the
   counter snapshots around the timed phase). *)
let call c req ~timeout =
  let got = ref None in
  run_windows [| c |] [| [| [| req |] |] |] ~timeout ~on_reply:(fun _ r -> got := Some r);
  match !got with Some r -> r | None -> raise (Protocol "no reply")

(* The opening reply is the unrequested [ready] banner. *)
let greet c ~timeout =
  Queue.push { pkind = Ctl; sent = Probe.now_ns () } c.queue;
  let got = ref None in
  while Queue.length c.queue > 0 do
    let ready, _, _ = Unix.select [ c.fd ] [] [] timeout in
    if ready = [] then raise Timeout;
    if not (receive c (fun r -> got := Some r)) then raise (Protocol "server closed before greeting")
  done;
  match !got with
  | Some { responses = [ P.Ready _ ]; _ } -> ()
  | _ -> raise (Protocol "no ready banner")
