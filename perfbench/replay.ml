(* In-process replay: the oracle for the server's replies and the source
   of the per-layer figures.

   The same request stream is applied to in-process sessions opened on
   the same graph file, through the same library calls a shard makes:
   decode (Wnet_proto.parse_request / Wnet_proto_bin.decode_request),
   the session (Wnet_proto.handle, i.e. S.apply or S.pay, with S.flush
   split out before each pay, over the engine a shard opens), and encode (print_response /
   encode_responses).  Each call gets a span on the monotonic clock; the
   spans of one request share its id, stay in memory, and are written
   out at the end. *)

module P = Wnet_proto
module B = Wnet_proto_bin
module Sess = Wnet_session

let layers = [| "decode"; "apply"; "flush"; "pay"; "stats"; "encode" |]
let l_decode = 0
let l_apply = 1
let l_flush = 2
let l_pay = 3
let l_stats = 4
let l_encode = 5

(* Spans as flat (request id, layer, start ns, stop ns) quadruples, off
   the OCaml heap so that holding a million of them does not add to the
   major GC work of the replay being measured.  At most 4 spans per
   request (a pay has decode, flush, pay and encode). *)
type spans = {
  mutable len : int;
  data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

let make_spans requests = { len = 0; data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (16 * requests) }

let record sp id layer t0 t1 =
  let o = 4 * sp.len in
  sp.data.{o} <- id;
  sp.data.{o + 1} <- layer;
  sp.data.{o + 2} <- t0;
  sp.data.{o + 3} <- t1;
  sp.len <- sp.len + 1

type result = {
  digests : int array array;  (** per connection, per request; -1 for stats *)
  kinds : Client.kind array;  (** per request id *)
  spans : spans;
  delta : Sess.stats;  (** session counters over the stream, summed *)
  requests : int;
  edits : int;
  pays : int;
  pay_reply_bytes : int;
  decode_ns : int;  (** batched decode of every request *)
  decode_words : float;
  region_hist : (int * int) list;
      (** region sizes after each cold start, summed over sessions, as
          (class lower bound, count) *)
}

(* A pay reply from per-source (src, path, per-relay payments)
   outcomes, summed in the order Wnet_session sums them. *)
let pay_of outcomes =
  let served = ref [] and unbounded = ref 0 and total = ref 0.0 in
  Array.iter
    (function
      | None -> ()
      | Some (src, path, payments) ->
        let charge = Array.fold_left ( +. ) 0.0 payments in
        if charge < infinity then total := !total +. charge else incr unbounded;
        served := { Sess.src; path = Array.to_list path; charge } :: !served)
    outcomes;
  { Sess.served = List.rev !served; unbounded = !unbounded; total = !total }

let unsupported () = failwith "replay: a delta the benchmark streams never send"

(* The engine a shard opens, packaged behind Wnet_session.S as
   Wnet_session.make packages it, but kept in hand so that the region
   histogram (Avoid_region / Dynamic_sssp region sizes) is read from
   the very session being replayed.  Returns the session and its
   histogram reader. *)
let open_session (spec : Workload.spec) (inst : Workload.instance) pool =
  match spec.model with
  | Workload.Link ->
    let module LS = Sess.Link_session in
    let s = LS.create ~pool (Wnet_graph.Graph_io.parse_digraph inst.text) ~root:inst.root in
    let sess =
      (module struct
        let model = `Link
        let root = inst.root
        let domains = Wnet_par.size pool
        let n () = LS.n s
        let version () = LS.version s

        let apply d =
          (match d with
          | Sess.Set_link_cost { u; v; w } -> LS.set_cost s u v w
          | Sess.Leave { node } -> LS.remove_node s node
          | Sess.Rejoin { node; out; inn } -> LS.rejoin_node s node ~out ~inn
          | Sess.Set_node_cost _ | Sess.Join _ -> unsupported ());
          { Sess.version = LS.version s; node = None }

        let pay () =
          pay_of
            (Array.map
               (Option.map (fun (o : LS.outcome) -> (o.LS.src, o.LS.path, o.LS.payments)))
               (LS.payments s).LS.results)

        let flush () = LS.flush s
        let stats () = LS.stats s
      end : Sess.S)
    in
    (sess, fun () -> LS.region_histogram s)
  | Workload.Node ->
    let module NS = Sess.Node_session in
    let s = NS.create ~pool (Wnet_graph.Graph_io.parse inst.text) ~root:inst.root in
    let sess =
      (module struct
        let model = `Node
        let root = inst.root
        let domains = Wnet_par.size pool
        let n () = NS.n s
        let version () = NS.version s

        let apply d =
          (match d with
          | Sess.Set_node_cost { node; cost } -> NS.set_cost s node cost
          | Sess.Leave { node } -> NS.remove_node s node
          | Sess.Set_link_cost _ | Sess.Join _ | Sess.Rejoin _ -> unsupported ());
          { Sess.version = NS.version s; node = None }

        let pay () =
          pay_of
            (Array.map
               (Option.map (fun (o : NS.outcome) -> (o.NS.src, o.NS.path, o.NS.payments)))
               (NS.payments s))

        let flush () = NS.flush s

        let stats () =
          let st = NS.stats s in
          {
            Sess.edits = st.NS.edits;
            coalesced_edits = st.NS.coalesced_edits;
            inval_passes = st.NS.inval_passes;
            spt_runs = st.NS.spt_runs;
            avoid_runs = st.NS.avoid_runs;
            avoid_reused = st.NS.avoid_reused;
            repaired_entries = st.NS.repaired_entries;
            fallback_recomputes = st.NS.fallback_recomputes;
            tasks_executed = st.NS.tasks_executed;
            tasks_stolen = st.NS.tasks_stolen;
            avoid_bounded = st.NS.avoid_bounded;
            avoid_fallback = st.NS.avoid_fallback;
          }
      end : Sess.S)
    in
    (sess, fun () -> NS.region_histogram s)

let sub_stats (a : Sess.stats) (b : Sess.stats) =
  let fa = Sess.to_fields a and fb = Sess.to_fields b in
  match Sess.of_fields (List.map2 (fun (k, x) (_, y) -> (k, x - y)) fa fb) with
  | Ok s -> s
  | Error m -> failwith m

let add_stats a b =
  match
    Sess.of_fields (List.map2 (fun (k, x) (_, y) -> (k, x + y)) (Sess.to_fields a) (Sess.to_fields b))
  with
  | Ok s -> s
  | Error m -> failwith m

(* [acc] plus the counts of [h] minus those of [h0], per size class. *)
let add_hist acc h h0 =
  let get k l = Option.value (List.assoc_opt k l) ~default:0 in
  List.sort_uniq compare (List.map fst (acc @ h))
  |> List.map (fun k -> (k, get k acc + get k h - get k h0))

(* The wire form a shard would receive for one request. *)
let wire ~proto enc r =
  if proto = 2 then begin
    B.enc_reset enc;
    B.encode_request enc r;
    Bytes.sub_string (B.enc_buffer enc) (B.enc_offset enc) (B.enc_pending enc)
  end
  else P.print_request r ^ "\n"

let decode ~proto dec view w =
  if proto = 2 then begin
    B.dec_feed_string dec w 0 (String.length w);
    match B.decode_request dec view with
    | `Req r -> r
    | `Need_more | `Corrupt _ -> failwith "replay: undecodable frame"
  end
  else
    match P.parse_request (String.sub w 0 (String.length w - 1)) with
    | Ok (Some r) -> r
    | Ok None | Error _ -> failwith "replay: unparsable request"

(* Sub-microsecond layers are reported as one timed loop over every
   request divided by the count, never from single timed calls.  The
   wire forms are rendered 4096 at a time outside the timed loops. *)
let batched_decode ~proto windows =
  let reqs = Array.concat (List.concat_map Array.to_list (Array.to_list windows)) in
  let enc = B.enc_create ~cap:65536 () and dec = B.dec_create ~cap:65536 () in
  let view = B.make_view () in
  let ns = ref 0 and words = ref 0.0 in
  let chunk = 4096 in
  for c = 0 to (Array.length reqs - 1) / chunk do
    let lo = c * chunk in
    let wires = Array.init (min chunk (Array.length reqs - lo)) (fun i -> wire ~proto enc reqs.(lo + i)) in
    let w0 = Gc.minor_words () in
    let t0 = Probe.now_ns () in
    Array.iter (fun w -> ignore (Sys.opaque_identity (decode ~proto dec view w))) wires;
    let t1 = Probe.now_ns () in
    words := !words +. (Gc.minor_words () -. w0);
    ns := !ns + (t1 - t0)
  done;
  (!ns, !words)

(* The replay's pool: a multi-shard server runs each session
   sequentially; one shard shares its --domains pool across sessions. *)
let domains (spec : Workload.spec) = if spec.shards > 1 then 1 else spec.domains

(* [~encode:false] skips the encode layer: the correctness check only
   needs the reply values, and the untraced run reports no layers. *)
let run (spec : Workload.spec) (inst : Workload.instance) windows ~encode =
  let proto = spec.proto in
  Wnet_par.with_pool ~domains:(domains spec) (fun pool ->
      let requests =
        Array.fold_left (Array.fold_left (fun a w -> a + Array.length w)) 0 windows
      in
      let sp = make_spans requests and kinds = Array.make requests Client.Ctl in
      let delta = ref Sess.zero_stats and hist = ref [] in
      let next_id = ref 0 and edits = ref 0 and pays = ref 0 and pay_bytes = ref 0 in
      let enc = B.enc_create ~cap:65536 () and renc = B.enc_create ~cap:65536 () in
      let dec = B.dec_create ~cap:65536 () and view = B.make_view () in
      let text = Buffer.create 65536 in
      let digests =
        Array.map
          (fun ws ->
            let sess, region_hist = open_session spec inst pool in
            let module S = (val sess : Sess.S) in
            ignore (P.handle sess P.Pay);
            let s0 = S.stats () and h0 = region_hist () in
            let reqs = Array.concat (Array.to_list ws) in
            let ds =
              Array.map
                (fun r ->
                  let id = !next_id in
                  incr next_id;
                  let kind = Client.kind_of r in
                  kinds.(id) <- kind;
                  let w = wire ~proto enc r in
                  let t0 = Probe.now_ns () in
                  let r = decode ~proto dec view w in
                  let t1 = Probe.now_ns () in
                  record sp id l_decode t0 t1;
                  let rs =
                    match kind with
                    | Client.Pay ->
                      incr pays;
                      let t0 = Probe.now_ns () in
                      S.flush ();
                      let t1 = Probe.now_ns () in
                      let rs = P.handle sess r in
                      let t2 = Probe.now_ns () in
                      record sp id l_flush t0 t1;
                      record sp id l_pay t1 t2;
                      rs
                    | _ ->
                      if kind = Client.Edit then incr edits;
                      let t0 = Probe.now_ns () in
                      let rs = P.handle sess r in
                      let t1 = Probe.now_ns () in
                      record sp id (if kind = Client.Edit then l_apply else l_stats) t0 t1;
                      rs
                  in
                  let t0 = Probe.now_ns () in
                  let bytes =
                    if not encode then 0
                    else if proto = 2 then begin
                      B.enc_reset renc;
                      B.encode_responses renc rs;
                      B.enc_pending renc
                    end
                    else begin
                      Buffer.clear text;
                      List.iter
                        (fun r ->
                          Buffer.add_string text (P.print_response r);
                          Buffer.add_char text '\n')
                        rs;
                      Buffer.length text
                    end
                  in
                  let t1 = Probe.now_ns () in
                  record sp id l_encode t0 t1;
                  if kind = Client.Pay then pay_bytes := !pay_bytes + bytes;
                  if kind = Client.Stats then -1 else Client.digest rs)
                reqs
            in
            delta := add_stats !delta (sub_stats (S.stats ()) s0);
            hist := add_hist !hist (region_hist ()) h0;
            ds)
          windows
      in
      let decode_ns, decode_words = batched_decode ~proto windows in
      {
        digests;
        kinds;
        spans = sp;
        delta = !delta;
        requests = !next_id;
        edits = !edits;
        pays = !pays;
        pay_reply_bytes = !pay_bytes;
        decode_ns;
        decode_words;
        region_hist = List.filter (fun (_, c) -> c > 0) !hist;
      })

(* Durations of one layer over the requests of one kind, in ns. *)
let durations r kind layer =
  let acc = ref [] in
  let d = r.spans.data in
  for i = r.spans.len - 1 downto 0 do
    let o = 4 * i in
    if d.{o + 1} = layer && r.kinds.(d.{o}) = kind then acc := (d.{o + 3} - d.{o + 2}) :: !acc
  done;
  Array.of_list !acc

let write_spans r path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "request\tkind\tlayer\tstart_ns\tstop_ns\n";
      let kind_name = function
        | Client.Edit -> "edit"
        | Client.Pay -> "pay"
        | Client.Stats -> "stats"
        | Client.Ctl -> "ctl"
      in
      let d = r.spans.data in
      for i = 0 to r.spans.len - 1 do
        let o = 4 * i in
        Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\n" d.{o} (kind_name r.kinds.(d.{o})) layers.(d.{o + 1})
          d.{o + 2} d.{o + 3}
      done)
