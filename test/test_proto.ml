(* Wnet_proto round-trip properties: the canonical printer and parser
   are mutual inverses — [parse (print x) = x] with floats compared by
   [Float.equal], so exact down to the bit, including infinities —
   plus the explicit error channel on malformed input, and the generic
   [handle] driver on both session models. *)

module P = Wnet_proto
module W = Wnet_session
open QCheck2

(* ---------------- generators ---------------- *)

let float_gen =
  Gen.oneof
    [
      Gen.float;
      Gen.map2 ( /. ) Gen.float (Gen.float_range 1e-3 1e3);
      Gen.oneofl [ 0.0; -0.0; 1.0; 4.5; 1.0 /. 3.0; 1e-300; 3e300; infinity ];
    ]

let node_gen = Gen.int_range 0 9999
let endpoint_gen = Gen.pair node_gen float_gen
let endpoints_gen = Gen.list_size (Gen.int_range 0 4) endpoint_gen

let request_gen =
  Gen.oneof
    [
      Gen.map2 (fun node cost -> P.Cost_node { node; cost }) node_gen float_gen;
      Gen.map3 (fun u v w -> P.Cost_link { u; v; w }) node_gen node_gen
        float_gen;
      Gen.map2 (fun out inn -> P.Join { out; inn }) endpoints_gen endpoints_gen;
      Gen.map3
        (fun node out inn -> P.Rejoin { node; out; inn })
        node_gen endpoints_gen endpoints_gen;
      Gen.map (fun node -> P.Leave { node }) node_gen;
      Gen.map (fun proto -> P.Proto { proto }) (Gen.int_range 0 255);
      Gen.map (fun session -> P.Attach { session }) (Gen.int_range 0 9999);
      Gen.oneofl [ P.Pay; P.Stats; P.Quit ];
    ]

(* Error messages travel as the rest of the line: any single-spaced
   printable text without leading/trailing blanks round-trips. *)
let message_gen =
  let word =
    Gen.string_size ~gen:(Gen.oneofl [ 'a'; 'z'; 'Q'; '0'; ':'; '_' ])
      (Gen.int_range 1 8)
  in
  Gen.map (String.concat " ") (Gen.list_size (Gen.int_range 0 4) word)

let path_gen = Gen.list_size (Gen.int_range 1 6) node_gen
let count_gen = Gen.int_range 0 100000

let stats_gen =
  Gen.map3
    (fun ((edits, coalesced_edits), (avoid_bounded, avoid_fallback))
         ((inval_passes, spt_runs), (tasks_executed, tasks_stolen))
         ((avoid_runs, avoid_reused), (repaired_entries, fallback_recomputes)) ->
      {
        W.edits;
        coalesced_edits;
        inval_passes;
        spt_runs;
        avoid_runs;
        avoid_reused;
        repaired_entries;
        fallback_recomputes;
        tasks_executed;
        tasks_stolen;
        avoid_bounded;
        avoid_fallback;
      })
    (Gen.pair (Gen.pair count_gen count_gen) (Gen.pair count_gen count_gen))
    (Gen.pair (Gen.pair count_gen count_gen) (Gen.pair count_gen count_gen))
    (Gen.pair (Gen.pair count_gen count_gen) (Gen.pair count_gen count_gen))

let response_gen =
  Gen.oneof
    [
      Gen.map3
        (fun model n (root, domains) ->
          P.Ready { proto = P.version; model; n; root; domains })
        (Gen.oneofl [ `Node; `Link ])
        count_gen
        (Gen.pair node_gen (Gen.int_range 1 64));
      Gen.map2
        (fun version node -> P.Ack { version; node })
        count_gen
        (Gen.opt node_gen);
      Gen.map3
        (fun src path charge -> P.Served { src; path; charge })
        node_gen path_gen float_gen;
      Gen.map3
        (fun served unbounded total -> P.Paid { served; unbounded; total })
        count_gen count_gen float_gen;
      Gen.map (fun st -> P.Session_stats st) stats_gen;
      Gen.map3
        (fun (clients, requests) (edits, coalesced)
             ((cache_hits, cache_misses), (bytes_in, bytes_out)) ->
          P.Server_stats
            {
              clients;
              requests;
              edits;
              coalesced;
              cache_hits;
              cache_misses;
              bytes_in;
              bytes_out;
            })
        (Gen.pair count_gen count_gen)
        (Gen.pair count_gen count_gen)
        (Gen.pair (Gen.pair count_gen count_gen)
           (Gen.pair count_gen count_gen));
      Gen.map3
        (fun (shard, conns) ((requests, edits), (coalesced, inval_passes))
             ( ((cache_hits, cache_misses), (repaired, tasks)),
               (stolen, (bytes_in, bytes_out)) ) ->
          P.Shard_stats
            {
              shard;
              conns;
              requests;
              edits;
              coalesced;
              inval_passes;
              cache_hits;
              cache_misses;
              repaired;
              tasks;
              stolen;
              bytes_in;
              bytes_out;
            })
        (Gen.pair (Gen.int_range 0 9999) count_gen)
        (Gen.pair (Gen.pair count_gen count_gen)
           (Gen.pair count_gen count_gen))
        (Gen.pair
           (Gen.pair (Gen.pair count_gen count_gen)
              (Gen.pair count_gen count_gen))
           (Gen.pair count_gen (Gen.pair count_gen count_gen)));
      Gen.map3
        (fun requests bytes_in (bytes_out, proto) ->
          P.Conn_stats { requests; bytes_in; bytes_out; proto })
        count_gen count_gen
        (Gen.pair count_gen (Gen.int_range 1 255));
      Gen.return P.Bye;
      Gen.map (fun m -> P.Err m) message_gen;
    ]

(* ---------------- structural equality, floats exact ---------------- *)

let endpoints_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (v, w) (v', w') -> v = v' && Float.equal w w')
       a b

let request_equal a b =
  match (a, b) with
  | P.Cost_node { node; cost }, P.Cost_node { node = n'; cost = c' } ->
    node = n' && Float.equal cost c'
  | P.Cost_link { u; v; w }, P.Cost_link { u = u'; v = v'; w = w' } ->
    u = u' && v = v' && Float.equal w w'
  | P.Join { out; inn }, P.Join { out = o'; inn = i' } ->
    endpoints_equal out o' && endpoints_equal inn i'
  | ( P.Rejoin { node; out; inn },
      P.Rejoin { node = n'; out = o'; inn = i' } ) ->
    node = n' && endpoints_equal out o' && endpoints_equal inn i'
  | P.Leave { node }, P.Leave { node = n' } -> node = n'
  | P.Proto { proto }, P.Proto { proto = p' } -> proto = p'
  | P.Attach { session }, P.Attach { session = s' } -> session = s'
  | P.Pay, P.Pay | P.Stats, P.Stats | P.Quit, P.Quit -> true
  | _ -> false

let response_equal a b =
  match (a, b) with
  | ( P.Ready { proto; model; n; root; domains },
      P.Ready { proto = p'; model = m'; n = n'; root = r'; domains = d' } ) ->
    proto = p' && model = m' && n = n' && root = r' && domains = d'
  | P.Ack { version; node }, P.Ack { version = v'; node = n' } ->
    version = v' && node = n'
  | ( P.Served { src; path; charge },
      P.Served { src = s'; path = p'; charge = c' } ) ->
    src = s' && path = p' && Float.equal charge c'
  | ( P.Paid { served; unbounded; total },
      P.Paid { served = s'; unbounded = u'; total = t' } ) ->
    served = s' && unbounded = u' && Float.equal total t'
  | P.Session_stats a, P.Session_stats b -> a = b
  | ( P.Server_stats
        {
          clients;
          requests;
          edits;
          coalesced;
          cache_hits;
          cache_misses;
          bytes_in;
          bytes_out;
        },
      P.Server_stats
        {
          clients = c';
          requests = r';
          edits = e';
          coalesced = co';
          cache_hits = ch';
          cache_misses = cm';
          bytes_in = bi';
          bytes_out = bo';
        } ) ->
    clients = c' && requests = r' && edits = e' && coalesced = co'
    && cache_hits = ch' && cache_misses = cm' && bytes_in = bi'
    && bytes_out = bo'
  | ( P.Shard_stats
        {
          shard;
          conns;
          requests;
          edits;
          coalesced;
          inval_passes;
          cache_hits;
          cache_misses;
          repaired;
          tasks;
          stolen;
          bytes_in;
          bytes_out;
        },
      P.Shard_stats
        {
          shard = s';
          conns = c';
          requests = r';
          edits = e';
          coalesced = co';
          inval_passes = ip';
          cache_hits = ch';
          cache_misses = cm';
          repaired = rp';
          tasks = t';
          stolen = st';
          bytes_in = bi';
          bytes_out = bo';
        } ) ->
    shard = s' && conns = c' && requests = r' && edits = e'
    && coalesced = co' && inval_passes = ip' && cache_hits = ch'
    && cache_misses = cm' && repaired = rp' && tasks = t' && stolen = st'
    && bytes_in = bi' && bytes_out = bo'
  | ( P.Conn_stats { requests; bytes_in; bytes_out; proto },
      P.Conn_stats
        { requests = r'; bytes_in = bi'; bytes_out = bo'; proto = p' } ) ->
    requests = r' && bytes_in = bi' && bytes_out = bo' && proto = p'
  | P.Bye, P.Bye -> true
  | P.Err a, P.Err b -> a = b
  | _ -> false

(* ---------------- properties ---------------- *)

let float_roundtrip_prop f =
  Float.equal (float_of_string (P.float_to_string f)) f

let request_roundtrip_prop r =
  match P.parse_request (P.print_request r) with
  | Ok (Some r') when request_equal r r' -> true
  | Ok (Some r') ->
    Test.fail_reportf "request re-parsed differently: %s vs %s"
      (P.print_request r) (P.print_request r')
  | Ok None -> Test.fail_reportf "request parsed as blank: %s" (P.print_request r)
  | Error m ->
    Test.fail_reportf "request failed to re-parse: %s (%s)" (P.print_request r)
      m

let response_roundtrip_prop r =
  match P.parse_response (P.print_response r) with
  | Ok r' when response_equal r r' -> true
  | Ok r' ->
    Test.fail_reportf "response re-parsed differently: %s vs %s"
      (P.print_response r) (P.print_response r')
  | Error m ->
    Test.fail_reportf "response failed to re-parse: %s (%s)"
      (P.print_response r) m

(* ---------------- the writer against its references ---------------- *)

(* Floats that stress the writer's digit arithmetic: every bit pattern
   (negative, subnormal, +-0, +-inf, nan), short decimals and integers,
   the ends of its exact range one ulp either side, a 12-digit tie,
   powers of two (whose lower rounding interval is half as wide) and
   values whose 12-digit rounding carries into a new power of ten. *)
let writer_float_gen =
  let pow10 k = float_of_string ("1e" ^ string_of_int k) in
  let near f = Gen.oneofl [ f; Float.pred f; Float.succ f; -.f ] in
  Gen.oneof
    [
      Gen.map Int64.float_of_bits Gen.int64;
      Gen.oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; -.nan; 999999999999.5 ];
      Gen.map2
        (fun d k -> float_of_int d /. pow10 k)
        (Gen.int_range 0 999_999) (Gen.int_range 0 12);
      Gen.map2
        (fun d k -> float_of_int d *. pow10 k)
        (Gen.int_range (-999) 999) (Gen.int_range (-6) 14);
      Gen.map float_of_int (Gen.int_range (-1_000_000_000_000) 1_000_000_000_000);
      Gen.(oneofl [ 1e-4; 1e12; 999999999999.5 ] >>= near);
      Gen.(map (ldexp 1.0) (int_range (-20) 45) >>= near);
      Gen.map2
        (fun tail k ->
          float_of_string (Printf.sprintf "9.99999999999%de%d" tail k))
        (Gen.int_range 5 99999) (Gen.int_range (-5) 12);
      Gen.map2
        (fun d k -> float_of_int d *. ldexp 1.0 (-k))
        (Gen.int_range 1 (1 lsl 40)) (Gen.int_range 0 60);
    ]

let float_writer_prop f =
  let want = Oracle.float_to_string f and got = P.float_to_string f in
  want = got
  || Test.fail_reportf "%h: writer %S, printf %S" f got want

(* Printed served lines and mutations of them: cut short, a byte
   replaced, a space doubled or turned into a tab, a byte inserted. *)
let served_line_gen =
  let mutant_char =
    Gen.oneofl [ ' '; '\t'; '-'; '>'; ':'; ','; '.'; '0'; '7'; 'x'; '_'; 'e'; '+'; 's' ]
  in
  let mutate line =
    let n = String.length line in
    Gen.(
      oneof
        [
          map (fun i -> String.sub line 0 i) (int_range 0 n);
          map2
            (fun i c -> String.mapi (fun j d -> if i = j then c else d) line)
            (int_range 0 (n - 1)) mutant_char;
          map2
            (fun i c ->
              String.sub line 0 i ^ String.make 1 c
              ^ String.sub line i (n - i))
            (int_range 0 n) mutant_char;
          map
            (fun i ->
              String.concat ""
                (List.mapi
                   (fun j w -> if j = 0 then w else (if j = i then "  " else " ") ^ w)
                   (String.split_on_char ' ' line)))
            (int_range 1 12);
          map
            (fun i ->
              String.concat ""
                (List.mapi
                   (fun j w -> if j = 0 then w else (if j = i then "\t" else " ") ^ w)
                   (String.split_on_char ' ' line)))
            (int_range 1 12);
        ])
  in
  let rec mutations k line =
    if k = 0 || line = "" then Gen.return line
    else Gen.(mutate line >>= mutations (k - 1))
  in
  Gen.(
    triple node_gen (list_size (int_range 0 6) node_gen) float_gen
    >>= fun (src, path, charge) ->
    int_range 0 3 >>= fun k ->
    mutations k (P.print_response (P.Served { src; path; charge })))

let served_parse_prop line =
  let same what a b =
    match (a, b) with
    | Ok x, Ok y when response_equal x y -> true
    | Error _, Error _ -> true
    | _ -> Test.fail_reportf "%s disagrees with the reference on %S" what line
  in
  same "parse_served" (P.parse_served line) (Oracle.parse_served line)
  &&
  let t = String.trim line in
  match Oracle.tokens t with
  | "src" :: _ -> same "parse_response" (P.parse_response line) (Oracle.parse_served t)
  | _ -> true

(* ---------------- units: blanks, errors, handle ---------------- *)

let test_blank_and_comment () =
  Alcotest.(check bool) "blank is silent" true (P.parse_request "" = Ok None);
  Alcotest.(check bool) "spaces are silent" true
    (P.parse_request "   " = Ok None);
  Alcotest.(check bool) "comment is silent" true
    (P.parse_request "# cost 1 2" = Ok None)

let expect_error what line =
  match P.parse_request line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s should be rejected: %S" what line

let test_malformed () =
  expect_error "bare cost" "cost";
  expect_error "cost arity" "cost 1 2 3 4";
  expect_error "bad number" "cost 1 two";
  expect_error "join without separator" "join 1:2.0";
  expect_error "bad endpoint" "join 1 -- 2:3";
  expect_error "unknown verb" "payments";
  expect_error "bare rejoin" "rejoin"

let test_parse_examples () =
  Alcotest.(check bool) "node cost" true
    (match P.parse_request "cost 3 4.5" with
    | Ok (Some (P.Cost_node { node = 3; cost })) -> Float.equal cost 4.5
    | _ -> false);
  Alcotest.(check bool) "link removal via inf" true
    (match P.parse_request "cost 1 2 inf" with
    | Ok (Some (P.Cost_link { u = 1; v = 2; w })) -> w = infinity
    | _ -> false);
  Alcotest.(check bool) "exit aliases quit" true
    (P.parse_request "exit" = Ok (Some P.Quit))

(* The counter keys of the session stats line, in wire order — the
   table the consolidated parser is driven by. *)
let stats_keys =
  [|
    "edits"; "coalesced"; "inval_passes"; "spt_runs"; "avoid_runs";
    "avoid_reused"; "repaired"; "fallbacks"; "tasks"; "stolen";
    "avoid_bounded"; "avoid_fallback";
  |]

(* The stats line parses only whole: the 12-token line round-trips to
   its record, and every shorter prefix of it is an [Error] (an
   exception would fail the property). *)
let stats_arity_gen =
  Gen.pair (Gen.int_range 0 12) (Gen.array_size (Gen.return 12) count_gen)

let stats_arity_prop (arity, counts) =
  let line =
    "ok "
    ^ String.concat " "
        (List.init arity (fun i ->
             Printf.sprintf "%s=%d" stats_keys.(i) counts.(i)))
  in
  match (arity, P.parse_response line) with
  | 12, Ok (P.Session_stats st) ->
    W.to_fields st
    = List.init 12 (fun i -> (stats_keys.(i), counts.(i)))
    || Test.fail_reportf "stats line parsed with wrong counters: %s" line
  | 12, Ok _ -> Test.fail_reportf "stats line parsed as something else: %s" line
  | 12, Error m -> Test.fail_reportf "stats line rejected: %s (%s)" line m
  | _, Error _ -> true
  | _, Ok _ -> Test.fail_reportf "%d-token prefix parsed: %s" arity line

let test_stats_line_compat () =
  (* Pin the wire form of the 12-counter stats line. *)
  (match
     P.parse_response
       "ok edits=1 coalesced=2 inval_passes=3 spt_runs=4 avoid_runs=5 \
        avoid_reused=6 repaired=7 fallbacks=8 tasks=9 stolen=2 \
        avoid_bounded=11 avoid_fallback=12"
   with
  | Ok (P.Session_stats st) ->
    Alcotest.(check bool) "12-token stats line parses exactly" true
      (st
      = {
          W.edits = 1;
          coalesced_edits = 2;
          inval_passes = 3;
          spt_runs = 4;
          avoid_runs = 5;
          avoid_reused = 6;
          repaired_entries = 7;
          fallback_recomputes = 8;
          tasks_executed = 9;
          tasks_stolen = 2;
          avoid_bounded = 11;
          avoid_fallback = 12;
        })
  | _ -> Alcotest.fail "full stats line must parse");
  (* the 10- and 8-token lines of older peers are no longer accepted *)
  (match
     P.parse_response
       "ok edits=1 coalesced=2 inval_passes=3 spt_runs=4 avoid_runs=5 \
        avoid_reused=6 repaired=7 fallbacks=8 tasks=9 stolen=2"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "10-token stats line must be rejected");
  (match
     P.parse_response
       "ok edits=1 coalesced=2 inval_passes=3 spt_runs=4 avoid_runs=5 \
        avoid_reused=6 repaired=7 fallbacks=8"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "8-token stats line must be rejected");
  (* the conn line needs its trailing proto token *)
  (match P.parse_response "conn requests=3 bytes_in=40 bytes_out=152" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conn line without proto must be rejected");
  match P.parse_response "conn requests=3 bytes_in=40 bytes_out=152 proto=2" with
  | Ok (P.Conn_stats { proto = 2; requests = 3; _ }) -> ()
  | _ -> Alcotest.fail "conn line must carry its proto"

(* The sharded-server wire additions: the [session N] attach request,
   the per-shard stats row, and the stats-key table staying in lock
   step with Wnet_session's record layout (printer and parser are both
   table-driven off it). *)
let test_shard_wire () =
  Alcotest.(check (array string)) "stats keys = session record layout"
    stats_keys W.stats_field_names;
  Alcotest.(check bool) "session N parses as an attach" true
    (P.parse_request "session 3" = Ok (Some (P.Attach { session = 3 })));
  Alcotest.(check string) "attach prints as session N" "session 3"
    (P.print_request (P.Attach { session = 3 }));
  let row =
    P.Shard_stats
      {
        shard = 1;
        conns = 2;
        requests = 3;
        edits = 4;
        coalesced = 5;
        inval_passes = 6;
        cache_hits = 7;
        cache_misses = 8;
        repaired = 9;
        tasks = 10;
        stolen = 11;
        bytes_in = 12;
        bytes_out = 13;
      }
  in
  Alcotest.(check string) "shard row wire form"
    "shard id=1 conns=2 requests=3 edits=4 coalesced=5 inval_passes=6 \
     cache_hits=7 cache_misses=8 repaired=9 tasks=10 stolen=11 bytes_in=12 \
     bytes_out=13"
    (P.print_response row);
  (match P.parse_response (P.print_response row) with
  | Ok r ->
    Alcotest.(check bool) "shard row reparses" true (response_equal row r)
  | Error m -> Alcotest.failf "shard row rejected: %s" m);
  Alcotest.(check string) "session stats print through the record"
    ("ok "
    ^ String.concat " "
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=%d" k v)
           (W.to_fields W.zero_stats)))
    (P.print_response (P.Session_stats W.zero_stats))

let fig_digraph () =
  Wnet_graph.Digraph.create ~n:3 ~links:[ (2, 1, 1.0); (1, 0, 1.0) ]

let test_handle_drives_session () =
  let session = W.make ~root:0 (`Link (fig_digraph ())) in
  (match P.greeting session with
  | P.Ready { proto; model = `Link; n = 3; root = 0; domains = 1 } ->
    Alcotest.(check int) "greeting carries the protocol version" P.version
      proto
  | r -> Alcotest.failf "unexpected greeting %s" (P.print_response r));
  (match P.handle session (P.Cost_link { u = 2; v = 0; w = 10.0 }) with
  | [ P.Ack { version = 1; node = None } ] -> ()
  | rs ->
    Alcotest.failf "unexpected ack %s"
      (String.concat "; " (List.map P.print_response rs)));
  let module LC = Wnet_core.Link_cost in
  let edited =
    Wnet_graph.Digraph.create ~n:3
      ~links:[ (2, 1, 1.0); (1, 0, 1.0); (2, 0, 10.0) ]
  in
  let oracle = Oracle.link_batch edited ~root:0 in
  let expected src =
    match oracle.LC.results.(src) with
    | Some r -> Array.fold_left ( +. ) 0.0 r.LC.payments
    | None -> Alcotest.failf "oracle must serve source %d" src
  in
  (match P.handle session P.Pay with
  | [
   P.Served { src = 1; path = [ 1; 0 ]; charge = c1 };
   P.Served { src = 2; path = [ 2; 1; 0 ]; charge = c2 };
   P.Paid { served = 2; _ };
  ] ->
    Alcotest.(check bool) "src 1 charge matches the from-scratch oracle" true
      (Float.equal c1 (expected 1));
    Alcotest.(check bool) "src 2 charge matches the from-scratch oracle" true
      (Float.equal c2 (expected 2))
  | rs ->
    Alcotest.failf "unexpected pay reply %s"
      (String.concat "; " (List.map P.print_response rs)));
  (* model mismatch surfaces on the error channel, session survives *)
  (match P.handle session (P.Cost_node { node = 1; cost = 2.0 }) with
  | [ P.Err _ ] -> ()
  | _ -> Alcotest.fail "node delta on a link session must err");
  match P.handle_line session "quit" with
  | `Quit [ P.Bye ] -> ()
  | _ -> Alcotest.fail "quit must reply bye and close"

(* Golden pay replies: two small fixed instances (one per model), a
   pay, an edit, a pay.  The expected strings were recorded from the
   dense-payment assembly; every text line and every binary byte must
   stay the same.  The link instance routes source 6 through five relays
   whose payments are not exactly representable, so a change in the
   order the charge is summed shows up here, and relay 5 is a cut
   vertex (charge [inf]). *)
let golden_link () =
  Wnet_graph.Digraph.create ~n:7
    ~links:
      [
        (1, 0, 0.3); (2, 1, 0.1); (2, 0, 0.7); (3, 2, 0.2); (3, 1, 1.1);
        (4, 3, 0.35); (4, 2, 0.9); (5, 4, 0.15); (5, 3, 1.45); (6, 5, 0.6);
        (1, 2, 0.4); (0, 1, 0.3);
      ]

let golden_node () =
  Wnet_graph.Graph.create
    ~costs:[| 0.0; 0.3; 0.1; 0.7; 0.2; 1.1; 0.35; 0.15 |]
    ~edges:
      [
        (0, 1); (0, 3); (1, 2); (2, 4); (3, 4); (1, 3); (4, 6); (2, 6);
        (3, 5); (6, 7); (5, 6);
      ]

(* The replies to [reqs], as text lines and as the hex of one binary
   frame batch per request. *)
let golden_transcript session reqs =
  let enc = Wnet_proto_bin.enc_create () in
  List.map
    (fun r ->
      let rs = P.handle session r in
      Wnet_proto_bin.enc_reset enc;
      Wnet_proto_bin.encode_responses enc rs;
      let bin =
        Bytes.sub_string
          (Wnet_proto_bin.enc_buffer enc)
          (Wnet_proto_bin.enc_offset enc)
          (Wnet_proto_bin.enc_pending enc)
      in
      ( List.map P.print_response rs,
        String.concat ""
          (List.init (String.length bin) (fun i ->
               Printf.sprintf "%02x" (Char.code bin.[i]))) ))
    reqs

let check_golden what session reqs expected =
  List.iteri
    (fun i ((text, hex), (text', hex')) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s reply %d (text)" what i)
        text' text;
      Alcotest.(check string)
        (Printf.sprintf "%s reply %d (binary)" what i)
        hex' hex)
    (List.combine (golden_transcript session reqs) expected)

let golden_link_expected =
  [
    ( [
        "src 1: path 1 -> 0, charge 0";
        "src 2: path 2 -> 1 -> 0, charge 0.59999999999999987";
        "src 3: path 3 -> 2 -> 1 -> 0, charge 1.5";
        "src 4: path 4 -> 3 -> 2 -> 1 -> 0, charge 2.05";
        "src 5: path 5 -> 4 -> 3 -> 2 -> 1 -> 0, charge 3.3499999999999992";
        "src 6: path 6 -> 5 -> 4 -> 3 -> 2 -> 1 -> 0, charge inf";
        "ok served=6 unbounded=1 total=7.4999999999999982";
      ],
      "e500000007004301000000020000000100000000000000000000000000000043\
       0200000003000000020000000100000000000000323333333333e33f43030000\
       000400000003000000020000000100000000000000000000000000f83f430400\
       0000050000000400000003000000020000000100000000000000666666666666\
       0040430500000006000000050000000400000003000000020000000100000000\
       000000cbcccccccccc0a40430600000007000000060000000500000004000000\
       03000000020000000100000000000000000000000000f07f4406000000010000\
       00feffffffffff1d40" );
    ([ "ok version=1" ], "0b0000000100420100000000000000");
    ( [
        "src 1: path 1 -> 0, charge 0";
        "src 2: path 2 -> 1 -> 0, charge 0.59999999999999987";
        "src 3: path 3 -> 2 -> 1 -> 0, charge 1.45";
        "src 4: path 4 -> 3 -> 2 -> 1 -> 0, charge 1.9999999999999998";
        "src 5: path 5 -> 4 -> 3 -> 2 -> 1 -> 0, charge 3.3";
        "src 6: path 6 -> 5 -> 4 -> 3 -> 2 -> 1 -> 0, charge inf";
        "ok served=6 unbounded=1 total=7.35";
      ],
      "e500000007004301000000020000000100000000000000000000000000000043\
       0200000003000000020000000100000000000000323333333333e33f43030000\
       000400000003000000020000000100000000000000333333333333f73f430400\
       0000050000000400000003000000020000000100000000000000ffffffffffff\
       ff3f430500000006000000050000000400000003000000020000000100000000\
       0000006666666666660a40430600000007000000060000000500000004000000\
       03000000020000000100000000000000000000000000f07f4406000000010000\
       006666666666661d40" );
  ]

let golden_node_expected =
  [
    ( [
        "src 1: path 1 -> 0, charge 0";
        "src 2: path 2 -> 1 -> 0, charge 0.89999999999999991";
        "src 3: path 3 -> 0, charge 0";
        "src 4: path 4 -> 2 -> 1 -> 0, charge 0.99999999999999989";
        "src 5: path 5 -> 3 -> 0, charge 0.75";
        "src 6: path 6 -> 2 -> 1 -> 0, charge 1.4";
        "src 7: path 7 -> 6 -> 2 -> 1 -> 0, charge inf";
        "ok served=7 unbounded=1 total=4.05";
      ],
      "e600000008004301000000020000000100000000000000000000000000000043\
       0200000003000000020000000100000000000000ccccccccccccec3f43030000\
       0002000000030000000000000000000000000000004304000000040000000400\
       0000020000000100000000000000ffffffffffffef3f43050000000300000005\
       0000000300000000000000000000000000e83f43060000000400000006000000\
       020000000100000000000000666666666666f63f430700000005000000070000\
       0006000000020000000100000000000000000000000000f07f44070000000100\
       00003333333333331040" );
    ([ "ok version=1" ], "0b0000000100420100000000000000");
    ( [
        "src 1: path 1 -> 0, charge 0";
        "src 2: path 2 -> 1 -> 0, charge 1.15";
        "src 3: path 3 -> 0, charge 0";
        "src 4: path 4 -> 2 -> 1 -> 0, charge 0.99999999999999989";
        "src 5: path 5 -> 3 -> 0, charge 0.75";
        "src 6: path 6 -> 2 -> 1 -> 0, charge 1.9";
        "src 7: path 7 -> 6 -> 2 -> 1 -> 0, charge inf";
        "ok served=7 unbounded=1 total=4.8";
      ],
      "e600000008004301000000020000000100000000000000000000000000000043\
       0200000003000000020000000100000000000000666666666666f23f43030000\
       0002000000030000000000000000000000000000004304000000040000000400\
       0000020000000100000000000000ffffffffffffef3f43050000000300000005\
       0000000300000000000000000000000000e83f43060000000400000006000000\
       020000000100000000000000666666666666fe3f430700000005000000070000\
       0006000000020000000100000000000000000000000000f07f44070000000100\
       00003333333333331340" );
  ]

let test_golden_pay () =
  check_golden "link"
    (W.make ~root:0 (`Link (golden_link ())))
    [ P.Pay; P.Cost_link { u = 3; v = 2; w = 0.25 }; P.Pay ]
    golden_link_expected;
  check_golden "node"
    (W.make ~root:0 (`Node (golden_node ())))
    [ P.Pay; P.Cost_node { node = 4; cost = 0.45 }; P.Pay ]
    golden_node_expected

let suite =
  [
    Alcotest.test_case "blank lines and comments are silent" `Quick
      test_blank_and_comment;
    Alcotest.test_case "malformed requests hit the error channel" `Quick
      test_malformed;
    Alcotest.test_case "worked parse examples" `Quick test_parse_examples;
    Alcotest.test_case "stats line: 10-token form rejected, 12-token form pinned"
      `Quick test_stats_line_compat;
    Alcotest.test_case "shard wire: session attach + per-shard stats row"
      `Quick test_shard_wire;
    Alcotest.test_case "handle drives a session end to end" `Quick
      test_handle_drives_session;
    Alcotest.test_case "golden pay replies, text and binary" `Quick
      test_golden_pay;
    Test_util.qcheck_case ~count:500 "float_to_string round-trips bitwise"
      float_gen float_roundtrip_prop;
    Test_util.qcheck_case ~count:5000 "float writer = printf %.12g/%.17g, byte for byte"
      writer_float_gen float_writer_prop;
    Test_util.qcheck_case ~count:2000
      "served lines and mutants: in-place scan = tokenizing parser"
      served_line_gen served_parse_prop;
    Test_util.qcheck_case ~count:500 "parse_request (print_request r) = r"
      request_gen request_roundtrip_prop;
    Test_util.qcheck_case ~count:500 "parse_response (print_response r) = r"
      response_gen response_roundtrip_prop;
    Test_util.qcheck_case ~count:500
      "stats line parses at every counter, shorter prefixes are errors"
      stats_arity_gen stats_arity_prop;
  ]
