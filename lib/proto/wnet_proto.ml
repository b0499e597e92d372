let version = 1

type request =
  | Cost_node of { node : int; cost : float }
  | Cost_link of { u : int; v : int; w : float }
  | Join of { out : (int * float) list; inn : (int * float) list }
  | Rejoin of { node : int; out : (int * float) list; inn : (int * float) list }
  | Leave of { node : int }
  | Pay
  | Stats
  | Proto of { proto : int }
  | Attach of { session : int }
  | Quit

type response =
  | Ready of {
      proto : int;
      model : Wnet_session.model;
      n : int;
      root : int;
      domains : int;
    }
  | Ack of { version : int; node : int option }
  | Served of { src : int; path : int list; charge : float }
  | Paid of { served : int; unbounded : int; total : float }
  | Session_stats of Wnet_session.stats
  | Server_stats of {
      clients : int;
      requests : int;
      edits : int;
      coalesced : int;
      cache_hits : int;
      cache_misses : int;
      bytes_in : int;
      bytes_out : int;
    }
  | Shard_stats of {
      shard : int;
      conns : int;
      requests : int;
      edits : int;
      coalesced : int;
      inval_passes : int;
      cache_hits : int;
      cache_misses : int;
      repaired : int;
      tasks : int;
      stolen : int;
      bytes_in : int;
      bytes_out : int;
    }
  | Conn_stats of {
      requests : int;
      bytes_in : int;
      bytes_out : int;
      proto : int;
    }
  | Bye
  | Err of string

(* Shortest decimal form that parses back bit-identically: %.12g covers
   every weight arising from the short decimal inputs the tools emit,
   %.17g is exact for any double.  "inf"/"nan" round-trip through
   float_of_string as-is. *)
let float_to_string f =
  let s = Printf.sprintf "%.12g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let ( let* ) = Result.bind

let tokens line =
  String.split_on_char ' '
    (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun t -> t <> "")

let int_tok what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: bad integer %S" what s)

let float_tok what s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: bad number %S" what s)

let endpoint_tok what s =
  let bad () =
    Error (Printf.sprintf "%s: bad endpoint %S (want NODE:WEIGHT)" what s)
  in
  match String.index_opt s ':' with
  | None -> bad ()
  | Some i -> (
    let v = String.sub s 0 i
    and w = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt v, float_of_string_opt w) with
    | Some v, Some w -> Ok (v, w)
    | _ -> bad ())

let rec endpoints what = function
  | [] -> Ok []
  | t :: rest ->
    let* e = endpoint_tok what t in
    let* es = endpoints what rest in
    Ok (e :: es)

let rec split_dash what acc = function
  | [] ->
    Error
      (Printf.sprintf "%s: missing `--' separating out-links from in-links"
         what)
  | "--" :: rest -> Ok (List.rev acc, rest)
  | t :: rest -> split_dash what (t :: acc) rest

let links what rest =
  let* outs, inns = split_dash what [] rest in
  let* out = endpoints what outs in
  let* inn = endpoints what inns in
  Ok (out, inn)

let parse_request line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    let req =
      match tokens line with
      | [ "cost"; a; b ] ->
        let* node = int_tok "cost" a in
        let* cost = float_tok "cost" b in
        Ok (Cost_node { node; cost })
      | [ "cost"; a; b; c ] ->
        let* u = int_tok "cost" a in
        let* v = int_tok "cost" b in
        let* w = float_tok "cost" c in
        Ok (Cost_link { u; v; w })
      | "cost" :: _ -> Error "cost: want `cost NODE COST' or `cost U V W'"
      | "join" :: rest ->
        let* out, inn = links "join" rest in
        Ok (Join { out; inn })
      | "rejoin" :: k :: rest ->
        let* node = int_tok "rejoin" k in
        let* out, inn = links "rejoin" rest in
        Ok (Rejoin { node; out; inn })
      | [ "rejoin" ] -> Error "rejoin: want `rejoin NODE v:w ... -- u:w ...'"
      | [ "leave"; k ] ->
        let* node = int_tok "leave" k in
        Ok (Leave { node })
      | "leave" :: _ -> Error "leave: want `leave NODE'"
      | [ "pay" ] -> Ok Pay
      | [ "stats" ] -> Ok Stats
      | [ "proto"; p ] ->
        let* proto = int_tok "proto" p in
        Ok (Proto { proto })
      | "proto" :: _ -> Error "proto: want `proto N'"
      | [ "session"; k ] ->
        let* session = int_tok "session" k in
        Ok (Attach { session })
      | "session" :: _ -> Error "session: want `session N'"
      | [ "quit" ] | [ "exit" ] -> Ok Quit
      | t :: _ -> Error (Printf.sprintf "unknown request %S" t)
      | [] -> Error "empty request"
    in
    Result.map Option.some req

let endpoint_str (v, w) = Printf.sprintf "%d:%s" v (float_to_string w)

let print_request = function
  | Cost_node { node; cost } ->
    Printf.sprintf "cost %d %s" node (float_to_string cost)
  | Cost_link { u; v; w } ->
    Printf.sprintf "cost %d %d %s" u v (float_to_string w)
  | Join { out; inn } ->
    String.concat " "
      (("join" :: List.map endpoint_str out)
      @ ("--" :: List.map endpoint_str inn))
  | Rejoin { node; out; inn } ->
    String.concat " "
      (("rejoin" :: string_of_int node :: List.map endpoint_str out)
      @ ("--" :: List.map endpoint_str inn))
  | Leave { node } -> Printf.sprintf "leave %d" node
  | Pay -> "pay"
  | Stats -> "stats"
  | Proto { proto } -> Printf.sprintf "proto %d" proto
  | Attach { session } -> Printf.sprintf "session %d" session
  | Quit -> "quit"

let model_str = function `Node -> "node" | `Link -> "link"

let model_of_string = function
  | "node" -> Ok `Node
  | "link" -> Ok `Link
  | s -> Error (Printf.sprintf "bad model %S" s)

let print_response = function
  | Ready { proto; model; n; root; domains } ->
    Printf.sprintf "ready proto=%d model=%s n=%d root=%d domains=%d" proto
      (model_str model) n root domains
  | Ack { version; node = None } -> Printf.sprintf "ok version=%d" version
  | Ack { version; node = Some id } ->
    Printf.sprintf "ok node=%d version=%d" id version
  | Served { src; path; charge } ->
    Printf.sprintf "src %d: path %s, charge %s" src
      (String.concat " -> " (List.map string_of_int path))
      (float_to_string charge)
  | Paid { served; unbounded; total } ->
    Printf.sprintf "ok served=%d unbounded=%d total=%s" served unbounded
      (float_to_string total)
  | Session_stats st ->
    (* Printed from the layout table, so a counter added to
       [Wnet_session.stats_layout] appears here without touching the
       printer; byte-identical to the historical printf form. *)
    String.concat " "
      ("ok"
      :: List.map
           (fun (k, v) -> Printf.sprintf "%s=%d" k v)
           (Wnet_session.to_fields st))
  | Server_stats
      {
        clients;
        requests;
        edits;
        coalesced;
        cache_hits;
        cache_misses;
        bytes_in;
        bytes_out;
      } ->
    Printf.sprintf
      "server clients=%d requests=%d edits=%d coalesced=%d cache_hits=%d \
       cache_misses=%d bytes_in=%d bytes_out=%d"
      clients requests edits coalesced cache_hits cache_misses bytes_in
      bytes_out
  | Shard_stats
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
      } ->
    Printf.sprintf
      "shard id=%d conns=%d requests=%d edits=%d coalesced=%d \
       inval_passes=%d cache_hits=%d cache_misses=%d repaired=%d tasks=%d \
       stolen=%d bytes_in=%d bytes_out=%d"
      shard conns requests edits coalesced inval_passes cache_hits
      cache_misses repaired tasks stolen bytes_in bytes_out
  | Conn_stats { requests; bytes_in; bytes_out; proto } ->
    Printf.sprintf "conn requests=%d bytes_in=%d bytes_out=%d proto=%d"
      requests bytes_in bytes_out proto
  | Bye -> "bye"
  | Err "" -> "err"
  | Err m -> "err " ^ m

(* Split [s] at the first occurrence of substring [sep]. *)
let cut ~sep s =
  let n = String.length s and m = String.length sep in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sep then
      Some (String.sub s 0 i, String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

let kv key tok =
  match String.index_opt tok '=' with
  | Some i when String.sub tok 0 i = key ->
    Ok (String.sub tok (i + 1) (String.length tok - i - 1))
  | _ -> Error (Printf.sprintf "expected %s=..., got %S" key tok)

let int_kv key tok =
  let* v = kv key tok in
  int_tok key v

let parse_served line =
  let bad () = Error (Printf.sprintf "bad served line %S" line) in
  match cut ~sep:"src " line with
  | Some ("", rest) -> (
    match cut ~sep:": path " rest with
    | Some (src_s, rest) -> (
      match cut ~sep:", charge " rest with
      | Some (path_s, charge_s) -> (
        match (int_of_string_opt src_s, float_of_string_opt charge_s) with
        | Some src, Some charge -> (
          let hops = tokens path_s |> List.filter (fun t -> t <> "->") in
          let rec ints = function
            | [] -> Some []
            | t :: rest ->
              Option.bind (int_of_string_opt t) (fun i ->
                  Option.map (List.cons i) (ints rest))
          in
          match ints hops with
          | Some path -> Ok (Served { src; path; charge })
          | None -> bad ())
        | _ -> bad ())
      | None -> bad ())
    | None -> bad ())
  | _ -> bad ()

(* The session counters in wire order, straight from the layout table.
   Only the full line parses: the one peer is this repo's own client. *)
let session_counter_keys = Wnet_session.stats_field_names

let parse_session_stats line toks =
  if List.length toks <> Array.length session_counter_keys then
    Error (Printf.sprintf "bad stats line %S" line)
  else begin
    let rec go i acc = function
      | [] -> (
        match Wnet_session.of_fields (List.rev acc) with
        | Ok st -> Ok (Session_stats st)
        | Error m -> Error m)
      | t :: rest ->
        let* v = int_kv session_counter_keys.(i) t in
        go (i + 1) ((session_counter_keys.(i), v) :: acc) rest
    in
    go 0 [] toks
  end

let parse_response line =
  let line = String.trim line in
  match tokens line with
  | [ "ready"; p; m; n; r; d ] ->
    let* proto = int_kv "proto" p in
    let* m = kv "model" m in
    let* model = model_of_string m in
    let* n = int_kv "n" n in
    let* root = int_kv "root" r in
    let* domains = int_kv "domains" d in
    Ok (Ready { proto; model; n; root; domains })
  | [ "ok"; a ] ->
    let* version = int_kv "version" a in
    Ok (Ack { version; node = None })
  | [ "ok"; a; b ] when Result.is_ok (kv "node" a) ->
    let* id = int_kv "node" a in
    let* version = int_kv "version" b in
    Ok (Ack { version; node = Some id })
  | [ "ok"; a; b; c ] ->
    let* served = int_kv "served" a in
    let* unbounded = int_kv "unbounded" b in
    let* t = kv "total" c in
    let* total = float_tok "total" t in
    Ok (Paid { served; unbounded; total })
  | "ok" :: toks ->
    parse_session_stats line toks
  | [ "server"; a; b; c; d; e; f; g; h ] ->
    let* clients = int_kv "clients" a in
    let* requests = int_kv "requests" b in
    let* edits = int_kv "edits" c in
    let* coalesced = int_kv "coalesced" d in
    let* cache_hits = int_kv "cache_hits" e in
    let* cache_misses = int_kv "cache_misses" f in
    let* bytes_in = int_kv "bytes_in" g in
    let* bytes_out = int_kv "bytes_out" h in
    Ok
      (Server_stats
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
  | [ "shard"; a; b; c; d; e; f; g; h; i; j; k; l; m ] ->
    let* shard = int_kv "id" a in
    let* conns = int_kv "conns" b in
    let* requests = int_kv "requests" c in
    let* edits = int_kv "edits" d in
    let* coalesced = int_kv "coalesced" e in
    let* inval_passes = int_kv "inval_passes" f in
    let* cache_hits = int_kv "cache_hits" g in
    let* cache_misses = int_kv "cache_misses" h in
    let* repaired = int_kv "repaired" i in
    let* tasks = int_kv "tasks" j in
    let* stolen = int_kv "stolen" k in
    let* bytes_in = int_kv "bytes_in" l in
    let* bytes_out = int_kv "bytes_out" m in
    Ok
      (Shard_stats
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
  | [ "conn"; a; b; c; p ] ->
    let* requests = int_kv "requests" a in
    let* bytes_in = int_kv "bytes_in" b in
    let* bytes_out = int_kv "bytes_out" c in
    let* proto = int_kv "proto" p in
    Ok (Conn_stats { requests; bytes_in; bytes_out; proto })
  | [ "bye" ] -> Ok Bye
  | [ "err" ] -> Ok (Err "")
  | "err" :: _ -> (
    match cut ~sep:"err " line with
    | Some ("", m) -> Ok (Err m)
    | _ -> Ok (Err ""))
  | "src" :: _ -> parse_served line
  | _ -> Error (Printf.sprintf "unknown response %S" line)

let greeting ?(proto = version) (module S : Wnet_session.S) =
  Ready
    { proto; model = S.model; n = S.n (); root = S.root;
      domains = S.domains }

let ack (a : Wnet_session.ack) = Ack { version = a.version; node = a.node }

let handle (module S : Wnet_session.S) req =
  try
    match req with
    | Cost_node { node; cost } ->
      [ ack (S.apply (Wnet_session.Set_node_cost { node; cost })) ]
    | Cost_link { u; v; w } ->
      [ ack (S.apply (Wnet_session.Set_link_cost { u; v; w })) ]
    | Join { out; inn } -> [ ack (S.apply (Wnet_session.Join { out; inn })) ]
    | Rejoin { node; out; inn } ->
      [ ack (S.apply (Wnet_session.Rejoin { node; out; inn })) ]
    | Leave { node } -> [ ack (S.apply (Wnet_session.Leave { node })) ]
    | Pay ->
      let p = S.pay () in
      List.map
        (fun (s : Wnet_session.served) ->
          Served { src = s.src; path = s.path; charge = s.charge })
        p.served
      @ [
          Paid
            {
              served = List.length p.served;
              unbounded = p.unbounded;
              total = p.total;
            };
        ]
    | Stats -> [ Session_stats (S.stats ()) ]
    | Proto _ ->
      (* Codec switching is transport-level; only framed front-ends
         (the socket server) can honour it. *)
      [ Err "proto: negotiation needs a socket transport" ]
    | Attach _ ->
      (* Session placement is a server concern; the stdin loop and the
         oracle replays host exactly one session. *)
      [ Err "session: attach needs a socket transport" ]
    | Quit -> [ Bye ]
  with
  | Failure m | Invalid_argument m -> [ Err m ]

let handle_line sess line =
  match parse_request line with
  | Ok None -> `Empty
  | Error m -> `Reply [ Err m ]
  | Ok (Some Quit) -> `Quit (handle sess Quit)
  | Ok (Some req) -> `Reply (handle sess req)
