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

(* ---------------- output sink ---------------- *)

(* One growable byte buffer both codecs append to and the transport
   drains.  Bytes in [off, len) are written and not yet consumed; growth
   copies [0, len) to the same offsets, so a position taken before an
   append (a binary frame's length slot) stays valid after it. *)
type sink = {
  mutable buf : Bytes.t;
  mutable off : int;
  mutable len : int;
}

let sink_create ?(cap = 512) () =
  { buf = Bytes.create (max cap 64); off = 0; len = 0 }

let sink_pending s = s.len - s.off

let sink_reset s =
  s.off <- 0;
  s.len <- 0

let sink_consume s n =
  if n < 0 || n > sink_pending s then
    invalid_arg "Wnet_proto.sink_consume: out of range";
  s.off <- s.off + n;
  if s.off = s.len then sink_reset s

let sink_ensure s extra =
  let need = s.len + extra in
  if need > Bytes.length s.buf then begin
    let cap = ref (Bytes.length s.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit s.buf 0 nb 0 s.len;
    s.buf <- nb
  end

let add_char s c =
  sink_ensure s 1;
  Bytes.unsafe_set s.buf s.len c;
  s.len <- s.len + 1

let add_string s str =
  let n = String.length str in
  sink_ensure s n;
  Bytes.unsafe_blit_string str 0 s.buf s.len n;
  s.len <- s.len + n

(* Decimal digits without a C call.  The digits are those of -|n|, which
   cannot overflow where |min_int| would, written last digit first. *)
let add_int s n =
  let v = if n < 0 then n else -n in
  let nd = ref 1 and t = ref (v / 10) in
  while !t <> 0 do
    incr nd;
    t := !t / 10
  done;
  let sign = if n < 0 then 1 else 0 in
  sink_ensure s (sign + !nd);
  if sign = 1 then Bytes.unsafe_set s.buf s.len '-';
  let v = ref v in
  for i = s.len + sign + !nd - 1 downto s.len + sign do
    Bytes.unsafe_set s.buf i (Char.unsafe_chr (48 - (!v mod 10)));
    v := !v / 10
  done;
  s.len <- s.len + sign + !nd

(* ---------------- exact float digits ---------------- *)

(* A float prints as %.12g when that reads back to the same bits, else
   as %.17g.  For a normal |f| in [1e-4, 1e12), f = m * 2^-q with m in
   [2^52, 2^53) and 13 <= q <= 66, so the p significant digits are
   m * 10^s / 2^q rounded half-even (glibc's rule), for s = p - 1 - x
   and x the decimal exponent.  m * 10^s < 2^126 is held exactly in five
   30-bit limbs; the round trip is decided by testing whether the
   12-digit decimal lies in m's rounding interval.  Everything else (0,
   inf and the cold tails) keeps the C routine. *)

external format_float : string -> float -> string = "caml_format_float"

let limb_bits = 30
let limb_mask = (1 lsl limb_bits) - 1
let pow10 = Array.init 19 (fun i -> int_of_string ("1" ^ String.make i '0'))

(* Per-domain limb scratch: shards format on several domains at once. *)
let limbs_key = Domain.DLS.new_key (fun () -> Array.make 5 0)

let mul_small a k =
  let c = ref 0 in
  for i = 0 to 4 do
    let t = (a.(i) * k) + !c in
    a.(i) <- t land limb_mask;
    c := t lsr limb_bits
  done

(* a <- x * 10^e, for x < 2^60 and x * 10^e < 2^150. *)
let scale a x e =
  a.(0) <- x land limb_mask;
  a.(1) <- x lsr limb_bits;
  a.(2) <- 0;
  a.(3) <- 0;
  a.(4) <- 0;
  let e = ref e in
  while !e >= 9 do
    mul_small a pow10.(9);
    e := !e - 9
  done;
  if !e > 0 then mul_small a pow10.(!e)

(* floor (a / 2^sh); the caller knows it fits an int. *)
let shift_right a sh =
  let j = sh / limb_bits and r = sh mod limb_bits in
  let acc = ref 0 in
  for i = 4 downto j + 1 do
    acc := (!acc lsl limb_bits) lor a.(i)
  done;
  (!acc lsl (limb_bits - r)) lor (a.(j) lsr r)

(* a mod 2^sh against 2^(sh - 1): 0 zero, 1 below, 2 equal, 3 above. *)
let remainder_class a sh =
  let k = sh - 1 in
  let j = k / limb_bits and r = k mod limb_bits in
  let rest = ref (a.(j) land ((1 lsl r) - 1) <> 0) in
  for i = 0 to j - 1 do
    if a.(i) <> 0 then rest := true
  done;
  if (a.(j) lsr r) land 1 = 1 then if !rest then 3 else 2
  else if !rest then 1
  else 0

(* floor (log10 (m * 2^-q)): the binary exponent gives it to within
   one, and the 17-digit scaling tells which. *)
let decimal_exponent a m q =
  let x = ((52 - q) * 78913) asr 18 in
  scale a m (16 - x);
  if shift_right a q >= pow10.(17) then x + 1 else x

(* m * 2^-q * 10^(p - 1 - x) rounded half-even: p digits, or 10^p
   when the rounding carries into a new power of ten. *)
let round_digits a m q p x =
  scale a m (p - 1 - x);
  let t = shift_right a q in
  match remainder_class a q with
  | 3 -> t + 1
  | 2 -> t + (t land 1)
  | _ -> t

(* Does n * 10^-e read back as m * 2^-q?  strtod rounds to nearest,
   ties to even, so n * 10^-e must lie within half an ulp of it (a
   quarter ulp below, at the bottom of a binade), ends included when m
   is even. *)
let reads_back a m q n e =
  let even = m land 1 = 0 in
  scale a ((2 * m) + 1) e;
  let hi = shift_right a (q + 1) in
  (n < hi || (n = hi && (even || remainder_class a (q + 1) <> 0)))
  &&
  let x, sh =
    if m = 1 lsl 52 then ((4 * m) - 1, q + 2) else ((2 * m) - 1, q + 1)
  in
  scale a x e;
  let lo = shift_right a sh in
  if even then n >= lo + if remainder_class a sh <> 0 then 1 else 0
  else n > lo

(* The [nd] digits of [n], with a '.' after the first [point] of them
   when [point < nd]. *)
let add_digits s n nd point =
  let width = if point < nd then nd + 1 else nd in
  sink_ensure s width;
  let n = ref n in
  for i = nd - 1 downto 0 do
    Bytes.unsafe_set s.buf
      (s.len + i + if i >= point then 1 else 0)
      (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  if point < nd then Bytes.unsafe_set s.buf (s.len + point) '.';
  s.len <- s.len + width

(* %.{p}g of n * 10^(x - p + 1), n a p-digit integer: trailing zeros
   dropped, fixed notation for -4 <= x < p, else d.ddde+XX. *)
let add_general s ~neg n p x =
  let n = ref n and nd = ref p in
  while !nd > 1 && !n mod 10 = 0 do
    n := !n / 10;
    decr nd
  done;
  if neg then add_char s '-';
  if x < -4 || x >= p then begin
    add_digits s !n !nd 1;
    add_char s 'e';
    add_char s (if x < 0 then '-' else '+');
    if abs x < 10 then add_char s '0';
    add_int s (abs x)
  end
  else if x < 0 then begin
    add_string s "0.";
    for _ = 2 to -x do
      add_char s '0'
    done;
    add_digits s !n !nd !nd
  end
  else if !nd <= x + 1 then begin
    add_digits s !n !nd !nd;
    for _ = !nd to x do
      add_char s '0'
    done
  end
  else add_digits s !n !nd (x + 1)

(* [add_general] for a rounding that may have carried to 10^p. *)
let add_rounded s ~neg n p x =
  if n = pow10.(p) then add_general s ~neg pow10.(p - 1) p (x + 1)
  else add_general s ~neg n p x

let add_float s f =
  let a = Float.abs f in
  if a >= 1e-4 && a < 1e12 then begin
    let limbs = Domain.DLS.get limbs_key in
    let bits = Int64.to_int (Int64.bits_of_float a) in
    let m = bits land ((1 lsl 52) - 1) lor (1 lsl 52) in
    let q = 1075 - (bits lsr 52) in
    let x = decimal_exponent limbs m q in
    let n = round_digits limbs m q 12 x in
    let neg = f < 0.0 in
    if reads_back limbs m q n (11 - x) then add_rounded s ~neg n 12 x
    else add_rounded s ~neg (round_digits limbs m q 17 x) 17 x
  end
  else if a = 0.0 then add_string s (if Float.sign_bit f then "-0" else "0")
  else if a = infinity then add_string s (if f < 0.0 then "-inf" else "inf")
  else
    let s12 = format_float "%.12g" f in
    add_string s
      (if Float.equal (float_of_string s12) f then s12
       else format_float "%.17g" f)

let float_to_string f =
  let s = sink_create ~cap:32 () in
  add_float s f;
  Bytes.sub_string s.buf 0 s.len

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

(* ---------------- printing ---------------- *)

(* The one text printer: every line is appended to a sink, and the
   [print_*] functions are copies out of a scratch sink. *)

let add_endpoints s eps =
  List.iter
    (fun (v, w) ->
      add_char s ' ';
      add_int s v;
      add_char s ':';
      add_float s w)
    eps

let add_links s out inn =
  add_endpoints s out;
  add_string s " --";
  add_endpoints s inn

let add_request s = function
  | Cost_node { node; cost } ->
    add_string s "cost ";
    add_int s node;
    add_char s ' ';
    add_float s cost
  | Cost_link { u; v; w } ->
    add_string s "cost ";
    add_int s u;
    add_char s ' ';
    add_int s v;
    add_char s ' ';
    add_float s w
  | Join { out; inn } ->
    add_string s "join";
    add_links s out inn
  | Rejoin { node; out; inn } ->
    add_string s "rejoin ";
    add_int s node;
    add_links s out inn
  | Leave { node } ->
    add_string s "leave ";
    add_int s node
  | Pay -> add_string s "pay"
  | Stats -> add_string s "stats"
  | Proto { proto } ->
    add_string s "proto ";
    add_int s proto
  | Attach { session } ->
    add_string s "session ";
    add_int s session
  | Quit -> add_string s "quit"

(* The constant lines skip the scratch sink. *)
let print_request = function
  | Pay -> "pay"
  | Stats -> "stats"
  | Quit -> "quit"
  | r ->
    let s = sink_create ~cap:64 () in
    add_request s r;
    Bytes.sub_string s.buf 0 s.len

let model_str = function `Node -> "node" | `Link -> "link"

let model_of_string = function
  | "node" -> Ok `Node
  | "link" -> Ok `Link
  | s -> Error (Printf.sprintf "bad model %S" s)

(* " key=v" *)
let add_kv s key v =
  add_char s ' ';
  add_string s key;
  add_char s '=';
  add_int s v

(* Plain recursion, not [List.iter]: a closure over [s] would allocate
   on every served line. *)
let rec add_hops s = function
  | [] -> ()
  | v :: rest ->
    add_string s " -> ";
    add_int s v;
    add_hops s rest

let write_response s r =
  (match r with
  | Ready { proto; model; n; root; domains } ->
    add_string s "ready";
    add_kv s "proto" proto;
    add_string s " model=";
    add_string s (model_str model);
    add_kv s "n" n;
    add_kv s "root" root;
    add_kv s "domains" domains
  | Ack { version; node } ->
    add_string s "ok";
    (match node with Some id -> add_kv s "node" id | None -> ());
    add_kv s "version" version
  | Served { src; path; charge } ->
    add_string s "src ";
    add_int s src;
    add_string s ": path ";
    (match path with
    | [] -> ()
    | v :: rest ->
      add_int s v;
      add_hops s rest);
    add_string s ", charge ";
    add_float s charge
  | Paid { served; unbounded; total } ->
    add_string s "ok";
    add_kv s "served" served;
    add_kv s "unbounded" unbounded;
    add_string s " total=";
    add_float s total
  | Session_stats st ->
    (* Printed from the layout table, so a counter added to
       [Wnet_session.stats_layout] appears here without touching the
       printer. *)
    add_string s "ok";
    List.iter (fun (k, v) -> add_kv s k v) (Wnet_session.to_fields st)
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
    add_string s "server";
    add_kv s "clients" clients;
    add_kv s "requests" requests;
    add_kv s "edits" edits;
    add_kv s "coalesced" coalesced;
    add_kv s "cache_hits" cache_hits;
    add_kv s "cache_misses" cache_misses;
    add_kv s "bytes_in" bytes_in;
    add_kv s "bytes_out" bytes_out
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
    add_string s "shard";
    add_kv s "id" shard;
    add_kv s "conns" conns;
    add_kv s "requests" requests;
    add_kv s "edits" edits;
    add_kv s "coalesced" coalesced;
    add_kv s "inval_passes" inval_passes;
    add_kv s "cache_hits" cache_hits;
    add_kv s "cache_misses" cache_misses;
    add_kv s "repaired" repaired;
    add_kv s "tasks" tasks;
    add_kv s "stolen" stolen;
    add_kv s "bytes_in" bytes_in;
    add_kv s "bytes_out" bytes_out
  | Conn_stats { requests; bytes_in; bytes_out; proto } ->
    add_string s "conn";
    add_kv s "requests" requests;
    add_kv s "bytes_in" bytes_in;
    add_kv s "bytes_out" bytes_out;
    add_kv s "proto" proto
  | Bye -> add_string s "bye"
  | Err "" -> add_string s "err"
  | Err m ->
    add_string s "err ";
    add_string s m);
  add_char s '\n'

let print_response r =
  let s = sink_create ~cap:64 () in
  write_response s r;
  Bytes.sub_string s.buf 0 (s.len - 1)

(* ---------------- response parsing ---------------- *)

let rec occurs_at s sep i k =
  k = String.length sep || (s.[i + k] = sep.[k] && occurs_at s sep i (k + 1))

(* First index >= [i] where [sep] occurs in [s], or -1. *)
let rec find_sub s sep i =
  if i + String.length sep > String.length s then -1
  else if occurs_at s sep i 0 then i
  else find_sub s sep (i + 1)

let kv key tok =
  match String.index_opt tok '=' with
  | Some i when String.sub tok 0 i = key ->
    Ok (String.sub tok (i + 1) (String.length tok - i - 1))
  | _ -> Error (Printf.sprintf "expected %s=..., got %S" key tok)

let int_kv key tok =
  let* v = kv key tok in
  int_tok key v

exception Bad_served

(* The value of the decimal digits s.[k, j), or -1 if another byte
   occurs. *)
let rec decimal s k j acc =
  if k = j then acc
  else
    match s.[k] with
    | '0' .. '9' as c -> decimal s (k + 1) j ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* [int_of_string] of s.[i, j), reading plain decimals in place and
   copying out only the rarer forms it also accepts (0x.., 1_000, +5). *)
let int_in s i j =
  let d = if i < j && s.[i] = '-' then i + 1 else i in
  let v = if d < j && j - d <= 18 then decimal s d j 0 else -1 in
  if v >= 0 then if d > i then -v else v
  else
    match int_of_string_opt (String.sub s i (j - i)) with
    | Some v -> v
    | None -> raise Bad_served

(* The path's hops in s.[i, j): integers separated by spaces, tabs and
   "->" tokens. *)
let rec hops s i j =
  if i >= j then []
  else if s.[i] = ' ' || s.[i] = '\t' then hops s (i + 1) j
  else
    let k = ref i in
    while !k < j && s.[!k] <> ' ' && s.[!k] <> '\t' do
      incr k
    done;
    let k = !k in
    if k - i = 2 && s.[i] = '-' && s.[i + 1] = '>' then hops s k j
    else
      let v = int_in s i k in
      v :: hops s k j

(* "src N: path a -> b -> 0, charge X", scanned in place: the first
   ": path " after "src " ends N, and the first ", charge " after it
   ends the path. *)
let served_exn line =
  if not (String.starts_with ~prefix:"src " line) then raise Bad_served;
  let p = find_sub line ": path " 4 in
  if p < 0 then raise Bad_served;
  let c = find_sub line ", charge " (p + 7) in
  if c < 0 then raise Bad_served;
  let n = String.length line in
  match float_of_string_opt (String.sub line (c + 9) (n - c - 9)) with
  | None -> raise Bad_served
  | Some charge ->
    let src = int_in line 4 p in
    Served { src; path = hops line (p + 7) c; charge }

let parse_served line =
  try Ok (served_exn line)
  with Bad_served -> Error (Printf.sprintf "bad served line %S" line)

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

(* Served lines skip the tokenizer: their first token is "src". *)
let is_served line =
  let n = String.length line in
  n >= 3
  && line.[0] = 's' && line.[1] = 'r' && line.[2] = 'c'
  && (n = 3 || line.[3] = ' ' || line.[3] = '\t')

let parse_unserved line =
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
  | "err" :: _ ->
    if String.starts_with ~prefix:"err " line then
      Ok (Err (String.sub line 4 (String.length line - 4)))
    else Ok (Err "")
  | _ -> Error (Printf.sprintf "unknown response %S" line)

let parse_response line =
  let line = String.trim line in
  if is_served line then parse_served line else parse_unserved line

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
