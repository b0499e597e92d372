(** The versioned line protocol every session front-end speaks.

    One request per line, one or more single-line responses per request
    — the same grammar whether the session is driven over stdin
    ([unicast serve]), over a socket ([unicast listen] /
    {!Wnet_server}), or in-process (the tests' oracle replays).  Parsing
    and printing live here so no front-end ever re-implements them; the
    qcheck suite pins [parse ∘ print = id] on both directions.

    {2 Grammar (protocol version 1)}

    Requests (tokens separated by spaces; blank lines and [#] comments
    are ignored):
    {v
    cost K C                      re-declare node K's relay cost (node model)
    cost U V W                    re-declare link U -> V's cost (link model;
                                  W = inf removes the link)
    join  v:w ... -- u:w ...      a new node joins: out-links, --, in-links
    rejoin K v:w ... -- u:w ...   an isolated node returns under id K
    leave K                       node K departs (its id stays valid)
    pay                           all-to-root payments for the current topology
    stats                         work counters
    proto N                       switch this connection's wire codec
                                  (N = 2 selects {!Wnet_proto_bin} framing)
    session N                     attach this connection to server session N
                                  (socket server only; re-greets with the
                                  target session's ready banner)
    quit | exit                   close the session
    v}

    Responses (first token discriminates):
    {v
    ready proto=1 model=node n=12 root=0 domains=4
    ok version=5                  delta applied
    ok node=13 version=6          join applied, node id assigned
    src 3: path 3 -> 2 -> 0, charge 4.5        (one per served source)
    ok served=11 unbounded=1 total=33.25       (ends a pay reply)
    ok edits=4 coalesced=4 inval_passes=1 spt_runs=2 avoid_runs=5 avoid_reused=9 repaired=3 fallbacks=0 tasks=5 stolen=0 avoid_bounded=5 avoid_fallback=0
    server clients=2 requests=10 edits=4 coalesced=4 cache_hits=9 cache_misses=5 bytes_in=120 bytes_out=456
    shard id=0 conns=1 requests=5 edits=2 coalesced=2 inval_passes=1 cache_hits=4 cache_misses=2 repaired=0 tasks=8 stolen=0 bytes_in=60 bytes_out=228
    conn requests=3 bytes_in=40 bytes_out=152 proto=1
    bye
    err <reason>
    v}

    The session-stats [ok] line parses only with all twelve counters,
    and the [conn] line only with its [proto] token: the one peer is
    this repo's own [unicast client].

    A float prints as C's [%.12g] when that reads back to the identical
    bit pattern, and as [%.17g] otherwise ([inf] for infinity).  That is
    not the shortest round-tripping form: a value whose shortest form
    has 13 to 16 digits prints 17.  Either way replies round-trip
    exactly — the socket integration test compares charges received as
    text against an in-process oracle with [Float.equal].

    {2 Printing into a sink}

    Every line is printed by one writer that appends bytes to a growable
    {!sink}; the binary codec ({!Wnet_proto_bin}) appends its frames to
    the same type, so a connection keeps one output buffer for both
    codecs.  Integers are printed by a digit loop, and floats in
    [1e-4 <= |x| < 1e12] by exact integer arithmetic on the bits, so
    neither calls C's [printf]; once the sink has grown to its working
    size, writing an ack, a [src] line or a whole pay reply allocates
    nothing. *)

val version : int
(** Protocol version, announced in the [ready] banner.  Bump on any
    grammar change. *)

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
      (** [session N] — move this connection onto server session [N]
          (a sharded server migrates the connection to the owning
          shard).  Transport-level, like {!Proto}. *)
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
      (** One per-shard breakdown row of a sharded server's [stats]
          reply; only emitted when the server runs more than one
          shard, so single-shard transcripts stay byte-identical to
          the pre-shard wire format. *)
  | Conn_stats of {
      requests : int;
      bytes_in : int;
      bytes_out : int;
      proto : int;  (** wire codec the connection currently speaks *)
    }
  | Bye
  | Err of string

(** {2 Output sink} *)

type sink = {
  mutable buf : Bytes.t;
  mutable off : int;  (** first byte not yet consumed *)
  mutable len : int;  (** end of the written bytes *)
}
(** A growable output buffer: bytes [[off, len)] of [buf] are written
    and not yet handed to the transport.  Writers append at [len] after
    {!sink_ensure}; growing keeps every byte at its offset, so a
    position taken before an append stays valid after it.  [buf] may be
    replaced by any append. *)

val sink_create : ?cap:int -> unit -> sink
val sink_pending : sink -> int
(** Bytes written and not yet consumed. *)

val sink_consume : sink -> int -> unit
(** Mark [n] leading pending bytes as written to the transport; a sink
    drained to empty restarts at offset 0.
    @raise Invalid_argument if [n] exceeds {!sink_pending}. *)

val sink_reset : sink -> unit
(** Drop all pending bytes (keeps the buffer). *)

val sink_ensure : sink -> int -> unit
(** [sink_ensure s k] makes room for [k] more bytes at [s.len]. *)

val write_response : sink -> response -> unit
(** Append the response's wire line and its ['\n']. *)

(** {2 Lines} *)

val float_to_string : float -> string
(** [%.12g] if that [float_of_string]s back to the identical value, else
    [%.17g]; ["inf"]/["-inf"]/["nan"] for the non-finite values. *)

val parse_request : string -> (request option, string) result
(** [Ok None] for blank lines and [#] comments; [Error reason] on a
    malformed or unknown request — the explicit error channel front-ends
    must answer with [err reason] instead of silently skipping. *)

val print_request : request -> string
(** Canonical wire form; [parse_request (print_request r) = Ok (Some r)]
    (floats compared with [Float.equal]). *)

val parse_response : string -> (response, string) result
val print_response : response -> string
(** Canonical wire form, {!write_response} without the ['\n'];
    [parse_response (print_response r) = Ok r]. *)

val parse_served : string -> (response, string) result
(** The [src N: path a -> ... -> 0, charge X] line, scanned in place
    ({!parse_response} calls it for lines whose first token is [src]). *)

val greeting : ?proto:int -> (module Wnet_session.S) -> response
(** The [ready] banner a front-end sends when a session opens.
    [?proto] (default {!version}) lets the socket server acknowledge a
    codec upgrade with a [ready proto=2 ...] banner. *)

val handle : (module Wnet_session.S) -> request -> response list
(** The generic serve step shared by the stdin loop and the socket
    server: apply the request to the session and produce the reply
    lines.  [Pay] yields one [Served] per source plus a closing [Paid];
    engine errors ([Failure], [Invalid_argument]) surface as [Err];
    [Quit] yields [Bye] (closing the transport is the caller's job). *)

val handle_line :
  (module Wnet_session.S) ->
  string ->
  [ `Empty | `Reply of response list | `Quit of response list ]
(** {!parse_request} + {!handle}: one input line to its reply lines,
    with [`Quit] telling the caller to close after sending. *)
