(* The spawned server's GC, read from its runtime_events ring.

   The server is started with OCAML_RUNTIME_EVENTS_START=1 and writes
   <dir>/<pid>.events; a cursor on that file sees every domain's GC
   phases without any change to the server.  Only events that arrive
   while [counting] is set are charged, so the cold start stays out. *)

module RE = Runtime_events

type t = {
  cursor : RE.cursor;
  mutable callbacks : RE.Callbacks.t;
  minors : int array;  (** EV_MINOR count per ring (one ring per domain) *)
  minor_start : int array;
  mutable pauses : int list;  (** EV_MINOR durations, ns *)
  mutable major_slices : int;
  mutable lost : int;
  mutable counting : bool;
}

let rings = 128

let attach ~dir ~pid =
  let rec open_cursor tries =
    match RE.create_cursor (Some (dir, pid)) with
    | c -> c
    | exception Failure _ when tries > 0 ->
      Unix.sleepf 0.002;
      open_cursor (tries - 1)
  in
  let cursor = open_cursor 2500 in
  let minors = Array.make rings 0 and minor_start = Array.make rings (-1) in
  let t =
    {
      cursor;
      callbacks = RE.Callbacks.create ();
      minors;
      minor_start;
      pauses = [];
      major_slices = 0;
      lost = 0;
      counting = false;
    }
  in
  let ts x = Int64.to_int (RE.Timestamp.to_int64 x) in
  t.callbacks <-
    RE.Callbacks.create
      ~runtime_begin:(fun ring time phase ->
        if t.counting && ring < rings then
          match phase with
          | RE.EV_MINOR ->
            minors.(ring) <- minors.(ring) + 1;
            minor_start.(ring) <- ts time
          | RE.EV_MAJOR_SLICE -> t.major_slices <- t.major_slices + 1
          | _ -> ())
      ~runtime_end:(fun ring time phase ->
        if t.counting && ring < rings && phase = RE.EV_MINOR && minor_start.(ring) >= 0
        then begin
          t.pauses <- (ts time - minor_start.(ring)) :: t.pauses;
          minor_start.(ring) <- -1
        end)
      ~lost_events:(fun _ n -> if t.counting then t.lost <- t.lost + n)
      ();
  t

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

let start t =
  poll t;
  t.counting <- true

let stop t =
  poll t;
  t.counting <- false;
  RE.free_cursor t.cursor

(* Every domain records each stop-the-world minor collection, so the
   collection count is the busiest ring's count, not the sum. *)
let minor_collections t = Array.fold_left max 0 t.minors
