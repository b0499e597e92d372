(* Flat-arena synchronous engine.

   A round is two phases.  The *step* phase runs every node with a
   non-empty inbox as one Wnet_par stolen task; each task reads the
   frozen round-start arena through a per-node reusable view and writes
   only node-indexed slots (the node's state and its output buffer), so
   the phase is deterministic at any pool size.  The *delivery* phase is
   sequential: a counting sort over the stepped nodes in ascending
   order lands every message into the other arena at its canonical
   (sender, seq) position and maintains the next round's active list —
   which doubles as the live non-empty-inbox counter, so quiescence is
   a length check, not an O(n) scan.

   The two arenas are double-buffered: the one being consumed is never
   the one being filled, and both keep their backing arrays across
   rounds (growable, seeded by the first message pushed), so the steady
   state allocates nothing beyond the protocol's own messages. *)

type 'msg inbox = {
  mutable ib_senders : int array;
  mutable ib_payloads : 'msg array;
  mutable ib_off : int;
  mutable ib_cnt : int;
}

let inbox_length ib = ib.ib_cnt
let inbox_is_empty ib = ib.ib_cnt = 0

let inbox_sender ib i =
  if i < 0 || i >= ib.ib_cnt then invalid_arg "Engine.inbox_sender";
  ib.ib_senders.(ib.ib_off + i)

let inbox_payload ib i =
  if i < 0 || i >= ib.ib_cnt then invalid_arg "Engine.inbox_payload";
  ib.ib_payloads.(ib.ib_off + i)

let inbox_iter ib f =
  for i = 0 to ib.ib_cnt - 1 do
    f ib.ib_senders.(ib.ib_off + i) ib.ib_payloads.(ib.ib_off + i)
  done

let make_inbox () =
  { ib_senders = [||]; ib_payloads = [||]; ib_off = 0; ib_cnt = 0 }

let fill_inbox ib ~senders ~payloads ~off ~cnt =
  ib.ib_senders <- senders;
  ib.ib_payloads <- payloads;
  ib.ib_off <- off;
  ib.ib_cnt <- cnt

type 'msg outbox = {
  emit_broadcast : 'msg -> unit;
  emit_direct : int -> 'msg -> unit;
}

let broadcast ob m = ob.emit_broadcast m
let direct ob ~target m = ob.emit_direct target m

let make_outbox ~on_broadcast ~on_direct =
  { emit_broadcast = on_broadcast; emit_direct = on_direct }

type ('state, 'msg) spec = {
  init : int -> 'state;
  step :
    node:int ->
    round:int ->
    event:int ->
    inbox:'msg inbox ->
    outbox:'msg outbox ->
    'state ->
    'state;
}

type stats = {
  rounds : int;
  broadcasts : int;
  directs : int;
  deliveries : int;
  converged : bool;
  tasks_executed : int;
  tasks_stolen : int;
}

(* Per-node output buffer: kind = -1 for a broadcast, the target node
   for a direct.  Owned by the node's step task; reset by delivery. *)
type 'msg outbuf = {
  mutable kinds : int array;
  mutable omsgs : 'msg array;
  mutable olen : int;
}

let push_out ob kind m =
  let cap = Array.length ob.kinds in
  if ob.olen = cap then begin
    let ncap = if cap = 0 then 4 else 2 * cap in
    let nk = Array.make ncap (-1) in
    Array.blit ob.kinds 0 nk 0 ob.olen;
    ob.kinds <- nk;
    let nm = Array.make ncap m in
    Array.blit ob.omsgs 0 nm 0 ob.olen;
    ob.omsgs <- nm
  end;
  ob.kinds.(ob.olen) <- kind;
  ob.omsgs.(ob.olen) <- m;
  ob.olen <- ob.olen + 1

(* One side of the double buffer: flat (sender, payload) arrays plus a
   per-node (offset, count) directory and the active list of nodes with
   a non-empty inbox. *)
type 'msg arena = {
  mutable senders : int array;
  mutable payloads : 'msg array;
  off : int array;
  cnt : int array;
  act : int array;
  mutable act_len : int;
  mutable len : int;
}

let make_arena n =
  {
    senders = [||];
    payloads = [||];
    off = Array.make n 0;
    cnt = Array.make n 0;
    act = Array.make n 0;
    act_len = 0;
    len = 0;
  }

let rec next_pow2 k c = if c >= k then c else next_pow2 k (c * 2)

(* In-place ascending sort of a.(0 .. len-1), allocation-free: the
   active list is rebuilt in first-delivery order every round and must
   be stepped in ascending node order for the canonical schedule. *)
let sort_prefix a len =
  let rec qsort lo hi =
    if hi - lo < 12 then
      for i = lo + 1 to hi do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let swap i j =
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      in
      if a.(mid) < a.(lo) then swap mid lo;
      if a.(hi) < a.(lo) then swap hi lo;
      if a.(hi) < a.(mid) then swap hi mid;
      let pivot = a.(mid) in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < pivot do
          incr i
        done;
        while a.(!j) > pivot do
          decr j
        done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      (* recurse on the smaller side first to bound the stack *)
      if !j - lo < hi - !i then begin
        qsort lo !j;
        qsort !i hi
      end
      else begin
        qsort !i hi;
        qsort lo !j
      end
    end
  in
  if len > 1 then qsort 0 (len - 1)

let run ?max_rounds ?(pool = Wnet_par.sequential) g spec =
  let n = Wnet_graph.Graph.n g in
  let max_rounds = Option.value max_rounds ~default:((4 * n) + 16) in
  let before = Wnet_par.stats pool in
  let states = Array.init n spec.init in
  let outs = Array.init n (fun _ -> { kinds = [||]; omsgs = [||]; olen = 0 }) in
  let outboxes =
    Array.init n (fun v ->
        {
          emit_broadcast = (fun m -> push_out outs.(v) (-1) m);
          emit_direct =
            (fun w m ->
              if not (Wnet_graph.Graph.mem_edge g v w) then
                invalid_arg "Engine: direct message to a non-neighbour";
              push_out outs.(v) w m);
        })
  in
  let views = Array.init n (fun _ -> make_inbox ()) in
  (* Flat adjacency for the broadcast fan-outs below — delivery is the
     engine's hottest loop, and the CSR rows iterate without bounds
     checks or a row-array load per neighbour. *)
  let { Wnet_graph.Graph.row_off; col } = Wnet_graph.Graph.csr g in
  let cur = ref (make_arena n) and nxt = ref (make_arena n) in
  let fill = Array.make n 0 in
  let broadcasts = ref 0 and directs = ref 0 and deliveries = ref 0 in
  (* Land the buffered outputs of [stepped] (ascending order) into [b]:
     first clear [b]'s previous-round directory, then one counting pass
     (which also rebuilds the active list and the message total), then
     offsets, then placement.  Walking the stepped nodes in ascending
     order twice is what canonicalises delivery by (sender, seq). *)
  let deliver b stepped slen =
    for i = 0 to b.act_len - 1 do
      b.cnt.(b.act.(i)) <- 0
    done;
    b.act_len <- 0;
    b.len <- 0;
    let bump w =
      if b.cnt.(w) = 0 then begin
        b.act.(b.act_len) <- w;
        b.act_len <- b.act_len + 1
      end;
      b.cnt.(w) <- b.cnt.(w) + 1;
      b.len <- b.len + 1
    in
    for i = 0 to slen - 1 do
      let v = stepped.(i) in
      let ob = outs.(v) in
      for k = 0 to ob.olen - 1 do
        let kind = ob.kinds.(k) in
        if kind < 0 then begin
          incr broadcasts;
          deliveries := !deliveries + (row_off.(v + 1) - row_off.(v));
          for j = row_off.(v) to row_off.(v + 1) - 1 do
            bump (Array.unsafe_get col j)
          done
        end
        else begin
          incr directs;
          incr deliveries;
          bump kind
        end
      done
    done;
    if b.len > 0 then begin
      let run_off = ref 0 in
      for i = 0 to b.act_len - 1 do
        let w = b.act.(i) in
        b.off.(w) <- !run_off;
        fill.(w) <- 0;
        run_off := !run_off + b.cnt.(w)
      done;
      if Array.length b.senders < b.len then
        b.senders <- Array.make (next_pow2 b.len 16) 0;
      if Array.length b.payloads < b.len then begin
        (* seed the polymorphic payload array with any pending message
           (b.len > 0 guarantees one exists); every cell below [b.len]
           is overwritten by placement *)
        let rec find_seed i =
          let ob = outs.(stepped.(i)) in
          if ob.olen > 0 then ob.omsgs.(0) else find_seed (i + 1)
        in
        b.payloads <- Array.make (next_pow2 b.len 16) (find_seed 0)
      end;
      for i = 0 to slen - 1 do
        let v = stepped.(i) in
        let ob = outs.(v) in
        for k = 0 to ob.olen - 1 do
          let kind = ob.kinds.(k) in
          let m = ob.omsgs.(k) in
          let place w =
            let pos = b.off.(w) + fill.(w) in
            fill.(w) <- fill.(w) + 1;
            b.senders.(pos) <- v;
            b.payloads.(pos) <- m
          in
          if kind < 0 then
            for j = row_off.(v) to row_off.(v + 1) - 1 do
              place (Array.unsafe_get col j)
            done
          else place kind
        done;
        ob.olen <- 0
      done
    end
    else
      for i = 0 to slen - 1 do
        outs.(stepped.(i)).olen <- 0
      done
  in
  let step_phase round stepped slen =
    Wnet_par.parallel_for pool ~lo:0 ~hi:slen (fun i ->
        let v = stepped.(i) in
        let a = !cur in
        let ib = views.(v) in
        ib.ib_senders <- a.senders;
        ib.ib_payloads <- a.payloads;
        ib.ib_off <- a.off.(v);
        ib.ib_cnt <- a.cnt.(v);
        states.(v) <-
          spec.step ~node:v ~round ~event:(-1) ~inbox:ib ~outbox:outboxes.(v)
            states.(v))
  in
  (* Round 0: everyone fires once with an empty inbox. *)
  let all = Array.init n (fun i -> i) in
  step_phase 0 all n;
  deliver !nxt all n;
  let rounds = ref 0 in
  while !nxt.act_len > 0 && !rounds < max_rounds do
    incr rounds;
    let t = !cur in
    cur := !nxt;
    nxt := t;
    let a = !cur in
    sort_prefix a.act a.act_len;
    step_phase !rounds a.act a.act_len;
    deliver !nxt a.act a.act_len
  done;
  let after = Wnet_par.stats pool in
  ( states,
    {
      rounds = !rounds;
      broadcasts = !broadcasts;
      directs = !directs;
      deliveries = !deliveries;
      converged = !nxt.act_len = 0;
      tasks_executed =
        after.Wnet_par.tasks_executed - before.Wnet_par.tasks_executed;
      tasks_stolen = after.Wnet_par.tasks_stolen - before.Wnet_par.tasks_stolen;
    } )
