(* Session-engine bookkeeping: the work-stealing fan-out with its
   scheduler counters, the region-size histogram, relay-set extraction,
   and the sparse payment assembly both models share. *)

type tasks = { mutable executed : int; mutable stolen : int }

let make_tasks () = { executed = 0; stolen = 0 }

(* Fan [f] out over the pool (one task per element, idle domains
   backfill) and fold the scheduler's counter deltas into [tasks].
   Calls never overlap on a session's pool, so the before/after delta is
   exactly this call's tasks. *)
let steal_map pool tasks ~states f a =
  let before = Wnet_par.stats pool in
  let r = Wnet_par.map_array_pooled pool ~states f a in
  let after = Wnet_par.stats pool in
  tasks.executed <-
    tasks.executed + after.Wnet_par.tasks_executed
    - before.Wnet_par.tasks_executed;
  tasks.stolen <-
    tasks.stolen + after.Wnet_par.tasks_stolen - before.Wnet_par.tasks_stolen;
  r

(* Region-size histogram: bucket 0 holds empty regions, bucket [i >= 1]
   holds sizes in [2^(i-1), 2^i). *)
let hist_buckets = 24

let hist_bucket r =
  if r <= 0 then 0
  else begin
    let b = ref 1 and x = ref r in
    while !x > 1 do
      incr b;
      x := !x lsr 1
    done;
    min !b (hist_buckets - 1)
  end

let make_hist () = Array.make hist_buckets 0

let record_region hist r =
  let b = hist_bucket r in
  hist.(b) <- hist.(b) + 1

let region_histogram hist =
  let out = ref [] in
  for b = hist_buckets - 1 downto 0 do
    if hist.(b) > 0 then
      let lo = if b = 0 then 0 else 1 lsl (b - 1) in
      out := (lo, hist.(b)) :: !out
  done;
  !out

(* The indices set in [flags], ascending. *)
let relay_array flags =
  let l = ref [] in
  for k = Array.length flags - 1 downto 0 do
    if flags.(k) then l := k :: !l
  done;
  Array.of_list !l

(* The sparse payment batch of a from-root shortest-path [tree], built
   relay by relay rather than source by source.  The relays on a
   source's path are its strict ancestors below [root], and the sources
   that route through relay [k] are exactly its strict descendants — a
   contiguous range of the tree's preorder.  So one pass over the relays
   in ascending id order, each appending to every source of its subtree,
   leaves every source's relays already in ascending order, reads each
   relay's avoidance array [avoid k] within that one array, and looks
   up the relay's own base term [base k] once instead of once per
   source.

   Source [src] pays relay [k] [base k +. (d -. dist src)] in the link
   model (base = the used link's weight) and [(base k +. d) -. dist src]
   in the node model (base = the relay's cost, [~node:true]), with
   [d = (avoid k).(src)] — the exact float association each model's
   oracle uses.  Returns per-source relays and payments (empty arrays
   for the root and unreachable nodes) and the relays paid [infinity]
   somewhere. *)
let assemble (tree : Wnet_graph.Dijkstra.tree) ~root ~avoid ~base ~node =
  let parent = tree.Wnet_graph.Dijkstra.parent
  and dist = tree.Wnet_graph.Dijkstra.dist in
  let n = Array.length parent in
  (* child lists as flat first-child / next-sibling links, so no
     per-node array is allocated *)
  let first_child = Array.make n (-1) and next_sib = Array.make n (-1) in
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if p >= 0 then begin
      next_sib.(v) <- first_child.(p);
      first_child.(p) <- v
    end
  done;
  (* Preorder from the root; [v]'s subtree is the [size.(v)] entries of
     [order] from [pre.(v)] on, and [depth] counts hops to the root. *)
  let order = Array.make n 0 and pre = Array.make n 0 in
  let size = Array.make n 1 and depth = Array.make n 0 in
  let stack = Array.make (n + 1) root and top = ref 1 and len = ref 0 in
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    pre.(v) <- !len;
    order.(!len) <- v;
    incr len;
    if v <> root then depth.(v) <- depth.(parent.(v)) + 1;
    let c = ref first_child.(v) in
    while !c >= 0 do
      stack.(!top) <- !c;
      incr top;
      c := next_sib.(!c)
    done
  done;
  for i = !len - 1 downto 1 do
    let v = order.(i) in
    size.(parent.(v)) <- size.(parent.(v)) + size.(v)
  done;
  let relays = Array.init n (fun v -> Array.make (max 0 (depth.(v) - 1)) 0) in
  let pays = Array.map (fun r -> Array.make (Array.length r) 0.0) relays in
  let fill = Array.make n 0 and cut = Array.make n false in
  for k = 0 to n - 1 do
    if k <> root && first_child.(k) >= 0 then begin
      let av = avoid k and b = base k in
      for i = pre.(k) + 1 to pre.(k) + size.(k) - 1 do
        let src = order.(i) in
        let d = av.(src) in
        let j = fill.(src) in
        relays.(src).(j) <- k;
        pays.(src).(j) <-
          (if node then b +. d -. dist.(src) else b +. (d -. dist.(src)));
        fill.(src) <- j + 1;
        if d = infinity then cut.(k) <- true
      done
    end
  done;
  (relays, pays, cut)
