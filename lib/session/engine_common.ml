(* Session-engine bookkeeping: the work-stealing fan-out with its
   scheduler counters, the region-size histogram, and relay-set
   extraction (also used by the node adapter's payment assembly). *)

type tasks = { mutable executed : int; mutable stolen : int }

let make_tasks () = { executed = 0; stolen = 0 }

(* Fan [f] out over the pool's work-stealing layer (one task per
   element, idle domains backfill) and fold the scheduler's counter
   deltas into [tasks].  Calls never overlap on a session's pool, so the
   before/after delta is exactly this call's tasks. *)
let steal_map pool tasks ~states f a =
  let before = Wnet_par.stats pool in
  let r = Wnet_par.map_array_stealing_pooled pool ~states f a in
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
