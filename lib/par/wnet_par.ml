(* A fixed-size domain pool with one work-stealing scheduler.

   Every combinator runs an index range as one task per index.  Each
   participant owns a bounded Chase–Lev deque: the owner pushes and pops
   at the bottom (LIFO, so nested tasks run close to their data),
   thieves CAS the top.  A full deque never blocks — the owner just runs
   the task inline.  A top-level call posts one job on which every
   participant seeds its deque with a static chunk, so the uniform case
   keeps chunked locality and stealing only redistributes the stragglers
   (one huge avoidance repair, one long Yen spur round).  A call made
   from inside a running task pushes its tasks onto the calling
   participant's own deque and helps until they are done.  Results land
   by index, so only the *execution* order is scheduling-dependent.

   Posting a job is a single mutex plus two condition variables: the
   generation counter tells workers a new job is posted; the pending
   counter tells the caller every worker has finished.  A task's
   exception is caught in the task; the first one is re-raised in the
   caller once every task has run (workers never die on a job
   failure). *)

module Deque = struct
  (* Bounded Chase–Lev deque.  Every shared word is an [Atomic.t], so
     the usual C11 fence placement collapses onto OCaml's sequentially
     consistent atomics; [top] is monotone, which rules out ABA.  A cell
     can only be recycled by a [push] after [top] has moved past it, and
     any thief still looking at the old value then fails its CAS, so a
     stale read is never returned. *)
  type 'a t = {
    mask : int;
    cells : 'a option Atomic.t array;
    top : int Atomic.t;  (* thieves' end *)
    bottom : int Atomic.t;  (* owner's end *)
  }

  let create capacity =
    assert (capacity > 0 && capacity land (capacity - 1) = 0);
    {
      mask = capacity - 1;
      cells = Array.init capacity (fun _ -> Atomic.make None);
      top = Atomic.make 0;
      bottom = Atomic.make 0;
    }

  (* Owner only.  [false] means full: the caller must run [x] inline
     (never spin — the deque may only drain through this same thread). *)
  let push q x =
    let b = Atomic.get q.bottom in
    let t = Atomic.get q.top in
    if b - t > q.mask then false
    else begin
      Atomic.set q.cells.(b land q.mask) (Some x);
      Atomic.set q.bottom (b + 1);
      true
    end

  (* Owner only.  Takes the most recently pushed task.  Publishing the
     decremented [bottom] *before* reading [top] is what makes the
     two-or-more case safe without a CAS: a thief that could reach this
     cell must have read [bottom] after we wrote it, and then fails its
     own range check. *)
  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if t < b then begin
      let cell = q.cells.(b land q.mask) in
      let x = Atomic.get cell in
      Atomic.set cell None;
      x
    end
    else if t = b then begin
      (* last element: race any thief for it via the CAS on [top] *)
      let x = Atomic.get q.cells.(b land q.mask) in
      let won = Atomic.compare_and_set q.top t (t + 1) in
      Atomic.set q.bottom (t + 1);
      if won then x else None
    end
    else begin
      Atomic.set q.bottom (b + 1);
      None
    end

  (* Any domain.  A lost CAS (another thief, or the owner taking the
     last element) is reported as [None]; callers just move on. *)
  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if t >= b then None
    else begin
      let x = Atomic.get q.cells.(t land q.mask) in
      if Atomic.compare_and_set q.top t (t + 1) then x else None
    end
end

let deque_capacity = 4096

(* OCaml 5.1 runs at most 128 domains at once. *)
let max_domains = 128

type t = {
  size : int;
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable job : (int -> unit) option;
  mutable pending : int;
  mutable failure : exn option;
  mutable stop : bool;
  mutable domains : unit Domain.t array;
  deques : (int -> unit) Deque.t array;
      (* one per participant; thunks take the *executing* slot so a
         stolen task still picks up the thief's scratch state *)
  exec_count : int Atomic.t;
  steal_count : int Atomic.t;
}

let size t = t.size

let default_domains () =
  match Sys.getenv_opt "WNET_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some k when k >= 1 -> min k max_domains
     | _ -> invalid_arg "WNET_DOMAINS must be a positive integer")
  | None -> max 1 (min max_domains (Domain.recommended_domain_count ()))

let make ~size =
  {
    size;
    lock = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    generation = 0;
    job = None;
    pending = 0;
    failure = None;
    stop = false;
    domains = [||];
    deques =
      (if size > 1 then Array.init size (fun _ -> Deque.create deque_capacity)
       else [||]);
    exec_count = Atomic.make 0;
    steal_count = Atomic.make 0;
  }

let sequential = make ~size:1

let record_failure pool e =
  Mutex.lock pool.lock;
  if pool.failure = None then pool.failure <- Some e;
  Mutex.unlock pool.lock

let worker pool slot =
  let seen = ref 0 in
  Mutex.lock pool.lock;
  let rec loop () =
    if pool.stop then Mutex.unlock pool.lock
    else if pool.generation = !seen then begin
      Condition.wait pool.work_ready pool.lock;
      loop ()
    end
    else begin
      seen := pool.generation;
      let job = pool.job in
      Mutex.unlock pool.lock;
      (match job with
      | None -> ()
      | Some f -> ( try f slot with e -> record_failure pool e));
      Mutex.lock pool.lock;
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.broadcast pool.work_done;
      loop ()
    end
  in
  loop ()

let shutdown pool =
  if Array.length pool.domains > 0 then begin
    Mutex.lock pool.lock;
    pool.stop <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.domains;
    pool.domains <- [||]
  end

let create ?domains () =
  let size =
    match domains with
    | None -> default_domains ()
    | Some k when k >= 1 && k <= max_domains -> k
    | Some _ -> invalid_arg "Wnet_par.create: domains must be in [1, 128]"
  in
  let pool = make ~size in
  let spawned = ref [] in
  (try
     for slot = 1 to size - 1 do
       spawned := Domain.spawn (fun () -> worker pool slot) :: !spawned
     done
   with e ->
     (* other domains may hold part of the limit: stop the workers this
        pool already started before giving up *)
     let bt = Printexc.get_raw_backtrace () in
     pool.domains <- Array.of_list !spawned;
     shutdown pool;
     Printexc.raise_with_backtrace e bt);
  pool.domains <- Array.of_list !spawned;
  pool

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Runs [f slot] on every participant and waits for all of them; the
   caller takes slot 0.  Only [run] posts jobs. *)
let run_job pool f =
  if pool.stop then invalid_arg "Wnet_par: pool is shut down";
  Mutex.lock pool.lock;
  pool.job <- Some f;
  pool.failure <- None;
  pool.pending <- pool.size - 1;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  (try f 0 with e -> record_failure pool e);
  Mutex.lock pool.lock;
  while pool.pending > 0 do
    Condition.wait pool.work_done pool.lock
  done;
  pool.job <- None;
  let failure = pool.failure in
  pool.failure <- None;
  Mutex.unlock pool.lock;
  match failure with Some e -> raise e | None -> ()

(* Chunk [i] of [parts] over [lo, hi): contiguous, sizes differing by at
   most one, earlier chunks taking the remainder. *)
let chunk ~lo ~hi parts i =
  let len = hi - lo in
  let base = len / parts and rem = len mod parts in
  let start = lo + (i * base) + min i rem in
  let stop = start + base + if i < rem then 1 else 0 in
  (start, stop)

type stats = { tasks_executed : int; tasks_stolen : int }

let stats pool =
  {
    tasks_executed = Atomic.get pool.exec_count;
    tasks_stolen = Atomic.get pool.steal_count;
  }

(* Which (pool, slot) is this domain currently a participant of?  Set
   for the duration of a job; a call that finds it set is nested. *)
let tl_slot : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let slot_of pool =
  match Domain.DLS.get tl_slot with
  | Some (p, s) when p == pool -> Some s
  | _ -> None

let run_thunk pool ~stolen slot th =
  Atomic.incr pool.exec_count;
  if stolen then Atomic.incr pool.steal_count;
  th slot

(* Round-robin over the other participants' deques. *)
let try_steal pool slot =
  let n = pool.size in
  let rec go k =
    if k = n then None
    else
      match Deque.steal pool.deques.((slot + k) mod n) with
      | Some _ as r -> r
      | None -> go (k + 1)
  in
  go 1

(* Out-of-work wait policy: spin briefly (a steal usually lands within
   microseconds on a genuinely parallel box), then sleep in short
   slices.  Pure [cpu_relax] spinning is catastrophic when domains
   outnumber cores — most visibly on one core, where an idle domain
   burns its whole scheduler quantum while the domain actually holding
   the work waits for the CPU; a 20 µs nanosleep hands the core over
   instead, for at most a few tens of µs of added fan-in latency. *)
let idle_backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 20e-6

(* One scheduling step for a participant that is out of local work:
   pop own deque, else steal, else yield the core.  Returns [false]
   when nothing ran. *)
let help_once pool slot =
  match Deque.pop pool.deques.(slot) with
  | Some th ->
    run_thunk pool ~stolen:false slot th;
    true
  | None -> (
    match try_steal pool slot with
    | Some th ->
      run_thunk pool ~stolen:true slot th;
      true
    | None -> false)

(* The scheduler: [body slot i] for every [i] in [lo, hi), one task per
   index, where [slot] is the participant executing the task.  Every
   task records the first failure and always counts itself done, so an
   exception can never leave a participant waiting. *)
let run pool ~lo ~hi body =
  if hi > lo then
    if pool.size = 1 then begin
      for i = lo to hi - 1 do
        body 0 i
      done;
      ignore (Atomic.fetch_and_add pool.exec_count (hi - lo))
    end
    else begin
      let remaining = Atomic.make (hi - lo) in
      let fail = Atomic.make None in
      (* Queue [clo, chi) on [slot]'s deque in reverse, so the owner's
         own pops run in ascending order, then help until the whole call
         is done. *)
      let seed_and_help slot ~clo ~chi =
        let dq = pool.deques.(slot) in
        for i = chi - 1 downto clo do
          let th slot' =
            (try body slot' i
             with e -> ignore (Atomic.compare_and_set fail None (Some e)));
            Atomic.decr remaining
          in
          if not (Deque.push dq th) then run_thunk pool ~stolen:false slot th
        done;
        let spins = ref 0 in
        while Atomic.get remaining > 0 do
          if help_once pool slot then spins := 0
          else begin
            idle_backoff !spins;
            incr spins
          end
        done
      in
      (match slot_of pool with
      | Some s -> seed_and_help s ~clo:lo ~chi:hi
      | None ->
        run_job pool (fun slot ->
            let saved = Domain.DLS.get tl_slot in
            Domain.DLS.set tl_slot (Some (pool, slot));
            let clo, chi = chunk ~lo ~hi pool.size slot in
            Fun.protect
              ~finally:(fun () -> Domain.DLS.set tl_slot saved)
              (fun () -> seed_and_help slot ~clo ~chi)));
      match Atomic.get fail with Some e -> raise e | None -> ()
    end

let parallel_for pool ~lo ~hi body = run pool ~lo ~hi (fun _ i -> body i)

(* Element 0 seeds the result array, so no cell is ever uninitialised;
   the caller computes it on its own participant's state. *)
let map_array_pooled pool ~states f a =
  if Array.length states < pool.size then
    invalid_arg "Wnet_par.map_array_pooled: need one state per participant";
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let own = Option.value (slot_of pool) ~default:0 in
    let res = Array.make n (f states.(own) a.(0)) in
    Atomic.incr pool.exec_count;
    run pool ~lo:1 ~hi:n (fun slot i -> res.(i) <- f states.(slot) a.(i));
    res
  end

let map_array pool f a =
  map_array_pooled pool ~states:(Array.make pool.size ()) (fun () x -> f x) a
