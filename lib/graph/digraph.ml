(* Flat CSR mirror of [out_adj]: row [u] occupies slots
   [row_off.(u) .. row_off.(u+1) - 1] of [col]/[wgt], sorted by target
   like the boxed rows.  [wgt] is a plain [float array], so the kernels
   read unboxed floats with no per-link tuple to chase. *)
type csr = {
  row_off : int array;  (* n + 1 entries *)
  col : int array;  (* m entries: link targets *)
  wgt : float array;  (* m entries: link weights, mutated in place *)
}

type t = {
  mutable out_adj : (int * float) array array; (* sorted by target *)
  mutable m : int;
  mutable version : int;
  mutable csr_cache : csr;  (* valid iff [csr_version = version] *)
  mutable csr_version : int;  (* -1: never built / structurally stale *)
}

let no_csr = { row_off = [||]; col = [||]; wgt = [||] }

let create ~n ~links =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  let best = Hashtbl.create (2 * List.length links) in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.create: endpoint out of range";
      if u = v then invalid_arg "Digraph.create: self-loop";
      if Float.is_nan w || w < 0.0 then
        invalid_arg "Digraph.create: weight must be non-negative";
      if w < infinity then
        match Hashtbl.find_opt best (u, v) with
        | Some w' when w' <= w -> ()
        | _ -> Hashtbl.replace best (u, v) w)
    links;
  let deg = Array.make n 0 in
  Hashtbl.iter (fun (u, _) _ -> deg.(u) <- deg.(u) + 1) best;
  let out_adj = Array.init n (fun u -> Array.make deg.(u) (0, 0.0)) in
  let fill = Array.make n 0 in
  Hashtbl.iter
    (fun (u, v) w ->
      out_adj.(u).(fill.(u)) <- (v, w);
      fill.(u) <- fill.(u) + 1)
    best;
  Array.iter (fun l -> Array.sort compare l) out_adj;
  {
    out_adj;
    m = Hashtbl.length best;
    version = 0;
    csr_cache = no_csr;
    csr_version = -1;
  }

let n g = Array.length g.out_adj

let m g = g.m

let out_links g u = g.out_adj.(u)

let out_degree g u = Array.length g.out_adj.(u)

(* Top level rather than local to [weight], so a lookup builds no
   closure: the payment assembly reads one weight per relay. *)
let rec find_weight (a : (int * float) array) v lo hi =
  if lo >= hi then infinity
  else
    let mid = (lo + hi) / 2 in
    let t, w = a.(mid) in
    if t = v then w
    else if t < v then find_weight a v (mid + 1) hi
    else find_weight a v lo mid

let weight g u v =
  let a = g.out_adj.(u) in
  find_weight a v 0 (Array.length a)

let links g =
  let acc = ref [] in
  Array.iteri
    (fun u l -> Array.iter (fun (v, w) -> acc := (u, v, w) :: !acc) l)
    g.out_adj;
  List.sort compare !acc

(* One counting pass: size each reversed row by in-degree, then scan the
   tails in increasing order, so every row fills already sorted. *)
let reverse g =
  let n = n g in
  let deg = Array.make n 0 in
  Array.iter (Array.iter (fun (v, _) -> deg.(v) <- deg.(v) + 1)) g.out_adj;
  let out_adj = Array.init n (fun v -> Array.make deg.(v) (0, 0.0)) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun u row ->
      Array.iter
        (fun (v, w) ->
          out_adj.(v).(fill.(v)) <- (u, w);
          fill.(v) <- fill.(v) + 1)
        row)
    g.out_adj;
  { out_adj; m = g.m; version = 0; csr_cache = no_csr; csr_version = -1 }

let of_node_costs gr ~root =
  let n = Graph.n gr in
  if root < 0 || root >= n then
    invalid_arg "Digraph.of_node_costs: root out of range";
  (* every arc into [b] is the same immutable pair: share one per node *)
  let into =
    Array.init n (fun b -> (b, if b = root then 0.0 else Graph.cost gr b))
  in
  let out_adj =
    Array.init n (fun a -> Array.map (Array.get into) (Graph.neighbors gr a))
  in
  {
    out_adj;
    m = 2 * Graph.m gr;
    version = 0;
    csr_cache = no_csr;
    csr_version = -1;
  }

let owner_of_link u _v = u

let silence_node g v =
  if v < 0 || v >= n g then invalid_arg "Digraph.silence_node: out of range";
  let out_adj = Array.copy g.out_adj in
  let removed = Array.length out_adj.(v) in
  out_adj.(v) <- [||];
  {
    out_adj;
    m = g.m - removed;
    version = 0;
    csr_cache = no_csr;
    csr_version = -1;
  }

let remove_node g v =
  if v < 0 || v >= n g then invalid_arg "Digraph.remove_node: out of range";
  let m = ref g.m in
  let out_adj =
    Array.mapi
      (fun u l ->
        if u = v then begin
          m := !m - Array.length l;
          [||]
        end
        else begin
          let kept = Array.of_list (List.filter (fun (t, _) -> t <> v) (Array.to_list l)) in
          m := !m - (Array.length l - Array.length kept);
          kept
        end)
      g.out_adj
  in
  { out_adj; m = !m; version = 0; csr_cache = no_csr; csr_version = -1 }

let remove_links_to g v =
  if v < 0 || v >= n g then invalid_arg "Digraph.remove_links_to: out of range";
  let m = ref g.m in
  let out_adj =
    Array.map
      (fun l ->
        if Array.exists (fun (t, _) -> t = v) l then begin
          let kept = Array.of_list (List.filter (fun (t, _) -> t <> v) (Array.to_list l)) in
          m := !m - (Array.length l - Array.length kept);
          kept
        end
        else l)
      g.out_adj
  in
  { out_adj; m = !m; version = 0; csr_cache = no_csr; csr_version = -1 }

(* ------------------------------------------------------------------ *)
(* In-place mutation.

   The session engine owns a long-lived digraph and applies topology
   deltas to it directly instead of rebuilding O(n + m) state per edit.
   Every mutation bumps the version stamp, which downstream caches use
   to assert they were built against the graph they are consulted on.
   The immutable operations above are unaffected: they still return
   fresh graphs (at version 0, a new history). *)

let version g = g.version

let copy g =
  (* The CSR cache never travels: [set_weight] writes its [wgt] in
     place, so sharing it would couple the copies. *)
  {
    out_adj = Array.map Array.copy g.out_adj;
    m = g.m;
    version = 0;
    csr_cache = no_csr;
    csr_version = -1;
  }

(* ------------------------------------------------------------------ *)
(* CSR view.

   Built lazily from [out_adj] and memoized against the version stamp.
   [set_weight] on an existing link updates the cached [wgt] slot in
   place and moves the stamp forward with the graph, so steady cost
   drift — the session workload — never rebuilds; structural edits
   (insert/delete/add_node/detach_node) drop the cache and the next
   [csr] call pays one O(n + m) rebuild. *)

let rebuild_csr g =
  let n = Array.length g.out_adj in
  let row_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row_off.(u + 1) <- row_off.(u) + Array.length g.out_adj.(u)
  done;
  let m = row_off.(n) in
  let col = Array.make (max m 1) 0 in
  let wgt = Array.make (max m 1) 0.0 in
  for u = 0 to n - 1 do
    let row = g.out_adj.(u) in
    let base = row_off.(u) in
    for i = 0 to Array.length row - 1 do
      let v, w = row.(i) in
      col.(base + i) <- v;
      wgt.(base + i) <- w
    done
  done;
  let c = { row_off; col; wgt } in
  g.csr_cache <- c;
  g.csr_version <- g.version;
  c

let csr g = if g.csr_version = g.version then g.csr_cache else rebuild_csr g

let invalidate_csr g = g.csr_version <- -1

(* Slot of link [u -> v] in the (valid) CSR, or -1: binary search of
   [col] within row [u] — the link→slot index [set_weight] writes
   through. *)
let csr_slot c u v =
  let lo = ref c.row_off.(u) and hi = ref c.row_off.(u + 1) in
  let found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let t = c.col.(mid) in
    if t = v then begin
      found := mid;
      lo := !hi
    end
    else if t < v then lo := mid + 1
    else hi := mid
  done;
  !found

let set_weight g u v w =
  let nn = n g in
  if u < 0 || u >= nn || v < 0 || v >= nn then
    invalid_arg "Digraph.set_weight: endpoint out of range";
  if u = v then invalid_arg "Digraph.set_weight: self-loop";
  if Float.is_nan w || w < 0.0 then
    invalid_arg "Digraph.set_weight: weight must be non-negative";
  let a = g.out_adj.(u) in
  let len = Array.length a in
  let rec bsearch lo hi = (* position of v, or insertion point *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst a.(mid) < v then bsearch (mid + 1) hi else bsearch lo mid
  in
  let i = bsearch 0 len in
  let present = i < len && fst a.(i) = v in
  (if present then begin
     if w = infinity then begin
       (* delete *)
       let b = Array.make (len - 1) (0, 0.0) in
       Array.blit a 0 b 0 i;
       Array.blit a (i + 1) b i (len - 1 - i);
       g.out_adj.(u) <- b;
       g.m <- g.m - 1;
       invalidate_csr g
     end
     else begin
       a.(i) <- (v, w);
       (* keep a valid CSR in lockstep: in-place weight write *)
       if g.csr_version = g.version then begin
         let s = csr_slot g.csr_cache u v in
         g.csr_cache.wgt.(s) <- w;
         g.csr_version <- g.version + 1
       end
     end
   end
   else if w < infinity then begin
     (* insert *)
     let b = Array.make (len + 1) (v, w) in
     Array.blit a 0 b 0 i;
     Array.blit a i b (i + 1) (len - i);
     g.out_adj.(u) <- b;
     g.m <- g.m + 1;
     invalidate_csr g
   end);
  g.version <- g.version + 1

let add_node g =
  let id = n g in
  let out_adj = Array.make (id + 1) [||] in
  Array.blit g.out_adj 0 out_adj 0 id;
  g.out_adj <- out_adj;
  invalidate_csr g;
  g.version <- g.version + 1;
  id

let detach_node g v =
  if v < 0 || v >= n g then invalid_arg "Digraph.detach_node: out of range";
  g.m <- g.m - Array.length g.out_adj.(v);
  g.out_adj.(v) <- [||];
  Array.iteri
    (fun u l ->
      if u <> v && Array.exists (fun (t, _) -> t = v) l then begin
        let kept =
          Array.of_list (List.filter (fun (t, _) -> t <> v) (Array.to_list l))
        in
        g.m <- g.m - (Array.length l - Array.length kept);
        g.out_adj.(u) <- kept
      end)
    g.out_adj;
  invalidate_csr g;
  g.version <- g.version + 1

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph n=%d m=%d@," (n g) g.m;
  Array.iteri
    (fun u l ->
      Array.iter (fun (v, w) -> Format.fprintf ppf "  %d -> %d (%g)@," u v w) l)
    g.out_adj;
  Format.fprintf ppf "@]"
