(* One CSR, edited in place.  Row [u] is slots
   [row_off.(u) .. row_end.(u) - 1] of [col]/[wgt], sorted by target;
   [wgt] is a plain [float array], so the kernels read unboxed floats
   with no per-link tuple to chase.

   Row [u] owns the slots up to [row_cap.(u)]: a delete closes its gap
   and keeps the freed slot, an insert shifts into a spare one.  A full
   row moves to [tail] with twice its length, leaving its old slots
   dead.  When the tail runs out, every row is packed tight into fresh
   arrays of twice the links, which both grows the store and drops the
   dead slots. *)
type csr = {
  row_off : int array;
  row_end : int array;
  col : int array;
  wgt : float array;
}

type t = {
  mutable csr : csr;  (* replaced only when an array is reallocated *)
  mutable row_cap : int array;
  mutable tail : int;  (* first slot no row owns *)
  mutable m : int;
  mutable version : int;
}

(* Rows packed tight: row [u] is [start.(u) .. start.(u + 1) - 1]. *)
let of_rows start col wgt =
  let n = Array.length start - 1 in
  let row_end = Array.sub start 1 n in
  {
    csr = { row_off = Array.sub start 0 n; row_end; col; wgt };
    row_cap = Array.copy row_end;
    tail = start.(n);
    m = start.(n);
    version = 0;
  }

let n g = Array.length g.csr.row_off

let m g = g.m

let out_degree g u = g.csr.row_end.(u) - g.csr.row_off.(u)

(* Stable sort of slots [lo .. hi - 1] by target; a row that is already
   in order (a generated instance's always is) is left alone. *)
let sort_row (col : int array) wgt lo hi =
  let sorted = ref true in
  for i = lo + 1 to hi - 1 do
    if col.(i) < col.(i - 1) then sorted := false
  done;
  if not !sorted then begin
    let row = Array.init (hi - lo) (fun k -> (col.(lo + k), wgt.(lo + k))) in
    Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) row;
    Array.iteri
      (fun k (v, w) ->
        col.(lo + k) <- v;
        wgt.(lo + k) <- w)
      row
  end

let create ~n ~links =
  if n < 0 then invalid_arg "Digraph.create: negative node count";
  (* Bucket the finite links by source row, in list order. *)
  let start = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.create: endpoint out of range";
      if u = v then invalid_arg "Digraph.create: self-loop";
      if Float.is_nan w || w < 0.0 then
        invalid_arg "Digraph.create: weight must be non-negative";
      if w < infinity then start.(u + 1) <- start.(u + 1) + 1)
    links;
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let fill = Array.sub start 0 n in
  let col = Array.make start.(n) 0 and wgt = Array.make start.(n) 0.0 in
  List.iter
    (fun (u, v, w) ->
      if w < infinity then begin
        let i = fill.(u) in
        col.(i) <- v;
        wgt.(i) <- w;
        fill.(u) <- i + 1
      end)
    links;
  (* Sort each row, then compact it to one link per target: a later
     duplicate replaces the kept link only if strictly cheaper, so ties
     (signed zeros included) keep the earlier one. *)
  let m = ref 0 in
  for u = 0 to n - 1 do
    let lo = start.(u) and hi = start.(u + 1) in
    sort_row col wgt lo hi;
    start.(u) <- !m;
    for i = lo to hi - 1 do
      if !m > start.(u) && col.(!m - 1) = col.(i) then begin
        if wgt.(i) < wgt.(!m - 1) then wgt.(!m - 1) <- wgt.(i)
      end
      else begin
        col.(!m) <- col.(i);
        wgt.(!m) <- wgt.(i);
        incr m
      end
    done
  done;
  start.(n) <- !m;
  if !m = Array.length col then of_rows start col wgt
  else of_rows start (Array.sub col 0 !m) (Array.sub wgt 0 !m)

(* Insertion point of [v] in the sorted slice [lo .. hi - 1] of [col].
   Top level rather than local, so a lookup builds no closure: the
   payment assembly reads one weight per relay. *)
let rec search (col : int array) v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if col.(mid) < v then search col v (mid + 1) hi else search col v lo mid

let weight g u v =
  let c = g.csr in
  let i = search c.col v c.row_off.(u) c.row_end.(u) in
  if i < c.row_end.(u) && c.col.(i) = v then c.wgt.(i) else infinity

let out_links g u =
  let c = g.csr in
  let lo = c.row_off.(u) in
  Array.init (out_degree g u) (fun i -> (c.col.(lo + i), c.wgt.(lo + i)))

let links g =
  let c = g.csr in
  let acc = ref [] in
  for u = n g - 1 downto 0 do
    for i = c.row_end.(u) - 1 downto c.row_off.(u) do
      acc := (u, c.col.(i), c.wgt.(i)) :: !acc
    done
  done;
  !acc

(* One counting pass: size each reversed row by in-degree, then scan the
   tails in increasing order, so every row fills already sorted. *)
let reverse g =
  let { row_off; row_end; col; wgt } = g.csr in
  let n = n g in
  let start = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    for i = row_off.(u) to row_end.(u) - 1 do
      start.(col.(i) + 1) <- start.(col.(i) + 1) + 1
    done
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let fill = Array.sub start 0 n in
  let rcol = Array.make g.m 0 and rwgt = Array.make g.m 0.0 in
  for u = 0 to n - 1 do
    for i = row_off.(u) to row_end.(u) - 1 do
      let v = col.(i) in
      rcol.(fill.(v)) <- u;
      rwgt.(fill.(v)) <- wgt.(i);
      fill.(v) <- fill.(v) + 1
    done
  done;
  of_rows start rcol rwgt

let of_node_costs gr ~root =
  let n = Graph.n gr in
  if root < 0 || root >= n then
    invalid_arg "Digraph.of_node_costs: root out of range";
  let { Graph.row_off; col } = Graph.csr gr in
  let m = row_off.(n) in
  let wgt =
    Array.init m (fun i ->
        let b = col.(i) in
        if b = root then 0.0 else Graph.cost gr b)
  in
  of_rows row_off (Array.sub col 0 m) wgt

let owner_of_link u _v = u

(* Slots [src ..] of [col]/[wgt] to [dst ..] of [col']/[wgt'], [len]
   of them, overlap-safe.  Plain stores: [Array.blit] into a major-heap
   [int array] goes through the write barrier slot by slot. *)
let blit_slots (col : int array) (wgt : float array) src (col' : int array)
    (wgt' : float array) dst len =
  if dst <= src then
    for k = 0 to len - 1 do
      col'.(dst + k) <- col.(src + k);
      wgt'.(dst + k) <- wgt.(src + k)
    done
  else
    for k = len - 1 downto 0 do
      col'.(dst + k) <- col.(src + k);
      wgt'.(dst + k) <- wgt.(src + k)
    done

(* Rows packed tight into fresh arrays of [size >= m] slots, leaving out
   row [drop_row] and the links into [drop_target] ([-1]: none). *)
let pack g ~size ~drop_row ~drop_target =
  let c = g.csr in
  let n = n g in
  let start = Array.make (n + 1) 0 in
  let col = Array.make size 0 and wgt = Array.make size 0.0 in
  let j = ref 0 in
  for u = 0 to n - 1 do
    if u <> drop_row then begin
      let lo = c.row_off.(u) and hi = c.row_end.(u) in
      let i = search c.col drop_target lo hi in
      blit_slots c.col c.wgt lo col wgt !j (i - lo);
      j := !j + (i - lo);
      let i = if i < hi && c.col.(i) = drop_target then i + 1 else i in
      blit_slots c.col c.wgt i col wgt !j (hi - i);
      j := !j + (hi - i)
    end;
    start.(u + 1) <- !j
  done;
  of_rows start col wgt

let check_node what g v =
  if v < 0 || v >= n g then invalid_arg ("Digraph." ^ what ^ ": out of range")

let silence_node g v =
  check_node "silence_node" g v;
  pack g ~size:g.m ~drop_row:v ~drop_target:(-1)

let remove_node g v =
  check_node "remove_node" g v;
  pack g ~size:g.m ~drop_row:v ~drop_target:v

let remove_links_to g v =
  check_node "remove_links_to" g v;
  pack g ~size:g.m ~drop_row:(-1) ~drop_target:v

(* ------------------------------------------------------------------ *)
(* In-place mutation.

   The session engine owns a long-lived digraph and applies topology
   deltas to it directly instead of rebuilding O(n + m) state per edit.
   Every mutation bumps the version stamp, which downstream caches use
   to assert they were built against the graph they are consulted on.
   The immutable operations above are unaffected: they still return
   fresh graphs (at version 0, a new history). *)

let version g = g.version

let csr g = g.csr

let copy g = pack g ~size:g.m ~drop_row:(-1) ~drop_target:(-1)

(* Row [u] is full: move it to the tail with twice its length, first
   repacking every row when the tail runs out. *)
let move_row g u =
  let len = out_degree g u in
  let cap = max 4 (2 * len) in
  if g.tail + cap > Array.length g.csr.col then begin
    let p = pack g ~size:(2 * (g.m + cap)) ~drop_row:(-1) ~drop_target:(-1) in
    g.csr <- p.csr;
    g.row_cap <- p.row_cap;
    g.tail <- p.tail
  end;
  let c = g.csr in
  blit_slots c.col c.wgt c.row_off.(u) c.col c.wgt g.tail len;
  c.row_off.(u) <- g.tail;
  c.row_end.(u) <- g.tail + len;
  g.row_cap.(u) <- g.tail + cap;
  g.tail <- g.tail + cap

(* Drop slot [i] of row [u]; the freed slot stays the row's spare. *)
let delete_slot g u i =
  let c = g.csr in
  let hi = c.row_end.(u) in
  blit_slots c.col c.wgt (i + 1) c.col c.wgt i (hi - i - 1);
  c.row_end.(u) <- hi - 1;
  g.m <- g.m - 1

let set_weight g u v w =
  let nn = n g in
  if u < 0 || u >= nn || v < 0 || v >= nn then
    invalid_arg "Digraph.set_weight: endpoint out of range";
  if u = v then invalid_arg "Digraph.set_weight: self-loop";
  if Float.is_nan w || w < 0.0 then
    invalid_arg "Digraph.set_weight: weight must be non-negative";
  let c = g.csr in
  let lo = c.row_off.(u) and hi = c.row_end.(u) in
  let i = search c.col v lo hi in
  (if i < hi && c.col.(i) = v then begin
     if w < infinity then c.wgt.(i) <- w else delete_slot g u i
   end
   else if w < infinity then begin
     if hi = g.row_cap.(u) then move_row g u;
     let c = g.csr in
     let i = c.row_off.(u) + (i - lo) and hi = c.row_end.(u) in
     blit_slots c.col c.wgt i c.col c.wgt (i + 1) (hi - i);
     c.col.(i) <- v;
     c.wgt.(i) <- w;
     c.row_end.(u) <- hi + 1;
     g.m <- g.m + 1
   end);
  g.version <- g.version + 1

(* A new node's row is empty with no capacity: its first link moves it
   to the tail. *)
let add_node g =
  let id = n g in
  let c = g.csr in
  let push a = Array.append a [| g.tail |] in
  g.csr <- { c with row_off = push c.row_off; row_end = push c.row_end };
  g.row_cap <- push g.row_cap;
  g.version <- g.version + 1;
  id

(* Rows empty in place and keep their capacity, so a rejoin with the
   same links moves no row. *)
let detach_node g v =
  check_node "detach_node" g v;
  let c = g.csr in
  g.m <- g.m - out_degree g v;
  c.row_end.(v) <- c.row_off.(v);
  for u = 0 to n g - 1 do
    let i = search c.col v c.row_off.(u) c.row_end.(u) in
    if i < c.row_end.(u) && c.col.(i) = v then delete_slot g u i
  done;
  g.version <- g.version + 1

let pp ppf g =
  let c = g.csr in
  Format.fprintf ppf "@[<v>digraph n=%d m=%d@," (n g) g.m;
  for u = 0 to n g - 1 do
    for i = c.row_off.(u) to c.row_end.(u) - 1 do
      Format.fprintf ppf "  %d -> %d (%g)@," u c.col.(i) c.wgt.(i)
    done
  done;
  Format.fprintf ppf "@]"
