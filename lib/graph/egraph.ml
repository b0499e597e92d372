(* Incidence as CSR: the incidences of [v] occupy slots
   [row_off.(v) .. row_off.(v+1) - 1] of [ncol] (neighbour) / [ecol]
   (edge id), sorted by neighbour.  Weights stay per-edge-id in [w], so
   a kernel reads [w.(ecol.(i))] with no tuple to chase.  Incidence is
   immutable after construction; weight swaps ([with_weights]) share
   it. *)
type csr = { row_off : int array; ncol : int array; ecol : int array }

type t = {
  ends : (int * int) array;  (* per edge id, smaller endpoint first *)
  w : float array;  (* per edge id *)
  csr : csr;
}

let create ~n ~edges =
  if n < 0 then invalid_arg "Egraph.create: negative node count";
  let best = Hashtbl.create (2 * List.length edges) in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Egraph.create: endpoint out of range";
      if u = v then invalid_arg "Egraph.create: self-loop";
      if Float.is_nan w || w < 0.0 then
        invalid_arg "Egraph.create: weight must be non-negative";
      let key = (min u v, max u v) in
      match Hashtbl.find_opt best key with
      | Some w' when w' <= w -> ()
      | _ -> Hashtbl.replace best key w)
    edges;
  let pairs =
    Hashtbl.fold (fun k w acc -> (k, w) :: acc) best [] |> List.sort compare
  in
  let m = List.length pairs in
  let ends = Array.make m (0, 0) in
  let w = Array.make m 0.0 in
  List.iteri
    (fun e ((u, v), weight) ->
      ends.(e) <- (u, v);
      w.(e) <- weight)
    pairs;
  let row_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v) ->
      row_off.(u + 1) <- row_off.(u + 1) + 1;
      row_off.(v + 1) <- row_off.(v + 1) + 1)
    ends;
  for v = 1 to n do
    row_off.(v) <- row_off.(v) + row_off.(v - 1)
  done;
  let ncol = Array.make (2 * m) 0 and ecol = Array.make (2 * m) 0 in
  let fill = Array.sub row_off 0 n in
  let put x y e =
    ncol.(fill.(x)) <- y;
    ecol.(fill.(x)) <- e;
    fill.(x) <- fill.(x) + 1
  in
  (* Edge ids ascend in (smaller, larger) endpoint order, so each row
     fills already sorted by neighbour: first the smaller neighbours,
     by id, then the larger ones. *)
  Array.iteri
    (fun e (u, v) ->
      put u v e;
      put v u e)
    ends;
  { ends; w; csr = { row_off; ncol; ecol } }

let n g = Array.length g.csr.row_off - 1

let m g = Array.length g.ends

let check_edge g e =
  if e < 0 || e >= m g then invalid_arg "Egraph: edge id out of range"

let endpoints g e =
  check_edge g e;
  g.ends.(e)

let weight g e =
  check_edge g e;
  g.w.(e)

let weights g = Array.copy g.w

let weights_view g = g.w

let csr g = g.csr

let check_weight w =
  if Float.is_nan w || w < 0.0 then
    invalid_arg "Egraph: weight must be non-negative"

let with_weights g w =
  if Array.length w <> m g then invalid_arg "Egraph.with_weights: length mismatch";
  Array.iter check_weight w;
  { g with w = Array.copy w }

let with_weight g e w =
  check_edge g e;
  check_weight w;
  let weights = Array.copy g.w in
  weights.(e) <- w;
  { g with w = weights }

(* Binary search of [u]'s row, which is sorted by neighbour. *)
let rec find_edge c v lo hi =
  if lo >= hi then None
  else
    let mid = (lo + hi) / 2 in
    let x = c.ncol.(mid) in
    if x = v then Some c.ecol.(mid)
    else if x < v then find_edge c v (mid + 1) hi
    else find_edge c v lo mid

let edge_between g u v =
  if u < 0 || u >= n g || v < 0 || v >= n g then None
  else find_edge g.csr v g.csr.row_off.(u) g.csr.row_off.(u + 1)

let incident g v =
  let { row_off; ncol; ecol } = g.csr in
  let lo = row_off.(v) in
  Array.init (row_off.(v + 1) - lo) (fun i -> (ncol.(lo + i), ecol.(lo + i)))

let fold_edges f g acc =
  let result = ref acc in
  Array.iteri
    (fun e (u, v) -> result := f u v e g.w.(e) !result)
    g.ends;
  !result
