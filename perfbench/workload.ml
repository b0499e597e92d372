(* The three traffic mixes: seeded instances and request streams.

   Everything here is a pure function of (workload, seed, step count):
   the same arguments give a byte-identical instance file and request
   stream, which is what lets the in-process replay reproduce the
   server's replies bit for bit. *)

module P = Wnet_proto
module Rng = Wnet_prng.Rng
module Udg = Wnet_topology.Udg

type model = Link | Node
type mix = Drift | Flood

type spec = {
  name : string;
  model : model;
  mix : mix;
  n : int;
  sessions : int;
  shards : int;
  domains : int;
  proto : int;
  conns : int;
  steps_per_s : int;
      (** Nominal steps per measured second on a 2-core x86 box.  A run
          sends [steps_per_s * seconds] steps per connection: the work
          is fixed by the arguments, never by how fast the run goes. *)
}

(* A drift step is one edit plus one pay (two round trips); a flood
   step is one pipelined window per connection. *)
let specs =
  [
    {
      name = "link-drift";
      model = Link;
      mix = Drift;
      n = 800;
      sessions = 1;
      shards = 1;
      domains = 2;
      proto = 2;
      conns = 1;
      steps_per_s = 125;
    };
    {
      name = "node-drift";
      model = Node;
      mix = Drift;
      n = 400;
      sessions = 1;
      shards = 1;
      domains = 1;
      proto = 1;
      conns = 1;
      steps_per_s = 250;
    };
    {
      name = "edit-flood";
      model = Link;
      mix = Flood;
      n = 100;
      sessions = 2;
      shards = 2;
      domains = 1;
      proto = 1;
      conns = 2;
      steps_per_s = 550;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

type instance = {
  text : string;  (** the graph file the server loads *)
  nodes : int;
  links : int;  (** directed links (link model) or edges (node model) *)
  root : int;
  base : (int * int * float) array;  (** generated link weights *)
  out_adj : (int * float) list array;  (** base out-links per node *)
  in_adj : (int * float) list array;  (** base in-links per node *)
}

(* The paper's deployment: a 2000 m square, 300 m range, kappa = 2.
   Only connected placements are kept and the access point is the node
   nearest the centre, so the served population and the path lengths
   vary little from seed to seed. *)
let placement rng n =
  match
    Udg.generate_connected rng ~region:Wnet_geom.Region.paper_region ~n
      ~range:300.0 ~max_tries:100_000
  with
  | Some t -> t
  | None -> failwith (Printf.sprintf "no connected placement at n=%d" n)

let central (t : Udg.t) =
  let c = Wnet_geom.Point.make 1000.0 1000.0 in
  let best = ref 0 in
  Array.iteri
    (fun i p ->
      if
        Wnet_geom.Point.distance_sq p c
        < Wnet_geom.Point.distance_sq t.Udg.points.(!best) c
      then best := i)
    t.Udg.points;
  !best

let adjacency n base =
  let out_adj = Array.make n [] and in_adj = Array.make n [] in
  for i = Array.length base - 1 downto 0 do
    let u, v, w = base.(i) in
    out_adj.(u) <- (v, w) :: out_adj.(u);
    in_adj.(v) <- (u, w) :: in_adj.(v)
  done;
  (out_adj, in_adj)

let instance spec ~seed =
  let rng = Rng.create seed in
  let t = placement rng spec.n in
  let root = central t in
  match spec.model with
  | Link ->
    let g =
      Udg.link_graph t ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)
    in
    let base = Array.of_list (Wnet_graph.Digraph.links g) in
    let b = Buffer.create (Array.length base * 24) in
    Array.iter
      (fun (u, v, w) ->
        Printf.bprintf b "link %d %d %s\n" u v (P.float_to_string w))
      base;
    let out_adj, in_adj = adjacency spec.n base in
    {
      text = Buffer.contents b;
      nodes = spec.n;
      links = Array.length base;
      root;
      base;
      out_adj;
      in_adj;
    }
  | Node ->
    let costs = Udg.uniform_node_costs rng ~n:spec.n ~lo:1.0 ~hi:10.0 in
    let g = Udg.node_graph t ~costs in
    {
      text = Wnet_graph.Graph_io.to_string g;
      nodes = spec.n;
      links = Wnet_graph.Graph.m g;
      root;
      base = [||];
      out_adj = [||];
      in_adj = [||];
    }

(* Edit weights are the generated weight times U[0.8, 1.2] -- never a
   random walk -- so a long run stays stationary. *)
let drift_weight rng w = w *. Rng.float_range rng 0.8 1.2

(* Per-connection topology tracker for the churn mix: at most one node
   is away at a time, and cost edits only touch links whose endpoints
   are both present, so every request is valid. *)
type churn = { alive : bool array; mutable away : int option }

let live_link rng inst ch =
  let rec pick () =
    let u, v, w = inst.base.(Rng.int rng (Array.length inst.base)) in
    if ch.alive.(u) && ch.alive.(v) then (u, v, w) else pick ()
  in
  pick ()

let churn_edit rng inst ch =
  match ch.away with
  | Some k when Rng.bernoulli rng (1.0 /. 8.0) ->
    ch.away <- None;
    ch.alive.(k) <- true;
    let present = List.filter (fun (x, _) -> ch.alive.(x)) in
    P.Rejoin { node = k; out = present inst.out_adj.(k); inn = present inst.in_adj.(k) }
  | None when Rng.bernoulli rng (1.0 /. 256.0) ->
    let rec pick () =
      let k = Rng.int rng inst.nodes in
      if k = inst.root then pick () else k
    in
    let k = pick () in
    ch.away <- Some k;
    ch.alive.(k) <- false;
    P.Leave { node = k }
  | _ ->
    let u, v, w = live_link rng inst ch in
    P.Cost_link { u; v; w = drift_weight rng w }

let window_len = 32

(* Each window: cost edits (plus the odd leave/rejoin), then [stats];
   every 4th window also asks for [pay] before the [stats]. *)
let flood_window rng inst ch k =
  let tail = if k mod 4 = 3 then [ P.Pay; P.Stats ] else [ P.Stats ] in
  let edits = List.init (window_len - List.length tail) (fun _ -> churn_edit rng inst ch) in
  Array.of_list (edits @ tail)

let drift_edit spec rng inst =
  match spec.model with
  | Link ->
    let u, v, w = inst.base.(Rng.int rng (Array.length inst.base)) in
    P.Cost_link { u; v; w = drift_weight rng w }
  | Node ->
    let rec pick () =
      let k = Rng.int rng inst.nodes in
      if k = inst.root then pick () else k
    in
    let node = pick () in
    P.Cost_node { node; cost = Rng.float_range rng 1.0 10.0 }

(* The request stream: per connection, the windows it sends in order;
   a window is written in one go and the next one waits for all of its
   replies (closed loop).  Connection [c] drives session [c]. *)
let stream spec inst ~seed ~steps =
  let rng = Rng.create (seed lxor 0x5eed) in
  Array.init spec.conns (fun _ ->
      let rng = Rng.split rng in
      match spec.mix with
      | Drift ->
        Array.init (2 * steps) (fun i ->
            if i mod 2 = 1 then [| P.Pay |] else [| drift_edit spec rng inst |])
      | Flood ->
        let ch = { alive = Array.make inst.nodes true; away = None } in
        Array.init steps (fun k -> flood_window rng inst ch k))
