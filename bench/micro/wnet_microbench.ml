(* Per-primitive microbenchmarks: one family per hot-path building
   block (wire codecs, work-stealing deque, heaps, dynamic-SSSP
   repair), each primitive a closed loop of [ops] steady-state
   operations over preallocated state.

   Two consumers share these definitions:

   - the one-exe-per-primitive suite ([bench_proto_encode] & co., via
     {!run_family}): human-readable ns/op plus a hard assertion that
     every [alloc_free] primitive allocates ZERO minor-heap words per
     operation (native code only — bytecode boxes freely and is
     exempt).  [--smoke] runs a single timed rep with no timing gate
     but keeps the allocation assertion: that is what CI runs.
   - bench/main.ml embeds the same primitives as "micro/..." headline
     rows of BENCH_latest.json, where the 20% regression gate and the
     machine canary apply to them like to any other wall-clock row.

   Primitives must not allocate in their [run] when [alloc_free] —
   measurement overhead ([Gc.minor_words] boxes its float result) is
   amortised over [reps * ops] operations, so the threshold below
   tolerates a few words per *run*, none per op. *)

module P = Wnet_proto
module B = Wnet_proto_bin

type prim = {
  name : string;  (** e.g. "bin/cost-link" — unique within a family *)
  ops : int;  (** operations performed by one [run ()] call *)
  run : unit -> unit;
  alloc_free : bool;
      (** steady-state contract: 0 minor words per operation *)
}

let inner_ops = 256

(* ---------------- proto encode ---------------- *)

(* The paper's deployment (2000 m square, 300 m range, kappa = 2), a
   connected placement, rooted at node 0. *)
let udg_placement ~n ~seed =
  match
    Wnet_topology.Udg.generate_connected (Wnet_prng.Rng.create seed)
      ~region:Wnet_geom.Region.paper_region ~n ~range:300.0 ~max_tries:10_000
  with
  | Some t -> t
  | None -> failwith (Printf.sprintf "no connected placement at n=%d" n)

(* A real text pay reply: a node-model session at n = 400 with relay
   costs in [1, 10), one [src] line per served source plus the [ok]
   summary. *)
let node_pay_reply () =
  let n = 400 in
  let costs =
    Wnet_topology.Udg.uniform_node_costs (Wnet_prng.Rng.create n) ~n ~lo:1.0
      ~hi:10.0
  in
  let g = Wnet_topology.Udg.node_graph (udg_placement ~n ~seed:n) ~costs in
  P.handle (Wnet_session.make ~root:0 (`Node g)) P.Pay

let proto_encode () =
  let enc = B.enc_create () in
  let cost = P.Cost_link { u = 17; v = 23; w = 4.625 } in
  let drain () = B.enc_consume enc (B.enc_pending enc) in
  let edit_batch = List.init 16 (fun i -> P.Cost_link { u = i; v = i + 1; w = 0.5 +. float_of_int i }) in
  let served =
    P.Served { src = 41; path = [ 41; 17; 3; 0 ]; charge = 12.125 }
  in
  let out = P.sink_create () and ack = P.Ack { version = 1234; node = None } in
  let pay_reply = node_pay_reply () in
  let rec write_lines = function
    | [] -> ()
    | r :: rs ->
      P.write_response out r;
      write_lines rs
  in
  [
    {
      name = "bin/cost-link";
      ops = inner_ops;
      alloc_free = true;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            B.encode_request enc cost;
            drain ()
          done);
    };
    {
      name = "bin/pay";
      ops = inner_ops;
      alloc_free = true;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            B.encode_request enc P.Pay;
            drain ()
          done);
    };
    {
      name = "bin/batch-16-edits";
      ops = inner_ops;
      alloc_free = true;
      run =
        (fun () ->
          (* 16 messages per frame, inner_ops/16 frames *)
          for _ = 1 to inner_ops / 16 do
            B.encode_requests enc edit_batch;
            drain ()
          done);
    };
    {
      name = "bin/served";
      ops = inner_ops;
      alloc_free = false (* path list is walked, frame grows per hop *);
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            B.encode_response enc served;
            drain ()
          done);
    };
    {
      name = "text/ack";
      ops = inner_ops;
      alloc_free = true;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            P.write_response out ack;
            P.sink_reset out
          done);
    };
    {
      name = "text/served";
      ops = inner_ops;
      alloc_free = true;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            P.write_response out served;
            P.sink_reset out
          done);
    };
    {
      name = "text/pay-reply";
      ops = List.length pay_reply (* per line *);
      alloc_free = true;
      run =
        (fun () ->
          write_lines pay_reply;
          P.sink_reset out);
    };
    {
      name = "text/cost-link";
      ops = inner_ops;
      alloc_free = false (* a fresh string per line *);
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (P.print_request cost))
          done);
    };
    {
      name = "text/pay";
      ops = inner_ops;
      alloc_free = false;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (P.print_request P.Pay))
          done);
    };
  ]

(* ---------------- proto decode ---------------- *)

let frame_of_requests rs =
  let e = B.enc_create () in
  B.encode_requests e rs;
  Bytes.sub (B.enc_buffer e) (B.enc_offset e) (B.enc_pending e)

let proto_decode () =
  let cost = P.Cost_link { u = 17; v = 23; w = 4.625 } in
  let cost_frame = frame_of_requests [ cost ] in
  let batch_frame =
    frame_of_requests
      (List.init 16 (fun i -> P.Cost_link { u = i; v = i + 1; w = 0.5 +. float_of_int i }))
  in
  let cost_line = P.print_request cost in
  let dec = B.dec_create () in
  let view = B.make_view () in
  let sink = ref 0 in
  let decode_frame frame k =
    B.dec_feed dec frame 0 (Bytes.length frame);
    for _ = 1 to k do
      match B.decode_next dec view with
      | `Msg -> sink := !sink + view.B.i0 + view.B.i1
      | `Need_more | `Corrupt _ -> failwith "microbench: bad frame"
    done
  in
  [
    {
      name = "bin/view/cost-link";
      ops = inner_ops;
      alloc_free = true;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            decode_frame cost_frame 1
          done);
    };
    {
      name = "bin/view/batch-16-edits";
      ops = inner_ops;
      alloc_free = true;
      run =
        (fun () ->
          for _ = 1 to inner_ops / 16 do
            decode_frame batch_frame 16
          done);
    };
    {
      name = "bin/materialize/cost-link";
      ops = inner_ops;
      alloc_free = false (* builds the Wnet_proto.request value *);
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            B.dec_feed dec cost_frame 0 (Bytes.length cost_frame);
            match B.decode_request dec view with
            | `Req _ -> ()
            | `Need_more | `Corrupt _ -> failwith "microbench: bad frame"
          done);
    };
    {
      name = "text/cost-link";
      ops = inner_ops;
      alloc_free = false;
      run =
        (fun () ->
          for _ = 1 to inner_ops do
            match P.parse_request cost_line with
            | Ok _ -> ()
            | Error _ -> failwith "microbench: bad line"
          done);
    };
  ]

(* ---------------- work-stealing deque ---------------- *)

let deque () =
  let q = Wnet_par.Deque.create 4096 in
  [
    {
      name = "push-pop";
      ops = inner_ops * 2;
      alloc_free = false (* each push boxes its cell *);
      run =
        (fun () ->
          for i = 1 to inner_ops do
            ignore (Wnet_par.Deque.push q i)
          done;
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (Wnet_par.Deque.pop q))
          done);
    };
    {
      name = "push-steal";
      ops = inner_ops * 2;
      alloc_free = false;
      run =
        (fun () ->
          for i = 1 to inner_ops do
            ignore (Wnet_par.Deque.push q i)
          done;
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (Wnet_par.Deque.steal q))
          done);
    };
  ]

(* ---------------- heaps ---------------- *)

let heap () =
  let pri = Array.init inner_ops (fun i -> float_of_int ((i * 7919) mod 1009)) in
  let bh = Wnet_graph.Binheap.create () in
  let ih = Wnet_graph.Indexed_heap.create inner_ops in
  [
    {
      name = "binheap/push-pop";
      ops = inner_ops * 2;
      alloc_free = false (* float keys are boxed in the heap cells *);
      run =
        (fun () ->
          for i = 0 to inner_ops - 1 do
            Wnet_graph.Binheap.push bh pri.(i) i
          done;
          for _ = 1 to inner_ops do
            ignore (Sys.opaque_identity (Wnet_graph.Binheap.pop_min bh))
          done);
    };
    {
      name = "indexed-heap/insert-pop";
      ops = inner_ops * 2;
      alloc_free = false (* storage is flat, but pop_min returns a tuple *);
      run =
        (fun () ->
          for i = 0 to inner_ops - 1 do
            Wnet_graph.Indexed_heap.insert ih i pri.(i)
          done;
          for _ = 1 to inner_ops do
            ignore (Wnet_graph.Indexed_heap.pop_min ih)
          done);
    };
  ]

(* ---------------- dynamic-SSSP distance repair ---------------- *)

let repair () =
  let n = 200 in
  let rng = Wnet_prng.Rng.create 9 in
  let links = ref [] in
  let p = 4.0 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Wnet_prng.Rng.bernoulli rng p then
        links := (u, v, Wnet_prng.Rng.float_range rng 1.0 10.0) :: !links
    done
  done;
  let g = Wnet_graph.Digraph.create ~n ~links:!links in
  let mirror = Wnet_graph.Digraph.reverse g in
  let source = 0 in
  let tree = Wnet_graph.Dijkstra.link_weighted g source in
  let dist = Array.copy tree.Wnet_graph.Dijkstra.dist in
  (* toggle the first link out of the source: on the tree frontier, so
     every repair has a real (small) region to patch *)
  let u, (v, w0) =
    (source, (Wnet_graph.Digraph.out_links g source).(0))
  in
  let scratch = Wnet_graph.Dynamic_sssp.make_dist_scratch n in
  let flip = ref false in
  let toggle () =
    let wa, wb = (w0, w0 *. 2.0) in
    let old_w = if !flip then wb else wa in
    let new_w = if !flip then wa else wb in
    flip := not !flip;
    Wnet_graph.Digraph.set_weight g u v new_w;
    Wnet_graph.Digraph.set_weight mirror v u new_w;
    match
      Wnet_graph.Dynamic_sssp.repair_dist scratch ~graph:g ~mirror ~source
        ~dist
        [ { Wnet_graph.Dynamic_sssp.u; v; w0 = old_w; w1 = new_w } ]
    with
    | `Patched _ -> ()
    | `Overflow ->
      let t = Wnet_graph.Dijkstra.link_weighted g source in
      Array.blit t.Wnet_graph.Dijkstra.dist 0 dist 0 n
  in
  let reps = 32 in
  [
    {
      name = Printf.sprintf "repair-dist/toggle-link/n=%d" n;
      ops = reps;
      alloc_free = false (* edit record + region bookkeeping allocate *);
      run =
        (fun () ->
          for _ = 1 to reps do
            toggle ()
          done);
    };
  ]

(* ---------------- CSR Dijkstra kernels ---------------- *)

let bench_digraph ~n ~seed =
  let rng = Wnet_prng.Rng.create seed in
  let links = ref [] in
  let p = 4.0 /. float_of_int n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Wnet_prng.Rng.bernoulli rng p then
        links := (u, v, Wnet_prng.Rng.float_range rng 1.0 10.0) :: !links
    done
  done;
  Wnet_graph.Digraph.create ~n ~links:!links

let bench_graph ~n ~seed =
  let rng = Wnet_prng.Rng.create seed in
  let costs = Array.init n (fun _ -> Wnet_prng.Rng.float_range rng 0.5 5.0) in
  let edges = ref (List.init n (fun v -> (v, (v + 1) mod n))) in
  for _ = 1 to 2 * n do
    let u = Wnet_prng.Rng.int rng n and v = Wnet_prng.Rng.int rng n in
    if u <> v then edges := (u, v) :: !edges
  done;
  Wnet_graph.Graph.create ~costs ~edges:!edges

(* Full single-source runs: the CSR scratch kernels must be exactly
   zero-allocation (ban-mask bytes, key-only pops, result left in the
   scratch). *)
let dijkstra () =
  let n = 256 in
  let dg = bench_digraph ~n ~seed:11 in
  let ng = bench_graph ~n ~seed:12 in
  let s = Wnet_graph.Dijkstra.make_scratch n in
  (* materialize the cached view so run one isn't charged the build *)
  ignore (Wnet_graph.Digraph.csr dg);
  let reps = 32 in
  [
    {
      name = Printf.sprintf "csr/link-scratch/n=%d" n;
      ops = reps;
      alloc_free = true;
      run =
        (fun () ->
          for _ = 1 to reps do
            ignore
              (Sys.opaque_identity (Wnet_graph.Dijkstra.link_weighted_scratch s dg 0))
          done);
    };
    {
      name = Printf.sprintf "csr/node-scratch/n=%d" n;
      ops = reps;
      alloc_free = true;
      run =
        (fun () ->
          for _ = 1 to reps do
            ignore
              (Sys.opaque_identity
                 (Wnet_graph.Dijkstra.node_weighted_scratch s ng ~source:0))
          done);
    };
  ]

(* ---------------- avoidance sweeps ---------------- *)

(* The payments fallback loop: one forbidden-node Dijkstra per relay.
   The CSR sweep sets one ban byte per run and clears it after. *)
let avoid () =
  let n = 256 in
  let dg = bench_digraph ~n ~seed:13 in
  let s = Wnet_graph.Dijkstra.make_scratch n in
  ignore (Wnet_graph.Digraph.csr dg);
  let ban = Wnet_graph.Dijkstra.ban_mask s in
  let reps = 32 in
  [
    {
      name = Printf.sprintf "csr/ban-mask-sweep/n=%d" n;
      ops = reps;
      alloc_free = true;
      run =
        (fun () ->
          for k = 1 to reps do
            Bytes.set ban k '\001';
            ignore
              (Sys.opaque_identity (Wnet_graph.Dijkstra.link_weighted_scratch s dg 0));
            Bytes.set ban k '\000'
          done);
    };
  ]

(* The subtree-bounded avoidance kernel against the full-graph sweep it
   replaces: same relay set (internal nodes of the shared SPT), same
   searched graph, preallocated index/scratch/dist.  The bounded path
   is the session's per-relay hot loop and must allocate NOTHING — the
   result is an immediate int and the caller owns the dist buffer. *)
let avoid_region () =
  let n = 256 in
  let dg = bench_digraph ~n ~seed:13 in
  let mirror = Wnet_graph.Digraph.reverse dg in
  ignore (Wnet_graph.Digraph.csr dg);
  ignore (Wnet_graph.Digraph.csr mirror);
  let tree = Wnet_graph.Dijkstra.link_weighted dg 0 in
  let idx = Wnet_graph.Avoid_region.make_index tree in
  let ds = Wnet_graph.Dynamic_sssp.make_dist_scratch n in
  let s = Wnet_graph.Dijkstra.make_scratch n in
  let ban = Wnet_graph.Dijkstra.ban_mask s in
  let d = Array.make n infinity in
  let internal = Array.make n false in
  Array.iteri
    (fun _ p -> if p > 0 then internal.(p) <- true)
    tree.Wnet_graph.Dijkstra.parent;
  let relays =
    Array.of_list
      (List.filter (fun k -> internal.(k)) (List.init n (fun k -> k)))
  in
  let reps = min 32 (Array.length relays) in
  [
    {
      name = Printf.sprintf "bounded/subtree-sweep/n=%d" n;
      ops = reps;
      alloc_free = true;
      run =
        (fun () ->
          for i = 0 to reps - 1 do
            let r =
              Wnet_graph.Avoid_region.link_avoid ds ~budget:n idx ~graph:dg
                ~mirror ~tree ~avoid:relays.(i) ~dist:d
            in
            assert (r >= 0)
          done);
    };
    {
      name = Printf.sprintf "full/ban-mask-sweep/n=%d" n;
      ops = reps;
      alloc_free = true;
      run =
        (fun () ->
          for i = 0 to reps - 1 do
            let k = relays.(i) in
            Bytes.set ban k '\001';
            ignore
              (Sys.opaque_identity
                 (Wnet_graph.Dijkstra.link_weighted_scratch s dg 0));
            Bytes.set ban k '\000'
          done);
    };
  ]

(* ---------------- payment assembly ---------------- *)

(* A cache-hit [payments] rebuild: one cost edit and its revert (a burst
   that cancels, so the shared tree and every avoidance array stay
   fresh), then [payments], which now only re-assembles the batch.
   Each primitive carries its allocation bound in words (either heap)
   per rebuild, [assemble_words_factor * (n + sum of path lengths)]: one
   n-sized array per source (the dense payment vectors) is n^2 words
   and breaks it at both sizes. *)
let assemble_words_factor = 12.0

let sum_path_lengths paths =
  Array.fold_left
    (fun acc p -> match p with Some p -> acc + Array.length p | None -> acc)
    0 paths

let assemble () =
  let module LS = Wnet_session.Link_session in
  let module NS = Wnet_session.Node_session in
  let bound ~n paths =
    assemble_words_factor *. float_of_int (n + sum_path_lengths paths)
  in
  let link n =
    let g =
      Wnet_topology.Udg.link_graph (udg_placement ~n ~seed:n)
        ~model:(Wnet_geom.Power.path_loss_only ~kappa:2.0)
    in
    let s = LS.create g ~root:0 in
    let paths =
      Array.map
        (Option.map (fun (o : LS.outcome) -> o.LS.path))
        (LS.payments s).LS.results
    in
    let v, w = (Wnet_graph.Digraph.out_links g 0).(0) in
    ( {
        name = Printf.sprintf "link/cache-hit/n=%d" n;
        ops = 1;
        alloc_free = false (* the batch itself: O(n + sum |path|) words *);
        run =
          (fun () ->
            LS.set_cost s 0 v (w *. 2.0);
            LS.set_cost s 0 v w;
            ignore (Sys.opaque_identity (LS.payments s)));
      },
      bound ~n paths )
  in
  let node n =
    let t = udg_placement ~n ~seed:n in
    let costs =
      Wnet_topology.Udg.uniform_node_costs (Wnet_prng.Rng.create n) ~n ~lo:1.0
        ~hi:10.0
    in
    let s = NS.create (Wnet_topology.Udg.node_graph t ~costs) ~root:0 in
    let paths =
      Array.map (Option.map (fun (o : NS.outcome) -> o.NS.path)) (NS.payments s)
    in
    let x = n / 2 in
    let c = NS.cost s x in
    ( {
        name = Printf.sprintf "node/cache-hit/n=%d" n;
        ops = 1;
        alloc_free = false;
        run =
          (fun () ->
            NS.set_cost s x (c *. 2.0);
            NS.set_cost s x c;
            ignore (Sys.opaque_identity (NS.payments s)));
      },
      bound ~n paths )
  in
  [ link 400; link 800; node 400 ]

(* ---------------- measurement & driver ---------------- *)

(* Seconds one call of [f] takes, on the monotonic clock. *)
let time_once f =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (f ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

(* Best-of-k timing: warm up once, then repeat until the budget is spent
   (at least [min_reps] times) and keep the minimum — the usual estimator
   for wall-clock benchmarks on a noisy machine.  Returns the minimum and
   the rep count. *)
let time_best ?(budget = 0.25) ?(min_reps = 3) ?(max_reps = 200) f =
  ignore (Sys.opaque_identity (f ()));
  let best = ref infinity and total = ref 0.0 and reps = ref 0 in
  while !reps < min_reps || (!total < budget && !reps < max_reps) do
    let t = time_once f in
    if t < !best then best := t;
    total := !total +. t;
    incr reps
  done;
  (!best, !reps)

(* Minor words per operation.  [Gc.minor_words] itself allocates its
   boxed float result, so the overhead is bounded by a handful of words
   per *batch* of [reps * ops] operations — the 0.01 threshold in
   {!check_alloc} leaves room for that and nothing else. *)
let alloc_words_per_op ?(reps = 64) p =
  p.run ();
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    p.run ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (reps * p.ops)

let native = Sys.backend_type = Sys.Native

let check_alloc family p =
  if p.alloc_free && native then begin
    let w = alloc_words_per_op p in
    if w > 0.01 then begin
      Printf.eprintf
        "%s/%s: allocation regression — %.3f minor words/op on the \
         steady-state path (want 0)\n"
        family p.name w;
      exit 1
    end
  end

(* Every word allocated so far, minor and major heap alike: arrays over
   [Max_young_wosize] go straight to the major heap, out of
   {!alloc_words_per_op}'s sight.  The major-heap counters are only
   brought up to date by major-GC work, hence the [Gc.full_major]. *)
let allocated_words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let total_words_per_op ?(reps = 8) p =
  p.run ();
  let w0 = allocated_words () in
  for _ = 1 to reps do
    p.run ()
  done;
  (allocated_words () -. w0) /. float_of_int (reps * p.ops)

(* [bound] is the primitive's allowance in words per operation (see
   {!assemble}); native builds only, like {!check_alloc}. *)
let check_alloc_bound family (p, bound) =
  if native then begin
    let w = total_words_per_op p in
    Printf.printf "%s/%s: %.0f words/op (bound %.0f)\n" family p.name w bound;
    if w > bound then begin
      Printf.eprintf
        "%s/%s: allocation regression — %.0f words/op, bound %.0f\n" family
        p.name w bound;
      exit 1
    end
  end

let run_family family prims =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  Printf.printf "== %s microbench%s ==\n" family
    (if smoke then " (smoke)" else "");
  let table =
    Wnet_stats.Table.make
      ~headers:[ "primitive"; "ns/op"; "words/op"; "runs" ]
  in
  List.iter
    (fun p ->
      check_alloc family p;
      let words =
        if native then Printf.sprintf "%.3f" (alloc_words_per_op ~reps:8 p)
        else "n/a"
      in
      let time_s, runs =
        if smoke then (time_once p.run, 1) else time_best p.run
      in
      let ns = time_s /. float_of_int p.ops *. 1e9 in
      Wnet_stats.Table.add_row table
        [ p.name; Printf.sprintf "%.1f" ns; words; string_of_int runs ])
    prims;
  Wnet_stats.Table.print table;
  if not native then
    print_endline "(bytecode build: allocation assertions skipped)"
