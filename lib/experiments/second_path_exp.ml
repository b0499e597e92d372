type bucket = {
  hop : int;
  count : int;
  mean_gap : float;
  max_gap : float;
}

let study ?(n = 150) ?(instances = 5) ?(pool = Wnet_par.sequential) ~seed () =
  let rng = Wnet_prng.Rng.create seed in
  (* The Yen sweeps are the expensive part and instances are independent
     given their RNG streams: pre-split the children in order, fan the
     per-instance hop tables out over the pool, then merge them
     positionally — instance order is fixed, so the result is identical
     for every pool size.  Yen's per-round spur Dijkstras fan out
     *within* an instance too: each instance task re-enters the same
     pool via [Ksp.k_shortest_paths ~pool], and idle domains steal spur
     tasks instead of waiting at the instance barrier. *)
  let children = Array.init instances (fun _ -> Wnet_prng.Rng.split rng) in
  let tables =
    Wnet_par.map_array pool
      (fun child ->
        let t = Wnet_topology.Udg.paper_instance child ~n in
        let costs =
          Wnet_topology.Udg.uniform_node_costs child ~n ~lo:1.0 ~hi:10.0
        in
        let g = Wnet_topology.Udg.node_graph t ~costs in
        let tbl = Hashtbl.create 32 in
        for src = 1 to n - 1 do
          match Wnet_graph.Ksp.k_shortest_paths ~pool g ~src ~dst:0 ~k:2 with
          | [ best; second ] ->
            let c1 = Wnet_graph.Path.relay_cost g best in
            if c1 > 0.0 then begin
              let c2 = Wnet_graph.Path.relay_cost g second in
              let gap = (c2 -. c1) /. c1 in
              let hop = Wnet_graph.Path.hops best in
              let sum, mx, cnt =
                Option.value (Hashtbl.find_opt tbl hop)
                  ~default:(0.0, neg_infinity, 0)
              in
              Hashtbl.replace tbl hop (sum +. gap, Float.max mx gap, cnt + 1)
            end
          | _ -> ()
        done;
        tbl)
      children
  in
  let tbl = Hashtbl.create 32 in
  Array.iter
    (Hashtbl.iter (fun hop (sum, mx, cnt) ->
         let sum0, mx0, cnt0 =
           Option.value (Hashtbl.find_opt tbl hop) ~default:(0.0, neg_infinity, 0)
         in
         Hashtbl.replace tbl hop (sum0 +. sum, Float.max mx0 mx, cnt0 + cnt)))
    tables;
  Hashtbl.fold
    (fun hop (sum, mx, cnt) acc ->
      { hop; count = cnt; mean_gap = sum /. float_of_int cnt; max_gap = mx } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.hop b.hop)

let render buckets =
  let table =
    Wnet_stats.Table.make
      ~headers:[ "hops"; "sources"; "mean (c2-c1)/c1"; "max (c2-c1)/c1" ]
  in
  List.iter
    (fun b ->
      Wnet_stats.Table.add_row table
        [
          string_of_int b.hop;
          string_of_int b.count;
          Printf.sprintf "%.4f" b.mean_gap;
          Printf.sprintf "%.4f" b.max_gap;
        ])
    buckets;
  Wnet_stats.Table.render table
