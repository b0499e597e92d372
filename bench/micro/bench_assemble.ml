let () =
  let prims = Wnet_microbench.assemble () in
  List.iter (Wnet_microbench.check_alloc_bound "assemble") prims;
  Wnet_microbench.run_family "assemble" (List.map fst prims)
