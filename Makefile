.PHONY: all test bench microbench microbench-smoke smoke smoke-shard \
	dsim-smoke no-node-copies no-boxed-rows one-scheduler check check-quick \
	experiments \
	full clean \
	clean-bench

all:
	dune build @all

test:
	dune runtest

# Times the batch payment engine (sequential vs WNET_DOMAINS-sized domain
# pool), the incremental session engine against from-scratch batches,
# the server coalesced-burst vs eager-flush rows, plus the Bechamel
# micro-benches, and leaves the machine-readable trajectory in
# bench/results/BENCH_latest.json (+ a timestamped copy).  The gate
# compares the fresh headline wall-clocks against the previous
# BENCH_latest.json and fails on any >20% slowdown (baselines normalised
# by a machine-speed canary; suspect rows get one re-measurement before
# they can fail the run).
bench: microbench
	dune exec bench/main.exe -- micro --json --gate

# Per-primitive micro suite: one exe per primitive family under
# bench/micro/ (proto encode, proto decode, deque, heap, repair), each
# printing an ns/op table and hard-asserting ZERO minor-heap words per
# operation on the steady-state codec paths (native builds).
# bench_assemble times a cache-hit session payments rebuild (link model
# at n=400 and n=800, node model at n=400) and asserts its words per
# rebuild stay within 12 * (n + sum of path lengths), so a dense
# n-sized array per source fails it.  `make bench` runs these first so
# an allocation regression fails fast, before the wall-clock suites
# spend minutes; the same primitives also land as gated "micro/..."
# rows in BENCH_latest.json.
MICRO_BENCHES = bench_proto_encode bench_proto_decode bench_deque \
	bench_heap bench_repair bench_dijkstra bench_avoid bench_avoid_region \
	bench_assemble

microbench:
	dune build bench/micro
	@for b in $(MICRO_BENCHES); do \
	  dune exec --no-build bench/micro/$$b.exe || exit 1; \
	done

# CI variant: a single timed rep per primitive, no timing to gate on —
# but the zero-allocation assertions still run and still fail the build.
microbench-smoke:
	dune build bench/micro
	@for b in $(MICRO_BENCHES); do \
	  dune exec --no-build bench/micro/$$b.exe -- --smoke || exit 1; \
	done

# End-to-end socket front-end check: real `unicast listen` process on a
# Unix-domain socket, driven through `unicast client`, then SIGINT drain.
smoke:
	sh scripts/smoke_server.sh

# Sharded-server check: the same client transcript against --shards 1
# and --shards 2 must produce byte-identical payments, the per-shard
# stats rows must sum to the server totals, and SIGINT must drain both
# shards.
smoke-shard:
	sh scripts/smoke_shard.sh

# Distributed-simulation smoke: small-n sync and async runs of both dsim
# scenarios with the --oracle cross-check against the centralized
# references — nonzero exit on any fixed-point mismatch.
dsim-smoke:
	dune build bin/unicast.exe
	dune exec --no-build bin/unicast.exe -- dsim -n 200 --seed 7 --oracle
	dune exec --no-build bin/unicast.exe -- dsim -n 200 --seed 7 --mode async --oracle
	dune exec --no-build bin/unicast.exe -- dsim -n 200 --seed 7 --scenario costshare --oracle
	dune exec --no-build bin/unicast.exe -- dsim -n 200 --seed 7 --scenario costshare --mode async --oracle

# The node model runs on the link engine (Node_session adapts a
# Link_session over Digraph.of_node_costs); fail if a node-only copy of
# a graph kernel creeps back into the library or the CLI.
no-node-copies:
	@if grep -rnE 'repair_node_dist|node_edit|(settle|reseed)_node|node_avoid|node_weighted_dist_csr' lib bin; then \
	  echo "node-model kernel copies are back: use the link kernels" >&2; \
	  exit 1; \
	fi

# Digraph keeps one adjacency, its CSR, edited in place; fail if boxed
# rows or a CSR mirror with its own rebuild come back.
no-boxed-rows:
	@if grep -nE 'out_adj|csr_version|rebuild_csr|\(int \* float\) array array' lib/graph/digraph.ml; then \
	  echo "boxed digraph rows are back: keep the CSR the only store" >&2; \
	  exit 1; \
	fi

# Wnet_par runs every combinator through one work-stealing core; fail if
# a second combinator family comes back, or if anything but that core
# posts a job.
one-scheduler:
	@if grep -nE 'map_reduce|map_array_with|submit|await|_stealing' lib/par/wnet_par.ml lib/par/wnet_par.mli; then \
	  echo "a second scheduler is back in Wnet_par: keep parallel_for/map_array/map_array_pooled on the one core" >&2; \
	  exit 1; \
	fi
	@calls=$$(grep -v 'let run_job' lib/par/wnet_par.ml lib/par/wnet_par.mli | grep -c 'run_job'); \
	if [ "$$calls" -ne 1 ]; then \
	  echo "run_job has $$calls call sites; only the scheduler core may post a job" >&2; \
	  exit 1; \
	fi

# The whole bar: build, tier-1 tests, socket smoke, then the gated
# benchmark run.
check: all test smoke smoke-shard bench

# The fast bar for CI and pre-push: the node-copy, boxed-row and
# one-scheduler guards, build, tier-1 tests, the socket smoke, the
# micro-suite smoke (allocation assertions, no timing), and the dsim
# oracle smoke — everything deterministic, nothing wall-clock-gated.  The timing-sensitive `bench` gate stays out: it
# needs a quiet machine and a previous BENCH_latest.json to compare
# against.
check-quick: no-node-copies no-boxed-rows one-scheduler all test smoke smoke-shard microbench-smoke dsim-smoke

experiments:
	dune exec bench/main.exe -- experiments

full:
	dune exec bench/main.exe -- full

clean:
	dune clean

# Drop the dated bench snapshots that accumulate one per `make bench`
# run; BENCH_latest.json (the regression-gate baseline) is kept.
clean-bench:
	rm -f bench/results/BENCH_2*.json
