#!/bin/sh
# Builds everything, runs the test suite, and regenerates every paper
# table/figure. Outputs land in test_output.txt and bench_output.txt at
# the repository root.
#
# NETCLUS_BENCH_SCALE (default 0.1) selects the fraction of the paper's
# published dataset sizes the harnesses run at.
#
# `scripts/run_all.sh tsan` instead builds a ThreadSanitizer
# configuration in build-tsan and runs the concurrency-sensitive tests
# (thread pool, parallel restarts/range queries, determinism) under it.
#
# `scripts/run_all.sh asan` builds an AddressSanitizer configuration in
# build-asan and runs the storage + paged-file + B+-tree +
# fault-injection + corruption suites — the paths that chew on
# deliberately damaged bytes — under it.
#
# `scripts/run_all.sh ubsan` builds an UndefinedBehaviorSanitizer
# configuration (-fno-sanitize-recover=all, so any UB is a hard test
# failure) in build-ubsan and runs the core algorithm suites under it.
#
# `scripts/run_all.sh validate` builds with -DNETCLUS_VALIDATE=ON in
# build-validate — every RunClustering re-verifies its result with the
# core/validate.h invariant validators — and runs the full test suite.
#
# `scripts/run_all.sh lint` runs scripts/lint.sh (clang-tidy when
# installed, plus the grep-based netclus-lint policy rules) and fails on
# any finding.
#
# `scripts/run_all.sh tsa` runs scripts/check_tsa.sh: clang's
# -Wthread-safety analysis over the negative-compile snippets in
# tests/tsa/ (seeded lock-discipline violations must be rejected) and
# then the whole tree, writing tsa_output.txt. Skips with a notice when
# no clang is installed (gcc has no thread-safety analysis).
#
# `scripts/run_all.sh bench-smoke` builds the default configuration and
# runs the minutes-scale bench_smoke harness (a range-query row, the
# served-distance cache cold/warm contrast and an ungated k-medoids row
# on a small generated network) plus the frozen_traversal
# contrast (FrozenGraph snapshot vs live view: identical counters,
# >= 1.3x speedup) and the server_throughput harness (queries/sec at
# 1/4/8 workers + p99 queue wait, with a hardware-aware 1->4 worker
# scaling gate, an ungated edge-per-publish record, incremental/full
# publish-latency ratios gated below 0.5 with ε-Link re-clustering and
# below 0.5 for point-only publishes, every point-only publish
# sharing its predecessor's CSR adjacency, the point-only CSR stage
# median below 0.2 ms, and an ungated NA-size one-point publish record
# whose `na publish:` line it greps) and the paper driver (bench/paper: every
# paper table/figure and ablation, each shape gated on settled nodes,
# page reads or partitions; it prints FAIL and exits 1 when a gated shape
# breaks), leaving machine-readable BENCH_*.json files at the repository
# root.
#
# `scripts/run_all.sh server-smoke` builds the default configuration,
# runs the query-server test suites (vocabulary, epoch manager,
# QueryServer), an end-to-end netclus_cli serve pass with replay
# validation on, and the server_throughput bench.
#
# `scripts/run_all.sh net-smoke` builds the default configuration, runs
# the wire-codec and socket front-end suites, serves a generated town on
# an ephemeral TCP port, drives it with the netclus_cli query client
# (client-side replay against the inline path), and runs the
# net_throughput bench (loopback qps + p99 RTT vs in-process,
# BENCH_net.json). Both ends must report zero replay mismatches.
#
# `scripts/run_all.sh chaos-smoke` builds the default configuration and
# runs the resilience suites (mutation WAL, chaos soak, deadline &
# cancellation) plus a netclus_cli serve pass with a durable WAL and a
# per-query deadline, restarted once on the same log to prove crash
# recovery end to end.
#
# The default mode is the full verify flow: lint, then the tsa check
# (skips cleanly without clang), then build + tests + benches, then the
# ubsan configuration over the core algorithm suites.
set -e
cd "$(dirname "$0")/.."

# Configures the default build tree. Prefer Ninja on a fresh checkout,
# but an existing build/ keeps whatever generator created it (the tier-1
# verify flow configures it with the platform default).
configure_build() {
  if [ -f build/CMakeCache.txt ]; then
    cmake -B build
  else
    cmake -B build -G Ninja
  fi
}

if [ "${1:-}" = "lint" ]; then
  exec sh scripts/lint.sh
fi

# Note: no `| tee` here — under `set -e` a pipeline's status is tee's,
# which would swallow a check_tsa.sh failure. Redirect, then replay.
run_tsa() {
  if sh scripts/check_tsa.sh > tsa_output.txt 2>&1; then
    cat tsa_output.txt
  else
    cat tsa_output.txt
    echo "run_all: tsa check failed (see tsa_output.txt)" >&2
    exit 1
  fi
}

if [ "${1:-}" = "tsa" ]; then
  run_tsa
  exit 0
fi

if [ "${1:-}" = "ubsan" ]; then
  cmake -B build-ubsan -G Ninja -DNETCLUS_SANITIZE=undefined
  cmake --build build-ubsan
  ctest --test-dir build-ubsan --output-on-failure \
    -R 'KMedoids|EpsLink|Dbscan|SingleLink|Dendrogram|Dijkstra|RangeQuery|Knn|PointDistance|ExactLength|Landmark|InterestingLevels|Optics|Validate|NetclusApi|Integration|Index|DistanceCache|Frozen|Wal|Checkpoint|Incremental|World|Cancel|Deadline|WireCodec|WireFrame|Crc32c|PointSetMerge|Renumbering' \
    2>&1 | tee ubsan_output.txt
  exit 0
fi

if [ "${1:-}" = "validate" ]; then
  cmake -B build-validate -G Ninja -DNETCLUS_VALIDATE=ON
  cmake --build build-validate
  ctest --test-dir build-validate --output-on-failure \
    2>&1 | tee validate_output.txt
  exit 0
fi

if [ "${1:-}" = "asan" ]; then
  cmake -B build-asan -G Ninja -DNETCLUS_SANITIZE=address
  cmake --build build-asan
  ctest --test-dir build-asan --output-on-failure \
    -R 'Storage|Buffer|PagedFile|Checksum|Crc32c|FaultInjection|FaultSoak|Corruption|BPlusTree|NetworkStore|TextIo' \
    2>&1 | tee asan_output.txt
  exit 0
fi

if [ "${1:-}" = "tsan" ]; then
  cmake -B build-tsan -G Ninja -DNETCLUS_SANITIZE=thread
  cmake --build build-tsan
  ctest --test-dir build-tsan --output-on-failure \
    -R 'ThreadPool|Parallel|Determin|Restart|DistanceCache|EpochManager|QueryServer|Landmark|Wal|Checkpoint|Incremental|Chaos|Deadline|Cancel|Mutex|CondVar|TcpServerLoopback|NetClient|NetSoak|NetStats' \
    2>&1 | tee tsan_output.txt
  exit 0
fi

if [ "${1:-}" = "server-smoke" ]; then
  configure_build
  cmake --build build
  ctest --test-dir build --output-on-failure \
    -R 'QueryVocabulary|EpochManager|QueryServer' \
    2>&1 | tee server_smoke_output.txt
  # End-to-end: generate a town, serve it with concurrent clients and
  # mutating epochs, with every served batch replay-validated against
  # the inline path.
  ./build/examples/netclus_cli generate --nodes 1500 --points 3000 \
    --clusters 6 --seed 7 --out /tmp/netclus_serve_smoke.net \
    2>&1 | tee -a server_smoke_output.txt
  ./build/examples/netclus_cli serve --in /tmp/netclus_serve_smoke.net \
    --workers 4 --clients 4 --queries 2000 --mutations 12 --validate on \
    2>&1 | tee -a server_smoke_output.txt
  ./build/bench/server_throughput 2>&1 | tee -a server_smoke_output.txt
  ls BENCH_server.json
  exit 0
fi

if [ "${1:-}" = "net-smoke" ]; then
  configure_build
  cmake --build build
  ctest --test-dir build --output-on-failure \
    -R 'WireCodec|WireFrame|TcpServerLoopback|NetClient|NetSoak|NetStats' \
    2>&1 | tee net_smoke_output.txt
  # End-to-end over a real socket: serve a generated town on an
  # ephemeral port with replay validation on, drive it with the CLI
  # query client (which replays every response against the inline
  # path), then stop the server via its stop-file. Both the client and
  # the server must report zero replay mismatches.
  rm -f /tmp/netclus_net_smoke.port /tmp/netclus_net_smoke.stop
  ./build/examples/netclus_cli generate --nodes 1500 --points 3000 \
    --clusters 6 --seed 7 --out /tmp/netclus_net_smoke.net \
    2>&1 | tee -a net_smoke_output.txt
  ./build/examples/netclus_cli serve --in /tmp/netclus_net_smoke.net \
    --workers 4 --validate on --port 0 \
    --port-file /tmp/netclus_net_smoke.port \
    --stop-file /tmp/netclus_net_smoke.stop --serve-seconds 120 \
    >> net_smoke_output.txt 2>&1 &
  serve_pid=$!
  tries=0
  while [ ! -s /tmp/netclus_net_smoke.port ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "run_all: serve never published its port" >&2
      kill "$serve_pid" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
  ./build/examples/netclus_cli query --in /tmp/netclus_net_smoke.net \
    --connect "127.0.0.1:$(cat /tmp/netclus_net_smoke.port)" \
    --clients 4 --queries 2000 --check on \
    2>&1 | tee -a net_smoke_output.txt
  touch /tmp/netclus_net_smoke.stop
  wait "$serve_pid"
  grep -q 'client replay: .* 0 mismatches' net_smoke_output.txt
  grep -q '^replay: .* batches validated, 0 mismatches' net_smoke_output.txt
  ./build/bench/net_throughput 2>&1 | tee -a net_smoke_output.txt
  ls BENCH_net.json
  exit 0
fi

if [ "${1:-}" = "chaos-smoke" ]; then
  configure_build
  cmake --build build
  ctest --test-dir build --output-on-failure \
    -R 'Wal|Checkpoint|Incremental|Chaos|Deadline|Cancel' \
    2>&1 | tee chaos_smoke_output.txt
  # End-to-end crash recovery: serve with a durable WAL and per-query
  # deadlines, then restart on the same log — the second run must
  # replay every mutation the first one accepted.
  rm -f /tmp/netclus_chaos_smoke.wal /tmp/netclus_chaos_smoke.wal.ckpt.a \
    /tmp/netclus_chaos_smoke.wal.ckpt.b
  ./build/examples/netclus_cli generate --nodes 1500 --points 3000 \
    --clusters 6 --seed 7 --out /tmp/netclus_chaos_smoke.net \
    2>&1 | tee -a chaos_smoke_output.txt
  ./build/examples/netclus_cli serve --in /tmp/netclus_chaos_smoke.net \
    --workers 4 --clients 4 --queries 2000 --mutations 12 --validate on \
    --wal /tmp/netclus_chaos_smoke.wal --deadline-ms 250 \
    2>&1 | tee -a chaos_smoke_output.txt
  ./build/examples/netclus_cli serve --in /tmp/netclus_chaos_smoke.net \
    --workers 4 --clients 4 --queries 1000 --mutations 0 \
    --wal /tmp/netclus_chaos_smoke.wal --deadline-ms 250 \
    2>&1 | tee -a chaos_smoke_output.txt
  grep -q '12 records replayed at boot' chaos_smoke_output.txt
  # Checkpoint + compaction round: the same world, now checkpointing
  # every 4 records. The serve replays the 12 logged mutations, adds 12
  # more, and compacts the log behind its checkpoints; `wal inspect`
  # must show a valid checkpoint, and a final kill/restart must boot
  # from it rather than from a full-log replay.
  ./build/examples/netclus_cli serve --in /tmp/netclus_chaos_smoke.net \
    --workers 4 --clients 4 --queries 1000 --mutations 12 --validate on \
    --wal /tmp/netclus_chaos_smoke.wal --wal-checkpoint-every 4 \
    2>&1 | tee -a chaos_smoke_output.txt
  ./build/examples/netclus_cli wal inspect \
    --wal /tmp/netclus_chaos_smoke.wal \
    2>&1 | tee -a chaos_smoke_output.txt
  grep -q 'checkpoint /tmp/netclus_chaos_smoke.wal.ckpt.[ab]: generation' \
    chaos_smoke_output.txt
  ./build/examples/netclus_cli serve --in /tmp/netclus_chaos_smoke.net \
    --workers 4 --clients 4 --queries 500 --mutations 0 \
    --wal /tmp/netclus_chaos_smoke.wal --wal-checkpoint-every 4 \
    2>&1 | tee -a chaos_smoke_output.txt
  grep -q 'recovered from checkpoint' chaos_smoke_output.txt
  exit 0
fi

if [ "${1:-}" = "bench-smoke" ]; then
  configure_build
  cmake --build build
  # The served distances run over a snapshot with landmark tables: cold
  # vs warm through the cache, and the same pairs over the view without
  # tables, which must return the same bits with at least 5x the
  # settles.
  ./build/bench/bench_smoke 2>&1 | tee bench_smoke_output.txt
  # Frozen-vs-view traversal contrast: exits non-zero unless the
  # counters match exactly and the snapshot path is >= 1.3x faster.
  ./build/bench/frozen_traversal 2>&1 | tee -a bench_smoke_output.txt
  # Query-server throughput at 1/4/8 workers with the hardware-aware
  # 1->4 scaling gate (the median of three alternating 1- and 4-worker
  # rounds, all three ratios printed), plus the publish-latency
  # contrasts (one AddEdge per publish, an ungated record: both builds
  # rebuild the adjacency; incremental vs full ε-Link re-cluster with
  # about one point per node; PointSet merge over a shared adjacency vs
  # full build with one AddPoint per publish, its CSR stage median gated
  # below 0.2 ms, sharing its landmark tables on every build), the
  # edge leg's landmark carry record, and two gated medians of the
  # re-cluster leg: the CSR stage of its AddEdge builds (<= 0.25 ms)
  # and World::Checkpoint() over its 20k-node world (<= 0.9 ms).
  ./build/bench/server_throughput 2>&1 | tee -a bench_smoke_output.txt
  # Every paper table/figure and ablation from one table, each shape
  # gated on hardware-independent counts (settles, page reads,
  # partitions) as EXPERIMENTS.md records them.
  ./build/bench/paper 2>&1 | tee -a bench_smoke_output.txt
  # Plain sh has no pipefail, so the tee above swallows the harnesses'
  # exit codes — re-assert their gates from the captured output: all
  # three publish-latency rows, the points-only CSR stage, AddEdge CSR
  # stage, checkpoint and re-cluster stage lines, the three scaling
  # ratios with their median and the
  # paper driver's summary must be present, every point-only build must
  # have shared its predecessor's adjacency and landmark tables (n/n),
  # bench_smoke's landmark_build row and its served-distance landmark
  # verdict must be present, and no harness printed FAIL.
  grep -q 'publish latency: full .* (ratio' bench_smoke_output.txt
  grep -q 'publish latency with re-cluster: full .* (ratio' \
    bench_smoke_output.txt
  grep -q 'publish latency, points only: full .* (ratio .*adjacency shared \([0-9]*\)/\1$' \
    bench_smoke_output.txt
  grep -q '^points-only csr stage: median .* ms over [0-9]* builds, .* (gate < 0.2 ms)$' \
    bench_smoke_output.txt
  grep -q '^re-cluster stage: incremental median .* ms' bench_smoke_output.txt
  grep -q '^na publish: median .* ms over [0-9]* one-point builds at 175980 nodes, .* (points .*, csr .*, re-cluster .* ms)' \
    bench_smoke_output.txt
  grep -q '^edge csr stage: median .* ms over the [0-9]* AddEdge builds .* (gate <= 0.25 ms)$' \
    bench_smoke_output.txt
  grep -q '^checkpoint: median .* ms over [0-9]* calls .* (gate <= 0.9 ms)$' \
    bench_smoke_output.txt
  grep -q '^points-only landmarks: shared \([0-9]*\)/\1 ' \
    bench_smoke_output.txt
  grep -q '^edge landmarks: carried [0-9]*/[0-9]* ' bench_smoke_output.txt
  grep -q '^landmark_build ' bench_smoke_output.txt
  grep -q '^OK: served_distance_cold settles .*x fewer nodes than served_distance_view' \
    bench_smoke_output.txt
  grep -q '^scaling 1->4 workers: .*x .*x .*x, median .*x' \
    bench_smoke_output.txt
  grep -q '^paper summary: .* 0 failed' bench_smoke_output.txt
  if grep -q 'FAIL' bench_smoke_output.txt; then
    echo "run_all: a bench gate failed (see bench_smoke_output.txt)" >&2
    exit 1
  fi
  ls BENCH_*.json
  exit 0
fi

sh scripts/lint.sh
run_tsa
configure_build
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] && "$b"
done 2>&1 | tee bench_output.txt

# UB-freedom of the core algorithms is part of the default verify bar.
sh scripts/run_all.sh ubsan
