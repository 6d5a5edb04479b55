#!/bin/sh
# netclus-lint: static policy checks for the netclus tree.
#
# Two layers:
#   1. clang-tidy with the repo's .clang-tidy config, when clang-tidy is
#      installed (it consumes build/compile_commands.json, configuring
#      the build tree if needed). Skipped with a notice otherwise.
#   2. grep-based netclus-lint rules that encode house policy no
#      general-purpose tool checks:
#        - no raw assert() / <cassert> in src/ — failures must go
#          through NETCLUS_CHECK (fatal invariants) or Status (fallible
#          paths, e.g. I/O) so release builds keep their guarantees;
#        - no naked new / delete — ownership lives in containers and
#          smart pointers. The one sanctioned form is
#          std::unique_ptr<T>(new T(...)) where T's constructor is
#          private and std::make_unique cannot reach it;
#        - Status and Result<T> must stay [[nodiscard]] so ignored
#          fallible calls are compile errors under -Werror;
#        - header guards must spell NETCLUS_<PATH>_H_ so a moved header
#          cannot silently shadow another;
#        - no raw std::mutex / lock_guard / unique_lock /
#          condition_variable / shared_mutex in src/ outside
#          common/mutex.h. All locking goes through the annotated
#          netclus::Mutex wrappers: a raw primitive is invisible to
#          clang's thread-safety analysis AND to the runtime lock-rank
#          deadlock detector, so it silently re-opens both the
#          data-race and the lock-cycle holes this layer closes. New
#          code must take a rank from common/mutex.h's lock_rank table
#          (documented in DESIGN.md section 14);
#        - raw POSIX socket syscalls/headers are confined to src/net/ —
#          everything else uses the net/socket.h RAII wrappers so EINTR
#          retries, timeout mapping, and fd lifetimes stay in one place;
#        - each src/ directory includes headers only from the
#          directories its layering entry allows (graph never reaches
#          up into index/, core/, server/ or net/);
#        - the query vocabulary (src/server/query.h) and the wire layer
#          (src/net/) speak stable ObjectIds only — a raw PointId there
#          would leak epoch-local dense indices to clients;
#        - every src/ header is included from outside tests/ (its own
#          .cc aside): code only the tests use lives in tests/support/,
#          so the library holds what the system runs;
#        - every public src/ function that only tests call is listed,
#          with its reason, in DESIGN.md's test-only API ledger
#          (scripts/test_only_api.py; needs python3).
#
# Exits non-zero if any layer reports a finding.
set -u
cd "$(dirname "$0")/.."

failures=0
fail() {
  printf 'lint: %s\n' "$*" >&2
  failures=$((failures + 1))
}

# --- clang-tidy (optional layer) --------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f build/compile_commands.json ]; then
    # Same generator logic as scripts/run_all.sh: an existing build tree
    # keeps whatever generator configured it (forcing -G Ninja onto a
    # Makefiles tree is a hard CMake error); a fresh tree prefers Ninja.
    if [ -f build/CMakeCache.txt ]; then
      cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    else
      cmake -B build -G Ninja -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    fi
  fi
  echo "lint: clang-tidy over src/ (WarningsAsErrors, see .clang-tidy)"
  # shellcheck disable=SC2046 — source paths contain no whitespace.
  if ! clang-tidy --quiet -p build $(find src -name '*.cc' | sort); then
    fail "clang-tidy reported findings"
  fi
else
  echo "lint: clang-tidy not installed; skipping (netclus-lint rules still run)"
fi

# --- netclus-lint (always-on layer) -----------------------------------
for f in $(find src -name '*.h' -o -name '*.cc' | sort); do
  # Strip // comments first so prose mentioning "new" or "assert" does
  # not trip the code-pattern rules.
  stripped=$(sed 's@//.*@@' "$f")

  hits=$(printf '%s\n' "$stripped" |
    grep -nE '(^|[^[:alnum:]_])assert[[:space:]]*\(|<cassert>' |
    grep -v 'static_assert' || true)
  if [ -n "$hits" ]; then
    fail "$f: raw assert()/<cassert>; use NETCLUS_CHECK/NETCLUS_DCHECK or return a Status
$hits"
  fi

  hits=$(printf '%s\n' "$stripped" |
    grep -nE '(^|[^[:alnum:]_])new($|[^[:alnum:]_])' |
    grep -vE 'unique_ptr<[A-Za-z_:[:space:]]+>\(new ' || true)
  if [ -n "$hits" ]; then
    fail "$f: naked new; own memory via containers/smart pointers (unique_ptr<T>(new T) is allowed only for private constructors)
$hits"
  fi

  hits=$(printf '%s\n' "$stripped" |
    grep -nE '(^|[^[:alnum:]_])delete($|[^[:alnum:]_])' |
    grep -vE '=[[:space:]]*delete' || true)
  if [ -n "$hits" ]; then
    fail "$f: naked delete; ownership must be automatic
$hits"
  fi
done

# Lock-discipline tripwire: raw standard-library synchronization
# primitives bypass both the clang thread-safety annotations and the
# runtime lock-rank deadlock detector; src/common/mutex.{h,cc} is the
# one sanctioned wrapper over them.
for f in $(find src -name '*.h' -o -name '*.cc' | sort); do
  case "$f" in
    src/common/mutex.h|src/common/mutex.cc) continue ;;
  esac
  stripped=$(sed 's@//.*@@' "$f")
  hits=$(printf '%s\n' "$stripped" |
    grep -nE 'std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable|condition_variable_any)($|[^[:alnum:]_])' || true)
  if [ -n "$hits" ]; then
    fail "$f: raw std synchronization primitive; use netclus::Mutex/MutexLock/CondVar from common/mutex.h (annotated for clang TSA + ranked for the deadlock detector)
$hits"
  fi
  hits=$(printf '%s\n' "$stripped" |
    grep -nE '#include[[:space:]]*<(mutex|shared_mutex|condition_variable)>' || true)
  if [ -n "$hits" ]; then
    fail "$f: direct <mutex>/<shared_mutex>/<condition_variable> include; include \"common/mutex.h\" instead
$hits"
  fi
done

# Directory layering tripwire: each src/ directory may include headers
# from itself and from the directories listed for it below, and nothing
# else. The table is the include graph as it stands: storage sits on
# common; graph on storage; gen, ext, index and core on graph; eval and
# server on core; net on server. A header reaching up a layer (say, server/ from graph/) fails
# here instead of growing a cycle. A new directory needs a row.
layer_deps() {
  case "$1" in
    common) echo "" ;;
    storage) echo "common" ;;
    graph) echo "common storage" ;;
    gen|ext|index) echo "common graph" ;;
    core) echo "common graph" ;;
    eval) echo "common graph core" ;;
    server) echo "common storage graph core" ;;
    net) echo "common server" ;;
    *) return 1 ;;
  esac
}
for f in $(find src -mindepth 2 \( -name '*.h' -o -name '*.cc' \) | sort); do
  dir=${f#src/}
  dir=${dir%%/*}
  if ! deps=$(layer_deps "$dir"); then
    fail "$f: src/$dir/ has no row in lint.sh's layering table"
    continue
  fi
  for inc in $(sed -n 's@^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([a-z_]*\)/.*@\1@p' "$f" | sort -u); do
    case " $dir $deps " in
      *" $inc "*) ;;
      *) fail "$f: includes a $inc/ header; src/$dir/ may include only from: $dir $deps" ;;
    esac
  done
done

# Test-only header tripwire: a src/ header that nothing outside tests/
# includes (its own .cc aside) is code the system never runs. Test
# oracles and fault injection belong in tests/support/, linked into the
# test binaries only, so they cannot drift back into the library.
for f in $(find src -name '*.h' | sort); do
  rel=${f#src/}
  users=$(grep -rlE "^[[:space:]]*#[[:space:]]*include[[:space:]]*\"$rel\"" \
            src bench examples perfbench/src | grep -vx "${f%.h}.cc" || true)
  if [ -z "$users" ]; then
    fail "$f: no file outside tests/ includes it; move test-only code to tests/support/"
  fi
done

# Traversal layering tripwire: the clustering algorithms in src/core/
# must reach the Dijkstra substrate only through the graph-layer entry
# points (PointNetworkDistance / RangeQuery), so each point query has
# one implementation.
for f in $(find src/core -name '*.h' -o -name '*.cc' | sort); do
  stripped=$(sed 's@//.*@@' "$f")
  hits=$(printf '%s\n' "$stripped" |
    grep -nE 'DijkstraExpandBounded[[:space:]]*\(|DijkstraDistances[[:space:]]*\(' || true)
  if [ -n "$hits" ]; then
    fail "$f: direct Dijkstra expansion from src/core/; go through PointNetworkDistance/RangeQuery so traversal counters stay wired
$hits"
  fi
done

# De-virtualization tripwire: traversal inner loops in src/core/ and
# src/index/ must iterate neighbors through the template adapter
# VisitNeighbors(graph, n, fn) — which inlines the FrozenGraph CSR walk
# — never through the virtual NetworkView::ForEachNeighbor, and must
# never take a settle callback as std::function (type erasure defeats
# the inlining the snapshot exists for).
for f in $(find src/core src/index -name '*.h' -o -name '*.cc' | sort); do
  stripped=$(sed 's@//.*@@' "$f")
  hits=$(printf '%s\n' "$stripped" |
    grep -nE 'ForEachNeighbor[[:space:]]*\(' || true)
  if [ -n "$hits" ]; then
    fail "$f: ForEachNeighbor call outside src/graph/; traverse via VisitNeighbors(graph, n, fn) so the FrozenGraph CSR path stays inlined
$hits"
  fi
  hits=$(printf '%s\n' "$stripped" |
    grep -nE 'std::function<bool[[:space:]]*\(' || true)
  if [ -n "$hits" ]; then
    fail "$f: std::function settle callback outside src/graph/; pass the functor as a template parameter (see DijkstraExpandBounded)
$hits"
  fi
done

# Point-layer tripwire: the algorithms' hot loops read edge points
# through graph/edge_points.h's EdgePointReader, which serves them from
# the FrozenGraph's co-owned PointSet in place — no virtual call, no hash
# lookup, no copy — and reads through the view only when the view itself
# is the traversal graph (disk-backed runs). A direct view read in these
# files would silently put the per-point virtual call back. The independent
# oracles in core/validate.cc read through the view on purpose and are
# not listed.
for f in src/core/kmedoids.cc src/core/eps_link.cc src/core/dbscan.cc; do
  stripped=$(sed 's@//.*@@' "$f")
  hits=$(printf '%s\n' "$stripped" |
    grep -nE '(GetEdgePoints|ForEachPointGroup)[[:space:]]*\(' || true)
  if [ -n "$hits" ]; then
    fail "$f: direct view point read in a point-layer hot file; read edge points through EdgePointReader (graph/edge_points.h)
$hits"
  fi
done

# Socket-confinement tripwire: raw POSIX socket syscalls and their
# headers live in src/net/ only. Everywhere else talks to the network
# through net/socket.h's RAII wrappers (which own EINTR retries,
# MSG_NOSIGNAL, timeout-errno mapping, and fd lifetimes) or the
# client/server layers above them — a stray socket() elsewhere would
# re-open every one of those holes and dodge the net.* counters.
for f in $(find src tests examples bench -name '*.h' -o -name '*.cc' -o -name '*.cpp' | sort); do
  case "$f" in src/net/*) continue ;; esac
  stripped=$(sed 's@//.*@@' "$f")
  hits=$(printf '%s\n' "$stripped" |
    grep -nE '#include[[:space:]]*<(sys/socket\.h|netinet/in\.h|netinet/tcp\.h|arpa/inet\.h|netdb\.h)>' || true)
  if [ -n "$hits" ]; then
    fail "$f: raw socket header outside src/net/; use net/socket.h (RAII fds, EINTR retries, timeout mapping)
$hits"
  fi
  hits=$(printf '%s\n' "$stripped" |
    grep -nE '(^|[^[:alnum:]_:.])(socket|bind|listen|accept|connect|setsockopt|getsockname|getaddrinfo|recvfrom|sendto)[[:space:]]*\(' || true)
  if [ -n "$hits" ]; then
    fail "$f: raw socket syscall outside src/net/; go through net/socket.h's Socket/ListenSocket wrappers
$hits"
  fi
done

# Identity-boundary tripwire: the public query vocabulary
# (src/server/query.h) and the wire layer (src/net/) speak stable
# ObjectIds only. A raw PointId there would leak dense epoch-local
# indices to clients, where they go stale at the next publish —
# exactly the bug the identity map exists to prevent (DESIGN.md
# section 16). Translation happens inside the server, against the
# epoch snapshot that resolved the query.
for f in src/server/query.h $(find src/net -name '*.h' -o -name '*.cc' | sort); do
  stripped=$(sed 's@//.*@@' "$f")
  hits=$(printf '%s\n' "$stripped" |
    grep -nE '(^|[^[:alnum:]_])(PointId|kInvalidPointId)($|[^[:alnum:]_])' || true)
  if [ -n "$hits" ]; then
    fail "$f: raw PointId at the identity boundary; query payloads and the wire speak stable ObjectIds (translate inside the server against the resolving epoch)
$hits"
  fi
done

# Header guards: src/foo/bar.h must guard with NETCLUS_FOO_BAR_H_.
for f in $(find src -name '*.h' | sort); do
  rel=${f#src/}
  guard="NETCLUS_$(printf '%s' "${rel%.h}" | tr 'a-z/.' 'A-Z__')_H_"
  if ! grep -q "^#ifndef ${guard}\$" "$f" ||
     ! grep -q "^#define ${guard}\$" "$f"; then
    fail "$f: header guard must be ${guard}"
  fi
done

# Test-only API ledger: a public function of a src/ header that nothing
# outside tests/ calls is kept only with a reason in DESIGN.md's
# appendix. A new one must be listed there (or deleted); a listed one
# that production code now calls must leave the ledger.
if command -v python3 >/dev/null 2>&1; then
  if ! ledger=$(python3 scripts/test_only_api.py --ledger DESIGN.md); then
    fail "DESIGN.md test-only API ledger is out of date (list the function with its reason, or delete it)
$ledger"
  fi
else
  echo "lint: python3 not installed; skipping the test-only API ledger check"
fi

# The whole ignored-Status story hangs on these two annotations; make
# sure a refactor cannot drop them silently.
if ! grep -q 'class \[\[nodiscard\]\] Status' src/common/status.h; then
  fail "src/common/status.h: Status lost its [[nodiscard]]"
fi
if ! grep -q 'class \[\[nodiscard\]\] Result' src/common/status.h; then
  fail "src/common/status.h: Result<T> lost its [[nodiscard]]"
fi

if [ "$failures" -gt 0 ]; then
  echo "lint: FAILED ($failures finding(s))" >&2
  exit 1
fi
echo "lint: OK"
