#!/bin/sh
# Full pre-merge check matrix: a Release build running the whole test
# suite, a ThreadSanitizer build running the `concurrency`-labeled tests,
# and AddressSanitizer + UndefinedBehaviorSanitizer builds running the
# whole suite again (UBSan matters for the scan kernel: unaligned loads
# and mask arithmetic are easy places to hide UB). Builds land in
# build-checks/<name> so the developer's main build/ tree is untouched.
#
#   tools/run_checks.sh            # the full matrix
#   tools/run_checks.sh release    # one of: release | tsan | asan | ubsan | storage | update | durability | server | workload
#
# `storage` is a fast focused leg: it reuses the release build and runs only
# the `storage`-labeled tests (page stores, fault injection, the coalesced
# preadv/pwritev batches) — the suite to iterate on when touching
# src/storage/.
#
# `update` reuses the release build and runs the `update`-labeled tests
# (batched insert/delete execution and the write-side fault injection) —
# the suite to iterate on when touching the update executor or the
# writeback path.
#
# `durability` reuses the release build and runs the `durability`-labeled
# tests (WAL framing, group commit, crash-point recovery). The ctest
# definitions already set RTB_NO_FSYNC=1 — the crash model fails the
# process, not the kernel.
#
# `workload` runs the `workload`-labeled tests (unified query classes,
# partial-match oracle, skewed generators, spec round-trips, open-axis and
# batched model validation) on the release build and again under an ASan
# build: the shared-generator determinism case and the center-set lifetime
# case are exactly what ASan watches.
#
# `server` runs the `server`-labeled tests (wire codec, the coalescing
# admission loop, graceful shutdown, kill-during-load recovery) under both
# TSan and ASan builds: the epoll loop races real client threads in
# server_test, which is exactly the surface those sanitizers watch.
#
# The release leg also guards the perf trajectory: it runs
# micro_batch_query, micro_partial_match, micro_file_io, micro_update_batch,
# micro_wal_commit and micro_server_qps three times each (the last two under
# RTB_NO_FSYNC=1) and gates each row's median throughput against the
# committed BENCH_*.json baselines with tools/bench_diff.py at 25%: single
# runs of an unchanged binary have read -28% on a busy shared host, while a
# structural regression (an extra copy on the hot path, -25%..-30%) shows
# in every run. All six benches run and report even when an earlier one
# fails; the leg then exits non-zero naming every failed bench.
#
# The release tree (shared by the release, storage, update, durability and
# workload legs) builds with -DRTB_WERROR=ON, so a new warning fails the
# check instead of scrolling by in the build log.
#
# Sanitizer builds skip the benchmarks (RTB_BUILD_BENCHMARKS=OFF) — they
# only slow the build down and the bench smoke test already runs in the
# Release pass.
set -e

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
ONLY="${1:-all}"

case "$ONLY" in
  all|release|tsan|asan|ubsan|storage|update|durability|server|workload) ;;
  *)
    echo "unknown configuration: $ONLY (expected release|tsan|asan|ubsan|storage|update|durability|server|workload)" >&2
    exit 2
    ;;
esac

configure_and_build() {
  # $1 = build dir, then the extra cmake flags.
  dir="$1"
  shift
  cmake -S "$ROOT" -B "$dir" -DCMAKE_BUILD_TYPE=Release "$@" \
      > "$dir-configure.log" 2>&1 || { cat "$dir-configure.log"; exit 1; }
  cmake --build "$dir" -j "$JOBS" > "$dir-build.log" 2>&1 \
      || { tail -50 "$dir-build.log"; exit 1; }
}

wants() { [ "$ONLY" = "all" ] || [ "$ONLY" = "$1" ]; }

mkdir -p "$ROOT/build-checks"

if wants release; then
  echo "==> release"
  configure_and_build "$ROOT/build-checks/release" -DRTB_WERROR=ON
  (cd "$ROOT/build-checks/release" && ctest --output-on-failure)
  echo "==> bench diff vs committed baselines"
  # Every bench runs and reports its diff; the leg fails after the last one
  # if any bench crashed or missed its baseline.
  failed=""
  for bench in micro_batch_query micro_partial_match micro_file_io \
               micro_update_batch micro_wal_commit micro_server_qps; do
    # micro_wal_commit and micro_server_qps run with real fsync suppressed
    # so their baselines track the code path's work, not the host's disk
    # latency.
    env=""
    case "$bench" in
      micro_wal_commit|micro_server_qps) env="RTB_NO_FSYNC=1" ;;
    esac
    out="$ROOT/build-checks/release/BENCH_$bench"
    ran=1
    for i in 1 2 3; do
      if ! env $env "$ROOT/build-checks/release/bench/$bench" \
          --json="$out.$i.json" > "$out.$i.log" 2>&1; then
        cat "$out.$i.log"
        ran=0
        break
      fi
    done
    if [ "$ran" = 1 ] && python3 "$ROOT/tools/bench_diff.py" \
        --threshold 0.25 "$ROOT/BENCH_$bench.json" \
        "$out.1.json" "$out.2.json" "$out.3.json"; then
      :
    else
      failed="$failed $bench"
    fi
  done
  if [ -n "$failed" ]; then
    echo "bench diff failed:$failed" >&2
    exit 1
  fi
fi

if wants storage; then
  echo "==> storage"
  configure_and_build "$ROOT/build-checks/release" -DRTB_WERROR=ON
  (cd "$ROOT/build-checks/release" && ctest -L storage --output-on-failure)
fi

if wants update; then
  echo "==> update"
  configure_and_build "$ROOT/build-checks/release" -DRTB_WERROR=ON
  (cd "$ROOT/build-checks/release" && ctest -L update --output-on-failure)
fi

if wants durability; then
  echo "==> durability"
  configure_and_build "$ROOT/build-checks/release" -DRTB_WERROR=ON
  (cd "$ROOT/build-checks/release" && ctest -L durability --output-on-failure)
fi

if wants workload; then
  echo "==> workload (release, then ASan)"
  configure_and_build "$ROOT/build-checks/release" -DRTB_WERROR=ON
  (cd "$ROOT/build-checks/release" && ctest -L workload --output-on-failure)
  configure_and_build "$ROOT/build-checks/asan" \
      -DRTB_SANITIZE=address -DRTB_BUILD_BENCHMARKS=OFF
  (cd "$ROOT/build-checks/asan" && ctest -L workload --output-on-failure)
fi

if wants server; then
  echo "==> server (TSan, then ASan)"
  configure_and_build "$ROOT/build-checks/tsan" \
      -DRTB_SANITIZE=thread -DRTB_BUILD_BENCHMARKS=OFF
  (cd "$ROOT/build-checks/tsan" && ctest -L server --output-on-failure)
  configure_and_build "$ROOT/build-checks/asan" \
      -DRTB_SANITIZE=address -DRTB_BUILD_BENCHMARKS=OFF
  (cd "$ROOT/build-checks/asan" && ctest -L server --output-on-failure)
fi

if wants tsan; then
  echo "==> tsan"
  configure_and_build "$ROOT/build-checks/tsan" \
      -DRTB_SANITIZE=thread -DRTB_BUILD_BENCHMARKS=OFF
  (cd "$ROOT/build-checks/tsan" && ctest -L concurrency --output-on-failure)
fi

if wants asan; then
  echo "==> asan"
  configure_and_build "$ROOT/build-checks/asan" \
      -DRTB_SANITIZE=address -DRTB_BUILD_BENCHMARKS=OFF
  (cd "$ROOT/build-checks/asan" && ctest --output-on-failure)
fi

if wants ubsan; then
  echo "==> ubsan"
  configure_and_build "$ROOT/build-checks/ubsan" \
      -DRTB_SANITIZE=undefined -DRTB_BUILD_BENCHMARKS=OFF
  (cd "$ROOT/build-checks/ubsan" && ctest --output-on-failure)
fi

echo "all requested checks passed"
