#!/bin/sh
# Local CI: build and test the three flavors we care about — an optimized
# Release build, AddressSanitizer, and UndefinedBehaviorSanitizer.
#
#   tools/ci.sh [jobs]
#
# Build trees live under build-ci/ (ignored by git).  Fails fast on the
# first failing build or test batch.
set -eu

jobs=${1:-$(nproc 2>/dev/null || echo 4)}
root=$(cd "$(dirname "$0")/.." && pwd)

run_flavor() {
    name=$1
    shift
    dir="$root/build-ci/$name"
    echo "=== [$name] configure + build ==="
    cmake -B "$dir" -S "$root" "$@"
    cmake --build "$dir" -j "$jobs"
    echo "=== [$name] ctest ==="
    (cd "$dir" && ctest --output-on-failure -j "$jobs")
}

run_flavor release -DCMAKE_BUILD_TYPE=Release -DIOP_SANITIZE=
# Leak checking is off for the ASan flavor: coroutine frames of daemon
# processes (flusher loops, blocked waiters) are deliberately abandoned in
# waiter lists at engine teardown — destroying them there could release
# tokens into already-destroyed resources.  ASan still catches
# use-after-free / out-of-bounds, which is what we want from this flavor.
export ASAN_OPTIONS=detect_leaks=0
run_flavor asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIOP_SANITIZE=address
unset ASAN_OPTIONS
run_flavor ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIOP_SANITIZE=undefined

# ThreadSanitizer covers the one multithreaded subsystem: the sweep
# layer — the cell-evaluation executor (including the fault-injected
# degraded cells of SweepExecutor.FaultAxisEndToEndDeterministicAndCached
# and the cancel/resume path), the parallel app characterization at
# campaign resolve (CampaignResolve.ParallelCharacterizationMatchesSerial,
# with the shared thread-local FrameArena under concurrent engines), and
# the one telemetry lock in front of the metrics registry and the exec
# trace (RuntimeTelemetry.ConcurrentInstrumentUpdatesAreLossless: 8
# workers claiming and committing cells while the snapshot thread renders
# every 10 ms, plus the journal and snapshot threads of the byte-identity
# test).
# Building only its test keeps the flavor cheap; everything else in the
# tree is single-threaded by design.  The ASan/UBSan flavors above run the
# full suite, so the hostile-input trace corpus (TraceFileHostile.*) and
# the corrupt store-cell tests execute under both sanitizers.
tsan_dir="$root/build-ci/tsan"
echo "=== [tsan] configure + build sweep_test ==="
cmake -B "$tsan_dir" -S "$root" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DIOP_SANITIZE=thread
cmake --build "$tsan_dir" -j "$jobs" --target sweep_test
echo "=== [tsan] sweep_test ==="
"$tsan_dir/tests/sweep_test"

echo "=== all flavors green ==="
