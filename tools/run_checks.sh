#!/usr/bin/env bash
# One-command verification gate (see docs/testing.md):
#   1. default build  — tier-1 (deterministic) then tier-2 (randomized
#      property + statistical suites),
#   2. TSan build     — the sharded-simulator determinism suite, the
#      lock-free metrics-registry concurrency suite, and the
#      admin-introspection snapshot-under-fire suite (scrapes racing the
#      4-thread slot loop),
#   3. ASan+UBSan     — the wire codec, message framing and fuzz
#      round-trip suites (truncation/corruption paths must not overread),
#   4. observability gate — slot-loop throughput with collect_runtime_stats
#      on, and separately with the per-call flight recorder on (default
#      sampling), must each stay within 3% of the bare loop
#      (bench/perf_scale measures the interleaved triple and reports
#      telemetry_overhead_pct / flight_overhead_pct on its PCN_BENCH line),
#   5. trace SLA gate  — a canned delay-bounded scenario is simulated with
#      --trace-out and `pcnctl trace-summary` must find zero calls paged in
#      more than m cycles (it exits 1 on any violation); when python3 is
#      available, a fresh BENCH_table1_one_dim.json is also diffed against
#      the blessed baseline with tools/bench_compare.py,
#   6. engine equivalence gate — the same canned scenarios (1-D and 2-D)
#      simulated under --engine reference and --engine simd must print
#      byte-identical reports (both engines draw through one
#      per-(terminal, slot) contract; any drift fails the diff),
#   7. SIMD gate — the SIMD-vs-reference statistical-equivalence suite
#      (tier-2 oracles), the perf_micro per-slot-cost bench in smoke mode,
#      and the pcnctl --engine simd CLI path (positive when the hardware
#      supports a kernel, and the forced-unsupported error path under
#      PCN_SIMD_ISA=none),
#   8. portable-fallback build — the AVX2 kernel configured OFF
#      (-DPCN_SIMD_AVX2=OFF) must compile and pass tier-1, proving the
#      scalar-emulation kernel carries the engine on non-AVX2 hardware,
#   9. pcnd daemon gate — the bounded-paging-queue property suite and the
#      2x-overload soak (1 vs 4 threads, bit-identical counters) at smoke
#      scale, a pcnd CLI overload run that must emit a daemon run report,
#      and the perf_daemon closed-loop bench diffed against its blessed
#      baseline with tools/bench_compare.py,
#  10. live introspection gate — a pcnd overload run with --admin-socket
#      is scraped mid-flight by `pcnctl top --once --json` (must exit 0
#      and print a pcn.live_snapshot.v1 document), and the interleaved
#      introspection-overhead measurement from gate 9's perf_daemon run
#      (live stats + admin scrapes on vs off at the 1x point) must stay
#      within 2 percentage points,
#  11. run-timeline gate — the 2x-overload scenario runs with
#      --series-out, `pcnctl timeline --reencode` must round-trip the
#      pcn.timeseries.v1 file byte-exactly (cmp), its CUSUM changepoint
#      verdict must place overload_onset_slot inside the blessed band,
#      and the timeseries capture-overhead measurement from gate 9's
#      perf_daemon run must stay within 2 percentage points,
#  12. admission-policy gate — the 2x-overload pcnd scenario runs once
#      per admission policy (drop_newest, drop_oldest,
#      priority_delay_bound) at 1 and 4 threads; every deterministic
#      report line (pages, admission, drop rate, delay, sla) must be
#      byte-identical across thread counts, the failure mass must sit on
#      the policy's own counter (tail drops vs evictions), and each
#      policy's drop rate must land in the blessed overload band.
#
# Environment:
#   JOBS=N   parallelism for builds and ctest (default: nproc)
#
# Gates 4 and 7 run the benches at smoke scale via PCN_SCALE_TERMINALS /
# PCN_SCALE_SLOTS and PCN_MICRO_TERMINALS / PCN_MICRO_SLOTS; export your
# own values to override (the bench defaults are the full 10M-terminal
# comparison, minutes of wall clock).  Gate 9 pins its perf_daemon scale
# to the blessed baseline's (bench_compare exact-matches the config echo).
#
# Perf trajectory: after their compares pass, gates 4 and 9 refresh the
# blessed snapshots under bench/baselines/ and drop current copies of
# BENCH_perf_scale.json / BENCH_perf_daemon.json at the repo root, so
# `git diff` shows exactly how this commit moved the tracked perf keys
# (commit the refreshed files to bless them).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=${JOBS:-$(nproc)}
scale_terminals=${PCN_SCALE_TERMINALS:-100000}
scale_slots=${PCN_SCALE_SLOTS:-256}

echo "== [1/12] default build: tier-1 + tier-2 =="
cmake --preset default
cmake --build --preset default -j "$jobs"
ctest --preset tier1 -j "$jobs"
ctest --preset tier2 -j "$jobs"

echo "== [2/12] TSan: sharded-run determinism + metrics registry =="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs" \
  --target test_network_parallel test_metrics_registry \
  test_admin_introspection
# The admin-introspection suite reuses the soak scale knobs; TSan's
# slowdown wants the smoke scenario.
PCN_SOAK_TERMINALS=2000 PCN_SOAK_SLOTS=160 \
  ctest --test-dir build-tsan \
  -R 'NetworkParallel|MetricsRegistry|AdminIntrospection' \
  --output-on-failure -j "$jobs"

echo "== [3/12] ASan+UBSan: wire codec round-trips =="
cmake --preset asan
cmake --build --preset asan -j "$jobs" \
  --target test_wire test_messages test_wire_fuzz
ctest --test-dir build-asan -R 'Wire|Messages|PropWireFuzz' \
  --output-on-failure -j "$jobs"

echo "== [4/12] observability overhead gates (<= 3% each) =="
cmake --build --preset default -j "$jobs" --target perf_scale
# Skip the google-benchmark sweep; the interleaved gate measurement in
# main() still runs.  The release preset gives steadier numbers, but the
# gates have enough headroom (~1% measured) to hold on the default build.
# Smoke scale: the full default is a 10M-terminal comparison.  A single
# draw of the wall-clock ratio occasionally lands a point or two high on
# a loaded machine, so a failed gate is retried with a fresh process (a
# real overhead regression fails all three runs the same way).
overhead_ok=0
for attempt in 1 2 3; do
  bench_dir=$(mktemp -d)
  bench_line=$(PCN_BENCH_DIR="$bench_dir" \
    PCN_SCALE_TERMINALS="$scale_terminals" PCN_SCALE_SLOTS="$scale_slots" \
    ./build/bench/perf_scale --benchmark_filter='^$' | grep '^PCN_BENCH ')
  echo "$bench_line"
  gates_ok=1
  for gate in telemetry flight; do
    overhead=$(echo "$bench_line" | tr ' ' '\n' \
      | sed -n "s/^${gate}_overhead_pct=//p")
    if ! awk -v pct="$overhead" -v gate="$gate" 'BEGIN {
      if (pct == "" || pct > 3.0) {
        printf "%s gate FAILED: overhead %s%% > 3%%\n", gate, pct; exit 1
      }
      printf "%s gate ok: overhead %.2f%%\n", gate, pct
    }'; then
      gates_ok=0
    fi
  done
  # Perf trajectory: diff against the blessed snapshot (when one exists
  # and the run used the default smoke scale whose config echo it pins),
  # then refresh it and the repo-root copy from this passing run.
  if [ "$gates_ok" = 1 ] && [ "$scale_terminals" = 100000 ] \
      && [ "$scale_slots" = 256 ]; then
    if command -v python3 > /dev/null \
        && [ -f bench/baselines/BENCH_perf_scale.json ]; then
      if ! python3 tools/bench_compare.py \
          bench/baselines/BENCH_perf_scale.json \
          "$bench_dir/BENCH_perf_scale.json"; then
        gates_ok=0
      fi
    fi
    if [ "$gates_ok" = 1 ]; then
      cp "$bench_dir/BENCH_perf_scale.json" \
        bench/baselines/BENCH_perf_scale.json
      cp "$bench_dir/BENCH_perf_scale.json" BENCH_perf_scale.json
    fi
  fi
  rm -rf "$bench_dir"
  if [ "$gates_ok" = 1 ]; then
    overhead_ok=1
    break
  fi
  echo "overhead gate attempt $attempt failed; retrying with a fresh process"
done
if [ "$overhead_ok" != 1 ]; then
  echo "observability overhead gates FAILED over 3 runs"
  exit 1
fi

echo "== [5/12] trace SLA gate + bench baseline diff =="
cmake --build --preset default -j "$jobs" --target pcnctl table1_one_dim
# A canned delay-bounded scenario: every call must be answered within the
# delay bound m; trace-summary exits 1 on any SLA violation.
trace_dir=$(mktemp -d)
./build/tools/pcnctl simulate --dim 2 --policy distance --delay 3 \
  --slots 100000 --seed 7 --trace-out "$trace_dir/trace.jsonl" > /dev/null
./build/tools/pcnctl trace-summary "$trace_dir/trace.jsonl" \
  | sed -n '/delay SLA/,$p'
rm -rf "$trace_dir"
if command -v python3 > /dev/null; then
  bench_dir=$(mktemp -d)
  PCN_BENCH_DIR="$bench_dir" ./build/bench/table1_one_dim > /dev/null
  python3 tools/bench_compare.py \
    bench/baselines/BENCH_table1_one_dim.json \
    "$bench_dir/BENCH_table1_one_dim.json"
  rm -rf "$bench_dir"
else
  echo "bench_compare: skipped (python3 not found)"
fi

echo "== [6/12] engine equivalence gate (reference vs simd, exact diff) =="
engine_dir=$(mktemp -d)
for dim in 1 2; do
  for engine in reference simd; do
    ./build/tools/pcnctl simulate --dim "$dim" --policy distance --delay 3 \
      --slots 200000 --seed 11 --threads 2 --engine "$engine" \
      > "$engine_dir/$engine-$dim.txt"
  done
  if diff "$engine_dir/reference-$dim.txt" "$engine_dir/simd-$dim.txt"; then
    echo "engine gate ok: --dim $dim reports byte-identical"
  else
    echo "engine gate FAILED: --dim $dim reference and simd reports differ"
    rm -rf "$engine_dir"
    exit 1
  fi
done
rm -rf "$engine_dir"

echo "== [7/12] SIMD gate: statistical equivalence + perf_micro smoke =="
cmake --build --preset default -j "$jobs" \
  --target test_prop_simd_statistical test_counter_rng perf_micro pcnctl
# The tier-2 oracle suite compares SIMD metrics against the reference
# engine at 1 and 4 threads (CI bands + occupancy GOF).
ctest --preset tier2 -R 'PropSimdStatistical' --output-on-failure \
  -j "$jobs"
# Per-slot-cost microbench in smoke mode: tiny fleet, but the serialized
# TSC section and the PCN_BENCH line must still be produced.
micro_dir=$(mktemp -d)
micro_line=$(PCN_BENCH_DIR="$micro_dir" \
  PCN_MICRO_TERMINALS=1024 PCN_MICRO_SLOTS=512 \
  ./build/bench/perf_micro --benchmark_filter='^$' | grep '^PCN_BENCH ')
rm -rf "$micro_dir"
echo "$micro_line"
# CLI wiring: --engine simd always has a kernel (the portable fallback),
# so the forced run must succeed; with every kernel disabled via
# PCN_SIMD_ISA=none it must fail with a UsageError instead.
./build/tools/pcnctl simulate --dim 2 --policy distance --delay 3 \
  --slots 20000 --seed 7 --engine simd > /dev/null
echo "simd CLI gate ok: --engine simd ran"
if PCN_SIMD_ISA=none ./build/tools/pcnctl simulate --dim 2 \
    --policy distance --delay 3 --slots 20000 --seed 7 --engine simd \
    > /dev/null 2>&1; then
  echo "simd CLI gate FAILED: forced simd with no kernels should error"
  exit 1
else
  echo "simd CLI gate ok: forced simd without kernels errors"
fi

echo "== [8/12] portable-fallback build (-DPCN_SIMD_AVX2=OFF): tier-1 =="
cmake -S . -B build-portable -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPCN_SIMD_AVX2=OFF
cmake --build build-portable -j "$jobs"
ctest --test-dir build-portable -LE tier2 --output-on-failure -j "$jobs"

echo "== [9/12] pcnd daemon gate: property + soak + overload bench =="
cmake --build --preset default -j "$jobs" \
  --target pcnd perf_daemon test_prop_paging_queue test_daemon_soak
# The property suite and the deterministic overload soak, the latter at
# smoke scale (the soak reads PCN_SOAK_TERMINALS / PCN_SOAK_SLOTS and
# runs the same 2x-overload scenario at 1 and 4 threads, diffing every
# counter, the delay histogram and the flight trace).
PCN_SOAK_TERMINALS=2000 PCN_SOAK_SLOTS=160 \
  ctest --preset tier2 -R 'PropPagingQueue|DaemonSoak' \
  --output-on-failure -j "$jobs"
# CLI smoke: a closed-loop 2x-overload run must produce a daemon report.
if ./build/tools/pcnd run --terminals 20000 --slots 128 --region 16 \
    --offered 2.0 --threads 2 --metrics-out - \
    | grep -q '"schema":"pcn.run_report.v1","kind":"daemon"'; then
  echo "pcnd gate ok: daemon run report emitted"
else
  echo "pcnd gate FAILED: no daemon run report on stdout"
  exit 1
fi
# Closed-loop bench vs the blessed baseline.  The scale (and thread
# count) must match the baseline exactly: bench_compare treats the
# config echo as exact-match keys, which is what proves the counters
# are bit-identical run over run.  The bench's timing-sensitive keys
# (run_seconds bands, introspection_overhead_pct) occasionally catch a
# process whose address-space layout penalizes one measurement leg by a
# few percent, so a failed compare is retried with fresh processes —
# the deterministic keys are exact-match and fail identically every
# time, so only measurement noise ever passes on retry.
daemon_line=""
if command -v python3 > /dev/null; then
  compare_ok=0
  for attempt in 1 2 3; do
    bench_dir=$(mktemp -d)
    daemon_line=$(PCN_BENCH_DIR="$bench_dir" PCN_DAEMON_TERMINALS=20000 \
      PCN_DAEMON_SLOTS=128 PCN_DAEMON_REGION=16 PCN_DAEMON_THREADS=2 \
      ./build/bench/perf_daemon | grep '^PCN_BENCH ')
    echo "$daemon_line"
    if python3 tools/bench_compare.py \
        bench/baselines/BENCH_perf_daemon.json \
        "$bench_dir/BENCH_perf_daemon.json"; then
      compare_ok=1
      # Perf trajectory: refresh the blessed snapshot and the repo-root
      # copy from this passing run (commit them to bless).
      cp "$bench_dir/BENCH_perf_daemon.json" \
        bench/baselines/BENCH_perf_daemon.json
      cp "$bench_dir/BENCH_perf_daemon.json" BENCH_perf_daemon.json
      rm -rf "$bench_dir"
      break
    fi
    rm -rf "$bench_dir"
    echo "perf_daemon compare attempt $attempt failed; retrying with a fresh process"
  done
  if [ "$compare_ok" != 1 ]; then
    echo "perf_daemon gate FAILED: baseline drift persisted over 3 runs"
    exit 1
  fi
else
  echo "bench_compare: skipped (python3 not found)"
fi

echo "== [10/12] live introspection gate: admin scrape + pcnctl top =="
cmake --build --preset default -j "$jobs" --target pcnd pcnctl
# A 2x-overload run serving live scrapes on --admin-socket; pcnctl top
# must get a pcn.live_snapshot.v1 document out of it mid-flight.  The
# run is sized well past the scrape so the daemon is still hot, then
# killed once the scrape has what it needs.
admin_dir=$(mktemp -d)
admin_sock="$admin_dir/admin.sock"
./build/tools/pcnd run --terminals 20000 --slots 200000 --region 16 \
  --offered 2.0 --threads 2 --admin-socket "$admin_sock" > /dev/null &
pcnd_pid=$!
top_json=""
for _ in $(seq 1 100); do
  if top_json=$(./build/tools/pcnctl top --admin-socket "$admin_sock" \
      --once --json 2>/dev/null); then
    break
  fi
  if ! kill -0 "$pcnd_pid" 2>/dev/null; then break; fi
  sleep 0.1
done
kill "$pcnd_pid" 2>/dev/null || true
wait "$pcnd_pid" 2>/dev/null || true
rm -rf "$admin_dir"
if echo "$top_json" | grep -q '"schema":"pcn.live_snapshot.v1"'; then
  echo "introspection gate ok: pcnctl top scraped a live snapshot"
else
  echo "introspection gate FAILED: no live snapshot from pcnctl top"
  exit 1
fi
# Overhead: gate 9's perf_daemon run interleaves the 1x point with live
# stats + a hammering admin scraper on vs off (min-of-3 each) and reports
# the delta on its PCN_BENCH line.
if [ -n "$daemon_line" ]; then
  overhead=$(echo "$daemon_line" | tr ' ' '\n' \
    | sed -n 's/^introspection_overhead_pct=//p')
  awk -v pct="$overhead" 'BEGIN {
    if (pct == "" || pct > 2.0) {
      printf "introspection gate FAILED: overhead %s%% > 2%%\n", pct
      exit 1
    }
    printf "introspection gate ok: overhead %.2f%%\n", pct
  }'
else
  echo "introspection overhead: skipped (python3 not found, no bench run)"
fi

echo "== [11/12] run-timeline gate: capture + codec + changepoint =="
cmake --build --preset default -j "$jobs" --target pcnd pcnctl
# The 2x-overload soak scenario (small queues, 16 channels short) with a
# timeline sampled every 4 slots.  Everything below is deterministic:
# the capture is slot-indexed and thread-invariant, so the onset verdict
# is a function of (seed, scale, config) alone.
series_dir=$(mktemp -d)
./build/tools/pcnd run --terminals 8000 --slots 400 --region 16 \
  --offered 2.0 --channels 1 --queue-max 8 --lifetime 16 --groups 4 \
  --sla 8 --seed 2026 --q 0.2 --d 3 --threads 2 \
  --series-out "$series_dir/run.series" --series-every 4 > /dev/null
# Codec round-trip: decode + re-encode must reproduce the file
# byte-exactly (delta columns, dictionary and CRC all stable).
timeline_out=$(./build/tools/pcnctl timeline "$series_dir/run.series" \
  --reencode "$series_dir/run.reencoded.series")
if cmp -s "$series_dir/run.series" "$series_dir/run.reencoded.series"; then
  echo "timeline gate ok: pcn.timeseries.v1 re-encode is byte-exact"
else
  echo "timeline gate FAILED: re-encoded timeline differs from original"
  rm -rf "$series_dir"
  exit 1
fi
rm -rf "$series_dir"
echo "$timeline_out" | grep '^PCN_TIMELINE '
# CUSUM verdict: the overload onset must land inside the blessed band.
# The exact slot (104 as of blessing) is deterministic; the band leaves
# room for legitimate queue-policy tuning without letting the detector
# miss the onset entirely or fire inside the warm-up baseline.
onset=$(echo "$timeline_out" | sed -n \
  's/^PCN_TIMELINE .*overload_onset_slot=\(-\{0,1\}[0-9]*\).*/\1/p')
if [ -z "$onset" ] || [ "$onset" -lt 8 ] || [ "$onset" -gt 200 ]; then
  echo "timeline gate FAILED: overload_onset_slot=${onset:-none} outside blessed band [8, 200]"
  exit 1
fi
echo "timeline gate ok: overload onset at slot $onset (band [8, 200])"
# Capture overhead: gate 9's perf_daemon run interleaves the 1x point
# with timeseries capture on vs off and reports the floor-of-pairs delta.
if [ -n "$daemon_line" ]; then
  overhead=$(echo "$daemon_line" | tr ' ' '\n' \
    | sed -n 's/^timeseries_overhead_pct=//p')
  awk -v pct="$overhead" 'BEGIN {
    if (pct == "" || pct > 2.0) {
      printf "timeline gate FAILED: capture overhead %s%% > 2%%\n", pct
      exit 1
    }
    printf "timeline gate ok: capture overhead %.2f%%\n", pct
  }'
else
  echo "timeseries overhead: skipped (python3 not found, no bench run)"
fi

echo "== [12/12] admission-policy gate: per-policy determinism + bands =="
cmake --build --preset default -j "$jobs" --target pcnd
# The same 2x-overload scenario under each admission policy, at 1 and 4
# worker threads.  The textual report is deterministic except the wall
# line and the thread count echoed in the header, so stripping those two
# must leave byte-identical output — the cheap end-to-end restatement of
# the bit-identity contract, now covering the eviction paths and the
# victim-choice ordering.
admission_dir=$(mktemp -d)
for policy in drop_newest drop_oldest priority_delay_bound; do
  for threads in 1 4; do
    ./build/tools/pcnd run --terminals 20000 --slots 128 --region 16 \
      --offered 2.0 --threads "$threads" --queue-max 8 --lifetime 16 \
      --groups 4 --sla 8 --admission "$policy" \
      | grep -v '^wall' | sed 's/[0-9]* threads/N threads/' \
      > "$admission_dir/$policy.t$threads.txt"
  done
  if ! cmp -s "$admission_dir/$policy.t1.txt" "$admission_dir/$policy.t4.txt"; then
    echo "admission gate FAILED: $policy report differs at 1 vs 4 threads"
    diff "$admission_dir/$policy.t1.txt" "$admission_dir/$policy.t4.txt" || true
    rm -rf "$admission_dir"
    exit 1
  fi
  # Failure-mass placement and the blessed drop-rate band: drop_newest
  # fails pages as tail drops only; the eviction policies as evictions
  # only.  All three sit near 0.45 at this scale — the band leaves room
  # for queue-tuning drift without letting a policy stop biting.
  summary=$(grep '^pages' "$admission_dir/$policy.t1.txt")
  dropped=$(echo "$summary" | sed 's/.* \([0-9]*\) dropped.*/\1/')
  evicted=$(echo "$summary" | sed 's/.* \([0-9]*\) evicted.*/\1/')
  rate=$(grep '^drop rate' "$admission_dir/$policy.t1.txt" \
    | sed 's/drop rate: \([0-9.]*\).*/\1/')
  if [ "$policy" = drop_newest ]; then
    bad=$([ "$evicted" -eq 0 ] && [ "$dropped" -gt 0 ] || echo 1)
  else
    bad=$([ "$dropped" -eq 0 ] && [ "$evicted" -gt 0 ] || echo 1)
  fi
  if [ -n "$bad" ]; then
    echo "admission gate FAILED: $policy failure mass misplaced ($summary)"
    rm -rf "$admission_dir"
    exit 1
  fi
  if ! awk -v r="$rate" 'BEGIN { exit !(r >= 0.20 && r <= 0.60) }'; then
    echo "admission gate FAILED: $policy drop rate $rate outside [0.20, 0.60]"
    rm -rf "$admission_dir"
    exit 1
  fi
  echo "admission gate ok: $policy deterministic at 1 vs 4 threads, drop rate $rate"
done
rm -rf "$admission_dir"

echo "run_checks: all gates passed."
