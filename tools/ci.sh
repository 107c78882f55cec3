#!/usr/bin/env bash
# CI gate for the host-parallel block executor.
#
# Stage 1: knob lint, regular build with warnings as errors
#          (SIMTOMP_WERROR=ON), full test suite, then a Release
#          (-O3) -Werror build of every target (tests, benches and
#          examples too), since GCC reports some warnings only at
#          -O3. The full suite includes the host-knob contract:
#          knobs_test's LaunchOptionsTest.NoKnobMovesModeledStats runs
#          every tunable app with each launch knob flipped (host
#          workers, checking, profiling, deep trace, watchdog, fast
#          path, an armed fault) and requires KernelStats identical
#          to the all-off run. The lint fails
#          the build when std::getenv appears under src/ outside the
#          knob module (src/gpusim/knobs.*) and the deployment-path
#          readers (SIMTOMP_LOG, SIMTOMP_LOG_FILE, SIMTOMP_METRICS,
#          SIMTOMP_TUNE_CACHE): every launch knob is a knob-table row.
# Stage 2: ThreadSanitizer build; the concurrency-sensitive suites
#          (gpusim_, omprt_, simfault_, fastpath_, hostrt_, simserve_,
#          simfuzz_, simprof_, and fiber_ for the hand-written stack
#          switch) run with SIMTOMP_HOST_WORKERS=8 so every
#          launch actually spreads blocks over 8 host workers — a data
#          race in the simulator surfaces here as a test failure even
#          on a single-core CI machine.
# Stage 3: simcheck gate; the simulator suites, the fast-path
#          suite among them, re-run with SIMTOMP_CHECK=1 (and again
#          over 8 host workers), so a false positive in the sanitizer —
#          or a real race introduced in the runtime, on either side of
#          the convergence fast path — fails CI.
# Stage 4: retired. Its check (modeled cycles identical with checking
#          off and on) is one row of stage 1's host-knob contract test;
#          the later stages keep their numbers.
# Stage 5: tune smoke + cache-determinism guard; a small-budget
#          hill-climb tune over two corpus apps runs three times into
#          fresh cache files — twice at 1 host worker and once at 8 —
#          and all three saved caches must be byte-identical, so a
#          nondeterministic trial order or worker-count-dependent
#          winner fails CI; a `simtomp run` whose auto fields tune
#          (SIMTOMP_TUNE=2, in-memory cache) must print the same winner
#          and run at 1, 1 and 8 host workers.
# Stage 6: fault-matrix smoke + resilience-determinism guard; every
#          (fault kind x recovery policy) cell runs three times — twice
#          at 1 host worker, once at 8 — and the printed
#          ResilienceReports must be byte-identical (the simfault
#          suites also re-run under TSan at 8 workers in stage 2; the
#          watchdog's zero perturbation is a stage-1 knob-contract
#          row).
# Stage 7: observability guard; a profiled kernel runs at 1 and 8 host
#          workers and the construct table, folded stacks and metrics
#          dumps must be byte-identical; the deep trace must be valid
#          JSON (profiling's zero perturbation is a stage-1
#          knob-contract row).
# Stage 8: convergence fast-path guard; bench/host_throughput runs the
#          convergent map+reduce kernels with the fast path off and on,
#          the dumped KernelStats must be byte-identical, and the
#          barrier-bound reduce series must clear a 3x
#          modeled-cycles-per-host-second gate. "Off" is the
#          lane-per-fiber path; "on" replays each group's warp
#          barriers through BlockEngine's group calls, the same
#          engine code the off path's warpBarrier runs. The ratio
#          sits near 3x on a 4-core host, so this stage can flake;
#          the fast path is kept on e2e evidence (DESIGN.md 3.6).
# Stage 9: launch-service determinism + throughput guard; a seeded
#          request mix replays through `simtomp serve` twice at 1 host
#          worker and once each at 8 workers and a prime shard count,
#          and all per-tenant stat dumps must be byte-identical; a
#          frequent-loss mix must give identical dumps across reruns,
#          worker counts and shard counts; the serve_throughput bench
#          then gates >= 1000 concurrent in-flight launches across 4
#          devices and emits BENCH_serving.json.
# Stage 10: differential-fuzz smoke; a fixed-seed `simtomp fuzz` campaign
#          runs under SIMTOMP_HOST_WORKERS=1 and =8 and the findings
#          logs must be byte-identical with zero divergences (the
#          campaign pins every cell's worker count explicitly, so the
#          env var must not leak into results); a short full-matrix
#          sweep covers the cross-arch cells; then a kernel with a
#          deliberately planted off-by-one must be caught, auto-
#          minimized, and the emitted repro must fail standalone; a
#          fault-armed sweep (sharing_exhausted on every cell) must
#          stay divergence-free with worker-invariant logs.
# Stage 11: chaos campaign + resilience goodput gate; the seeded
#          `simtomp serve chaos` campaign runs four times — rerun, 8
#          host workers, a prime shard count — with zero invariant
#          violations and byte-identical reports; the serve_resilience
#          bench then gates storm goodput >= 70% of fault-free goodput
#          and emits BENCH_serve_resilience.json.
# Stage 12: serving-trace determinism + observability guard; the
#          `simtomp serve trace` surfaces (timelines, SLO burn,
#          histograms, flight recorder), on-demand flight dumps and
#          Perfetto exports must be byte-identical across reruns, 8
#          host workers and a prime shard count; the Perfetto export
#          must be valid JSON; the chaos report must be byte-identical
#          with --trace on; a planted invariant violation must
#          auto-dump the flight recorder. That tracing never perturbs
#          the stats dump or the replay report is simserve_trace_test's
#          ServeTraceTest.TracingDoesNotPerturbTheStatsDump, run in
#          stage 1.
# Stage 13: ASan+UBSan build; the text-parsing, command-line,
#          fault-injection, serving-trace, knob, fiber, simulator,
#          runtime, fast-path and app suites (front_, support_, cli_,
#          simfault_, simserve_mix, simserve_trace, hostrt_defaults,
#          knobs_, fiber_, gpusim_, omprt_, fastpath_, apps_; the apps
#          verify their output by reading the device arrays in place)
#          run with every
#          report fatal, including exceptions unwinding on
#          arena-allocated fiber stacks (every fiber stack comes from
#          its scheduler's arena, fiber_test's included; the fast
#          path's hazard guard throws out of a batched body while the
#          group's other lanes are parked on their warp sync point),
#          the hand-written stack switch and its
#          fiber-to-fiber handoffs in real kernels, and the guard pages
#          around the lazily committed global-memory arena.
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 2)"
simtomp="${prefix}/tools/simtomp"

# same_bytes <label> <ref> <file>...: fail unless every file is
# byte-identical to <ref>.
same_bytes() {
  local label="$1" ref="$2" file
  shift 2
  for file in "$@"; do
    if ! cmp "${ref}" "${file}" >&2; then
      echo "ci.sh: ${label} differ (${ref} vs ${file})" >&2
      exit 1
    fi
  done
}

# same_runs <name> <label> <outputs> <variant>... -- <cmd>...: run <cmd>
# once per variant and fail unless each output is byte-identical across
# the runs. A variant is a word list: NAME=value words set the run's
# environment, the other words are appended to <cmd>. <outputs> lists
# what a run writes, as <kind>:<ext> words, where <kind> is ">" for
# stdout or a flag that takes an output path (appended after the
# variant's words). Run n = a, b, ... writes ${prefix}/<name>-<n>.<ext>,
# removed first; uncaptured stdout is left alone.
same_runs() {
  local name="$1" label="$2" outputs="$3" letters=abcdefgh variants=()
  local i word out
  shift 3
  while [ "$1" != "--" ]; do variants+=("$1"); shift; done
  shift
  for ((i = 0; i < ${#variants[@]}; i++)); do
    local run="${prefix}/${name}-${letters:i:1}" env=() args=() stdout=""
    for word in ${variants[i]}; do
      if [[ "${word}" == [A-Z]*=* ]]; then
        env+=("${word}")
      else
        args+=("${word}")
      fi
    done
    for out in ${outputs}; do
      rm -f "${run}.${out#*:}"
      if [ "${out%%:*}" = ">" ]; then
        stdout="${run}.${out#*:}"
      else
        args+=("${out%%:*}" "${run}.${out#*:}")
      fi
    done
    if [ -n "${stdout}" ]; then
      env "${env[@]}" "$@" "${args[@]}" > "${stdout}"
    else
      env "${env[@]}" "$@" "${args[@]}"
    fi
  done
  for out in ${outputs}; do
    local files=()
    for ((i = 1; i < ${#variants[@]}; i++)); do
      files+=("${prefix}/${name}-${letters:i:1}.${out#*:}")
    done
    same_bytes "${label}" "${prefix}/${name}-a.${out#*:}" "${files[@]}"
  done
}

echo "=== stage 1: knob lint, -Werror build + full ctest, Release -Werror build ==="
if grep -rn 'std::getenv' src \
    | grep -v '^src/gpusim/knobs\.' \
    | grep -vE 'getenv\("SIMTOMP_(LOG|LOG_FILE|METRICS|TUNE_CACHE)"\)'; then
  echo "ci.sh: std::getenv outside the knob module (src/gpusim/knobs.*);" \
    "add a knob-table row instead" >&2
  exit 1
fi
cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMTOMP_WERROR=ON
cmake --build "${prefix}" -j "${jobs}"
ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}"
# GCC reports some warnings only at -O3, the level bench/e2e builds at:
# every target must build clean there too.
cmake -B "${prefix}-release" -S . -DCMAKE_BUILD_TYPE=Release \
  -DSIMTOMP_WERROR=ON
cmake --build "${prefix}-release" -j "${jobs}"

echo "=== stage 2: TSan build, gpusim/omprt/simfault/fastpath/hostrt/simserve/simfuzz/simprof/fiber suites at 8 host workers ==="
cmake -B "${prefix}-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMTOMP_SANITIZE=thread -DSIMTOMP_BUILD_BENCH=OFF \
  -DSIMTOMP_BUILD_EXAMPLES=OFF
cmake --build "${prefix}-tsan" -j "${jobs}"
SIMTOMP_HOST_WORKERS=8 TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "${prefix}-tsan" --output-on-failure -j 1 \
  -R '^(gpusim|omprt|simfault|fastpath|hostrt|simserve|simfuzz|simprof|fiber)_'

echo "=== stage 3: simcheck gate (SIMTOMP_CHECK=1 over simulator suites) ==="
SIMTOMP_CHECK=1 \
  ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}" \
  -R '^(gpusim|omprt|apps|simcheck|fastpath|dsl|integration)_'
SIMTOMP_CHECK=1 SIMTOMP_HOST_WORKERS=8 \
  ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}" \
  -R '^(gpusim|omprt|apps|simcheck|fastpath)_'

echo "=== stage 5: tune smoke + cache-determinism guard ==="
same_runs tune-guard "tune caches (rerun, 1 vs 8 host workers)" \
  "--cache:json" "--workers 1" "--workers 1" "--workers 8" -- \
  "${simtomp}" tune tune --apps su3,ideal --small --strategy hill --budget 12
echo "tune caches byte-identical across reruns and worker counts"
same_runs tune-run "tuned run output (rerun, 1 vs 8 host workers)" ">:txt" \
  SIMTOMP_HOST_WORKERS=1 SIMTOMP_HOST_WORKERS=1 SIMTOMP_HOST_WORKERS=8 -- \
  env SIMTOMP_TUNE=2 "${simtomp}" run laplace3d \
  "target teams distribute parallel for simd num_teams(auto) simdlen(auto)"
echo "tuned run output byte-identical across reruns and worker counts"

echo "=== stage 6: fault-matrix smoke + resilience-determinism guard ==="
same_runs fault-matrix "fault matrices (rerun, 1 vs 8 host workers)" \
  ">:txt" "--workers 1" "--workers 1" "--workers 8" -- \
  "${simtomp}" fault matrix
echo "resilience reports byte-identical across reruns and worker counts"

echo "=== stage 7: observability determinism guard ==="
prof_cmd=("${simtomp}" run ideal
          "target teams distribute parallel for simd num_teams(64) \
thread_limit(128) simdlen(8)")
trace_json="${prefix}/prof-guard.trace.json"
same_runs prof-guard "profile tables and metrics dumps at 1 vs 8 host workers" \
  ">:txt --metrics:prom" SIMTOMP_HOST_WORKERS=1 SIMTOMP_HOST_WORKERS=8 -- \
  "${prof_cmd[@]}" --prof
same_runs prof-guard "folded stacks at 1 vs 8 host workers" ">:folded" \
  SIMTOMP_HOST_WORKERS=1 SIMTOMP_HOST_WORKERS=8 -- "${prof_cmd[@]}" --folded
echo "profile/folded/metrics byte-identical across worker counts"
SIMTOMP_HOST_WORKERS=8 "${prof_cmd[@]}" --prof --trace "${trace_json}" \
  >/dev/null
python3 -m json.tool "${trace_json}" >/dev/null
echo "deep trace is valid JSON"

echo "=== stage 8: convergence fast-path guard ==="
# host_throughput aborts by itself if the fast path perturbs modeled
# stats between reps or across off/on; the dumps make the identity
# visible in CI logs and the python gate enforces the throughput win.
(cd "${prefix}/bench" && ./host_throughput)
if ! cmp "${prefix}/bench/HOST_THROUGHPUT_STATS_off.json" \
         "${prefix}/bench/HOST_THROUGHPUT_STATS_on.json"; then
  echo "ci.sh: fast path perturbed modeled stats (dumps differ)" >&2
  exit 1
fi
echo "modeled stats byte-identical with the fast path off vs on"
python3 - "${prefix}/bench/BENCH_host_throughput.json" <<'EOF'
import json, sys
series = json.load(open(sys.argv[1]))["series"]
reduce_series = [s for s in series if "reduce" in s["title"]]
assert len(reduce_series) == 1, "expected exactly one reduce series"
by_label = {r["label"]: r["cycles_per_host_s"] for r in reduce_series[0]["rows"]}
off = by_label["fast path off"]
on = by_label["fast path on"]
ratio = on / off if off else 0.0
print(f"reduce modeled-cycles/host-second: off={off:.0f} on={on:.0f} "
      f"ratio={ratio:.2f}x (gate: >= 3x)")
if ratio < 3.0:
    sys.exit("ci.sh: fast path reduce throughput below the 3x gate")
EOF
echo "fast-path throughput gate passed"

echo "=== stage 9: launch-service determinism + throughput guard ==="
serve_mix="${prefix}/serve-guard.mix"
"${simtomp}" serve gen --seed 11 --tenants 4 --requests 96 \
  --pump-every 32 --fault-permille 20 --out "${serve_mix}"
same_runs serve-guard \
  "launch-service stats (rerun, 1 vs 8 host workers, shards)" "--stats:txt" \
  "--workers 1" "--workers 1" "--workers 8" "--workers 8 --shards 13" -- \
  "${simtomp}" serve replay "${serve_mix}" >/dev/null
echo "per-tenant stat dumps byte-identical across reruns/workers/shards"
# Frequent device loss (150 permille) drives the recovery path: breaker
# trips, re-dispatch and its backoff. Every faulted request loses its
# device on its own launch, so the dumps hold across shard counts too.
loss_mix="${prefix}/serve-loss.mix"
"${simtomp}" serve gen --seed 7 --tenants 5 --requests 160 \
  --pump-every 48 --fault-permille 150 --out "${loss_mix}"
same_runs serve-loss \
  "frequent-loss stats (rerun, 1 vs 8 host workers, shards)" "--stats:txt" \
  "--workers 1" "--workers 1" "--workers 8" "--workers 8 --shards 13" -- \
  "${simtomp}" serve replay "${loss_mix}" >/dev/null
echo "frequent-loss stat dumps byte-identical across reruns/workers/shards"
# The bench aborts if fewer than 1000 launches are concurrently in
# flight across 4 devices or if per-tenant stats diverge between runs.
(cd "${prefix}/bench" && ./serve_throughput >/dev/null)
python3 - "${prefix}/bench/BENCH_serving.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["peak_inflight"] >= bench["peak_inflight_gate"], \
    "ci.sh: peak in-flight below gate"
for run in bench["runs"]:
    print(f"workers={run['workers']}: "
          f"{run['requests_per_host_s']:.0f} requests/host-second")
print(f"p99 modeled latency: {bench['p99_modeled_latency_cycles']} cycles")
EOF
echo "serving throughput gate passed"

echo "=== stage 10: differential-fuzz smoke + minimizer guard ==="
fuzz=("${simtomp}" fuzz)
# Clean smoke: the findings log is the determinism artifact — it must
# be byte-identical for any SIMTOMP_HOST_WORKERS (each matrix cell pins
# its own worker count) and must report zero divergences.
same_runs fuzz-guard "fuzz findings logs across SIMTOMP_HOST_WORKERS" \
  ">:log" SIMTOMP_HOST_WORKERS=1 SIMTOMP_HOST_WORKERS=8 -- \
  "${fuzz[@]}" run --seeds=0..8 --tiny-only
grep -q 'divergences=0' "${prefix}/fuzz-guard-a.log" || {
  echo "ci.sh: clean fuzz smoke reported divergences" >&2
  exit 1
}
# A short full-matrix sweep keeps the cross-arch (a100/mi100) cells and
# the landed-corpus shapes exercised in CI.
"${fuzz[@]}" run --seeds=0..3 > /dev/null
echo "fuzz findings log byte-identical across worker counts, 0 divergences"
# Fault-armed sweep (simfault-oracle mode): arm a transient
# sharing-exhaustion cell on every matrix cell. The fault perturbs the
# modeled machine (overflow to global memory) without changing any
# output, so the sweep must stay divergence-free AND its findings log
# must be byte-identical across worker counts — fault injection
# composes with the differential matrix deterministically.
same_runs fuzz-guard-fault "fault-armed fuzz logs across SIMTOMP_HOST_WORKERS" \
  ">:log" SIMTOMP_HOST_WORKERS=1 SIMTOMP_HOST_WORKERS=8 -- \
  "${fuzz[@]}" run --seeds=0..8 --tiny-only --fault=sharing_exhausted:count=1
grep -q 'divergences=0' "${prefix}/fuzz-guard-fault-a.log" || {
  echo "ci.sh: fault-armed fuzz sweep reported divergences" >&2
  exit 1
}
echo "fault-armed fuzz sweep deterministic, 0 divergences"
# Minimizer guard: a kernel with a planted off-by-one must be caught
# and auto-minimized, and the minimized repro must fail standalone.
fuzz_bug="${prefix}/fuzz-guard-bug.fuzzprog"
fuzz_min="${prefix}/fuzz-guard-min.txt"
fuzz_repro="${prefix}/fuzz-guard-min.fuzzprog"
cat > "${fuzz_bug}" <<'EOF'
# ci.sh stage 10: deliberately planted off-by-one (fuzzer self-test)
fuzzprog v1 seed=999 construct=dpf body=map teams=2 threads=128 tmode=spmd pmode=spmd simdlen=4 sched=cyclic chunk=0 outer=32 inner=0 pressure=0 sharing=2048 a=3 b=1 inject=offbyone
EOF
set +e
"${fuzz[@]}" minimize "${fuzz_bug}" > "${fuzz_min}"
fuzz_status=$?
set -e
if [ "${fuzz_status}" -ne 1 ]; then
  echo "ci.sh: planted off-by-one not detected (exit ${fuzz_status})" >&2
  cat "${fuzz_min}" >&2
  exit 1
fi
sed -n 's/^minimized ([^)]*): //p' "${fuzz_min}" > "${fuzz_repro}"
if ! [ -s "${fuzz_repro}" ]; then
  echo "ci.sh: minimizer printed no minimized program" >&2
  cat "${fuzz_min}" >&2
  exit 1
fi
set +e
"${fuzz[@]}" repro "${fuzz_repro}" > /dev/null
fuzz_status=$?
set -e
if [ "${fuzz_status}" -ne 1 ]; then
  echo "ci.sh: minimized repro did not fail standalone" >&2
  cat "${fuzz_repro}" >&2
  exit 1
fi
echo "planted bug caught, minimized, and repro fails standalone"
# The bench aborts if a fixed campaign's findings log is not
# byte-identical across two back-to-back runs.
(cd "${prefix}/bench" && ./fuzz_throughput >/dev/null)
echo "fuzz campaign rerun byte-identity guard passed"

echo "=== stage 11: chaos campaign + resilience goodput gate ==="
serve=("${simtomp}" serve)
chaos_a="${prefix}/chaos-guard-a.txt"
# The campaign asserts the service's invariants (conservation,
# terminal definiteness, no loss, no reorder, SLO accounting) per seed
# and exits non-zero on any violation. Its report is built exclusively
# from shard-invariant surfaces, so four runs — rerun, 8 host workers,
# a prime shard count — must produce identical bytes.
same_runs chaos-guard "chaos reports (rerun, 1 vs 8 host workers, shards)" \
  "--out:txt" "" "" "--workers 8" "--shards 13" -- \
  "${serve[@]}" chaos --seeds=0..17 >/dev/null
grep -q 'violations=0$' "${chaos_a}" || {
  echo "ci.sh: chaos campaign reported invariant violations" >&2
  exit 1
}
echo "chaos reports byte-identical across reruns/workers/shards, 0 violations"
# The resilience bench exits non-zero when storm goodput (deadline
# hits under a 1-in-10 device-lost storm) drops below 70% of the
# fault-free run's.
(cd "${prefix}/bench" && ./serve_resilience >/dev/null)
python3 - "${prefix}/bench/BENCH_serve_resilience.json" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["goodput_ratio"] >= bench["goodput_gate"], \
    "ci.sh: storm goodput below gate"
print(f"clean goodput {bench['clean_goodput']}, "
      f"storm goodput {bench['storm_goodput']} "
      f"(ratio {bench['goodput_ratio']:.3f}, gate {bench['goodput_gate']})")
EOF
echo "resilience goodput gate passed"

echo "=== stage 12: serving-trace determinism + observability guard ==="
trace_mix="${prefix}/trace-guard.mix"
# The trace surfaces record only shard-invariant facts on the modeled
# clock (device/shard ids live on the physical ring, which the
# canonical dump withholds), so every dump must be byte-identical
# across reruns, worker counts and shard counts — same mix as stage 9,
# faults included.
"${serve[@]}" gen --seed 11 --tenants 4 --requests 96 \
  --pump-every 32 --fault-permille 20 --out "${trace_mix}"
same_runs trace-guard \
  "trace, flight-recorder and perfetto dumps (rerun, 1 vs 8 host workers, shards)" \
  ">:txt --flight:flight --perfetto:perfetto.json" \
  "SIMTOMP_HOST_WORKERS=1 --workers 1" "SIMTOMP_HOST_WORKERS=1 --workers 1" \
  "SIMTOMP_HOST_WORKERS=8 --workers 8" \
  "SIMTOMP_HOST_WORKERS=8 --workers 8 --shards 13" -- \
  "${serve[@]}" trace "${trace_mix}"
echo "trace, flight and perfetto dumps byte-identical across" \
  "reruns/workers/shards"
python3 -m json.tool "${prefix}/trace-guard-a.perfetto.json" >/dev/null
echo "perfetto export is valid JSON"
# Tracing must not perturb the chaos campaign either: the report with
# --trace must match stage 11's untraced report for the same seeds.
chaos_traced="${prefix}/chaos-guard-traced.txt"
"${serve[@]}" chaos --seeds=0..17 --trace --out "${chaos_traced}" >/dev/null
same_bytes "chaos reports with tracing off vs on" \
  "${chaos_a}" "${chaos_traced}"
echo "chaos report byte-identical with tracing on"
# A planted violation must fail the campaign AND auto-dump the flight
# recorder with the violation trigger.
chaos_flight="${prefix}/chaos-guard-planted.flight"
rm -f "${chaos_flight}"
set +e
"${serve[@]}" chaos --seeds=0..1 --trace --plant-violation \
  --flight "${chaos_flight}" >/dev/null 2>&1
chaos_status=$?
set -e
if [ "${chaos_status}" -eq 0 ]; then
  echo "ci.sh: planted chaos violation not detected" >&2
  exit 1
fi
grep -q 'trigger=invariant_violation' "${chaos_flight}" || {
  echo "ci.sh: planted violation did not auto-dump the flight recorder" >&2
  exit 1
}
echo "planted violation caught and flight recorder auto-dumped"

echo "=== stage 13: ASan+UBSan build, parser/cli/fault/serve-trace/knob/fiber/gpusim/omprt/fast-path/apps suites ==="
cmake -B "${prefix}-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSIMTOMP_SANITIZE=address -DSIMTOMP_BUILD_BENCH=OFF \
  -DSIMTOMP_BUILD_EXAMPLES=OFF
cmake --build "${prefix}-asan" -j "${jobs}"
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "${prefix}-asan" --output-on-failure -j "${jobs}" \
  -R '^(front|support|cli|simfault|simserve_mix|simserve_trace|hostrt_defaults|knobs|fiber|gpusim|omprt|fastpath|apps)_'

echo "=== ci.sh: all stages passed ==="
