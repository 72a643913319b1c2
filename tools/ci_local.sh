#!/bin/sh
# Run the jobs of .github/workflows/ci.yml that need no network (the
# Werror Release build and ctest, the ASan, UBSan and TSan builds and
# their ctest, the TSan fleet chaos and traced parallel bench runs,
# hoop_lint, the crashcheck, ordercheck, soak and fleet sweeps with
# their seeded-bug self-checks, and the bench, interference, trace and
# perf smoke jobs) with the same commands and pass/fail rules. The
# clang-tidy job is not run. Keep it in step with ci.yml.
# Usage, from the repository root:
#
#   tools/ci_local.sh [build-dir]      (default build-ci)
#
# The sanitizer builds go to <build-dir>/asan, <build-dir>/ubsan and
# <build-dir>/tsan, outputs to <build-dir>/ci-out; the first failing
# job stops it.

set -eu
build=${1:-build-ci}
out=$build/ci-out
jobs=$(nproc)
tools=$build/tools

step() {
    echo "== $*"
}

fail() {
    echo "ci_local: $*" >&2
    exit 1
}

# fail_if_clean <command...>: a seeded bug must make the command fail.
fail_if_clean() {
    if "$@" > /dev/null; then
        fail "seeded bug escaped: $*"
    fi
}

# replay_fails <tool> <reproducer dir> <prefix>: the first reproducer a
# self-check wrote must replay the violation.
replay_fails() {
    repro=$(ls "$2"/"$3"_violation_*.json 2> /dev/null | head -n 1)
    [ -n "$repro" ] || fail "no $3 reproducer in $2"
    echo "replaying $repro"
    fail_if_clean "$tools/$1" --replay "$repro"
}

step "Release build with warnings as errors"
cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release -DHOOP_WERROR=ON
cmake --build "$build" -j"$jobs"

step "ctest"
(cd "$build" && ctest --output-on-failure -j"$jobs")

rm -rf "$out"
mkdir -p "$out"

# The installed google-benchmark may predate the "0.01s" form ci.yml
# passes; a plain number means seconds to old and new versions alike.
min_time=--benchmark_min_time=0.01

step "ASan+UBSan build and ctest"
cmake -B "$build/asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHOOP_SANITIZE=address
cmake --build "$build/asan" -j"$jobs"
ctest --test-dir "$build/asan" --output-on-failure -j"$jobs"

step "UBSan build (warnings as errors) and ctest"
cmake -B "$build/ubsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHOOP_SANITIZE=undefined -DHOOP_WERROR=ON
cmake --build "$build/ubsan" -j"$jobs"
ctest --test-dir "$build/ubsan" --output-on-failure -j"$jobs"

step "TSan build, ctest, fleet chaos matrix and traced parallel bench"
cmake -B "$build/tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHOOP_SANITIZE=thread
cmake --build "$build/tsan" -j"$jobs"
TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$build/tsan" --output-on-failure -j"$jobs"
mkdir -p "$out/tsan-fleet"
for s in hoop redo; do
    TSAN_OPTIONS=halt_on_error=1 "$build/tsan/tools/hoop_fleet" \
        --scheme "$s" --chaos mixed --shards 4 --cores 2 \
        --requests 400 --seed 42 --budget-ms 600000 \
        --out "$out/tsan-fleet"
done
TSAN_OPTIONS=halt_on_error=1 HOOP_BENCH_TX=3 HOOP_BENCH_JOBS=4 \
    HOOP_TRACE="$out/tsan_trace.json" HOOP_BENCH_JSON_DIR="$out" \
    "$build/tsan/bench/bench_fig7_throughput" "$min_time" > /dev/null
python3 -m json.tool "$out/tsan_trace.json" > /dev/null

step "hoop_lint self-test and tree lint"
"$tools/hoop_lint" --self-test
"$tools/hoop_lint" --verbose

step "crashcheck: bounded sweep (all schemes x all workloads)"
"$tools/hoop_crashcheck" --scheme all --workload all --budget 40 \
    --seed 42 --ordering --out "$out/crashcheck"

step "crashcheck: torn-write sweep"
for s in hoop redo undo; do
    for w in hashmap queue; do
        "$tools/hoop_crashcheck" --scheme "$s" --workload "$w" \
            --budget 30 --seed 7 --faults torn --ordering \
            --out "$out/crashcheck"
    done
done

step "crashcheck: media-fault sweep"
"$tools/hoop_crashcheck" --scheme all --workload vector --budget 15 \
    --seed 42 --faults media --ordering --budget-ms 300000 \
    --out "$out/crashcheck"

step "crashcheck: broken commit fence must be caught and replay"
fail_if_clean "$tools/hoop_crashcheck" --scheme hoop --workload vector \
    --budget 40 --break-commit-fence --out "$out/fence"
replay_fails hoop_crashcheck "$out/fence" crashcheck

step "ordercheck: clean sweep"
"$tools/hoop_ordercheck" --scheme all --workload all

step "ordercheck: each seeded bug must be caught"
fail_if_clean "$tools/hoop_ordercheck" --scheme hoop --break-commit-fence
fail_if_clean "$tools/hoop_ordercheck" --scheme hoop --skip-settle-fences
for s in redo undo lsm osp; do
    fail_if_clean "$tools/hoop_ordercheck" --scheme "$s" --early-commit-ack
done
for s in redo lsm lad; do
    fail_if_clean "$tools/hoop_ordercheck" --scheme "$s" \
        --skip-settle-fences
done
fail_if_clean "$tools/hoop_ordercheck" --scheme undo --skip-undo-log

step "soak: every scheme x workload under an escalating fault ramp"
mkdir -p "$out/soak"
"$tools/hoop_soak" --scheme all --workload all --seed 42 --phases 3 \
    --tx 40 --budget-ms 300000 --out "$out/soak" \
    --json "$out/soak/soak_cells.json"
python3 - "$out/soak/soak_cells.json" << 'PY'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
assert len(cells) == 42, f"expected 42 cells, got {len(cells)}"
bad = [c for c in cells if c["violated"]]
assert not bad, f"violating cells: {bad}"
retired = sum(c["retired_units"] for c in cells)
assert retired > 0, "the fault ramp retired nothing anywhere"
print(f"42 cells clean, {retired} units retired")
PY

step "fleet: chaos matrix (hoop + redo)"
mkdir -p "$out/fleet"
for s in hoop redo; do
    "$tools/hoop_fleet" --scheme "$s" --chaos all --shards 4 --cores 2 \
        --requests 600 --seed 42 --budget-ms 300000 --out "$out/fleet" \
        --json "$out/fleet/fleet_$s.json"
done
python3 - "$out/fleet" << 'PY'
import json, sys
cells = []
for s in ("hoop", "redo"):
    doc = json.load(open(f"{sys.argv[1]}/fleet_{s}.json"))
    assert doc["tool"] == "hoop_fleet"
    cells += doc["cells"]
assert len(cells) == 8, f"expected 8 cells, got {len(cells)}"
bad = [c for c in cells if c["violated"]]
assert not bad, f"violating cells: {bad}"
for c in cells:
    served = c["acked"] + c["rejected"] + c["timed_out"] + c["shed"]
    assert served == c["requests"], (
        f"{c['scheme']}/{c['chaos']}: outcome counts "
        f"{served} != requests {c['requests']}")
    assert len(c["per_shard"]) == c["shards"]
    assert all(sh["admitting_at_end"] for sh in c["per_shard"]), (
        f"{c['scheme']}/{c['chaos']}: shard stuck shedding")
recov = sum(c["recoveries"] for c in cells)
stalls = sum(c["stall_windows"] for c in cells)
assert recov > 0, "chaos never forced an online recovery"
assert stalls > 0, "chaos never opened a stall window"
print(f"8 cells clean; {recov} recoveries, {stalls} stalls")
PY

step "fleet: ack-before-durable must be caught and replay"
fail_if_clean "$tools/hoop_fleet" --scheme hoop --chaos crashes \
    --shards 4 --requests 600 --inject-ack-bug --out "$out/fleet-bug"
replay_fails hoop_fleet "$out/fleet-bug" fleet

step "bench smoke: every bench binary at HOOP_BENCH_TX=3"
mkdir -p "$out/bench-json"
for b in "$build"/bench/bench_*; do
    echo "$b"
    HOOP_BENCH_TX=3 HOOP_BENCH_JSON_DIR="$out/bench-json" "$b" \
        "$min_time" > /dev/null
done
n=$(ls "$out"/bench-json/BENCH_*.json | wc -l)
[ "$n" -eq 13 ] || fail "expected 13 bench JSON files, got $n"

step "interference smoke: hoop+redo sweep, -j1 vs -j4 byte-identical"
mkdir -p "$out/interference-j1" "$out/interference-j4"
HOOP_BENCH_TX=10 HOOP_BENCH_DETERMINISTIC=1 \
    HOOP_BENCH_JSON_DIR="$out/interference-j1" \
    "$build/bench/bench_interference" --schemes=hoop,redo -j1 \
    > "$out/interference-j1.out"
grep -q "Saturation sweep" "$out/interference-j1.out"
HOOP_BENCH_TX=10 HOOP_BENCH_DETERMINISTIC=1 \
    HOOP_BENCH_JSON_DIR="$out/interference-j4" \
    "$build/bench/bench_interference" --schemes=hoop,redo -j4 \
    > "$out/interference-j4.out"
cmp "$out/interference-j1.out" "$out/interference-j4.out"
cmp "$out/interference-j1/BENCH_interference.json" \
    "$out/interference-j4/BENCH_interference.json"
python3 - "$out/interference-j1/BENCH_interference.json" << 'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema_version"] == 6, r["schema_version"]
cells = r["cells"]
# hoop+redo x 3 saturations x 2 mixes
assert len(cells) == 12, len(cells)
roles = {"log_append", "point_read", "seq_scan", "gc_pressure"}
for c in cells:
    m = c["metrics"]
    for k in ("channel_busy_ticks", "channel_wait_ticks",
              "drain_fences", "channel_utilization"):
        assert k in m, f'{c["label"]} missing {k}'
    got = {x["role"] for x in m["roles"]}
    assert got == roles, f'{c["label"]}: roles {got}'
    for x in m["roles"]:
        assert x["transactions"] > 0, c["label"]
        lat = x["latency"]
        for k in ("count", "p99_ns", "p99_saturated"):
            assert k in lat, f'{c["label"]} latency missing {k}'
print(f"{len(cells)} cells OK, roles block complete")
PY

step "trace smoke: Chrome trace JSON validity"
"$tools/hoop_trace" --scheme hoop --workload hashmap --txs 200 --crash \
    --out "$out/trace_hoop.json"
python3 -m json.tool "$out/trace_hoop.json" > /dev/null
HOOP_TRACE="$out/trace_redo.json" "$tools/hoop_trace" --scheme redo \
    --workload vector --txs 100 --out "$out/trace_redo.json"
python3 -m json.tool "$out/trace_redo.json" > /dev/null
python3 - "$out/trace_hoop.json" << 'PY'
import json, sys
ev = json.load(open(sys.argv[1]))["traceEvents"]
names = {e["name"] for e in ev}
missing = {"tx", "gc", "recovery"} - names
assert not missing, f"trace missing spans: {missing}"
spans = [e for e in ev if e.get("ph") == "X"]
assert spans, "no complete spans in trace"
assert all(e["dur"] >= 0 for e in spans), "negative duration"
print(f"{len(ev)} events, span names: {sorted(names)}")
PY

step "perf smoke: simulation-throughput floor"
mkdir -p "$out/perf-json"
HOOP_BENCH_TX=200 HOOP_BENCH_JSON_DIR="$out/perf-json" \
    "$build/bench/bench_fig10_gc_period" --profile "$min_time" > /dev/null
python3 - "$out/perf-json/BENCH_fig10_gc_period.json" << 'PY'
import json, sys
ticks_per_sec = json.load(open(sys.argv[1]))["host"]["sim_ticks_per_sec"]
FLOOR = 2e9  # the ci.yml floor; catches order-of-magnitude regressions
print(f"sim_ticks_per_sec = {ticks_per_sec:.3g} (floor {FLOOR:.3g})")
assert ticks_per_sec >= FLOOR, (
    f"simulation throughput {ticks_per_sec:.3g} ticks/s fell below "
    f"the {FLOOR:.3g} floor -- a fast-path regression?")
PY

step "perf smoke: GC replay peak-RSS ceiling"
python3 - "$build/bench/bench_table4_data_reduction" "$out/perf-json/rss" \
    << 'PY'
import os, resource, subprocess, sys
# Peak RSS of one GC-heavy run: Table IV's sweep on one worker at
# 40 tx/core. Measured 46.6 MiB (GCC 12, Release); 56 MiB leaves 20 %
# headroom and fails the 65.4 MiB of the former 48-byte-per-word
# GC/recovery coalescer.
CEILING_MIB = 56
out = sys.argv[2]
os.makedirs(out, exist_ok=True)
env = dict(os.environ, HOOP_BENCH_TX="40", HOOP_BENCH_DETERMINISTIC="1",
           HOOP_BENCH_JSON_DIR=out)
subprocess.run([sys.argv[1], "-j1"], env=env, stdout=subprocess.DEVNULL,
               check=True)
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"table4 peak RSS = {rss:.1f} MiB (ceiling {CEILING_MIB} MiB)")
assert rss <= CEILING_MIB, (
    f"peak RSS {rss:.1f} MiB exceeds the {CEILING_MIB} MiB ceiling -- "
    f"did GC or recovery replay grow its per-word memory?")
PY

echo "ci_local: all jobs passed"
