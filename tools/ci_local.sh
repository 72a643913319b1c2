#!/bin/sh
# The CI jobs, one shell function each. .github/workflows/ci.yml runs
# every job but clang-tidy as `tools/ci_local.sh --job NAME build`, so
# this file is the only place that spells out their commands, bounds
# and assertions. Usage, from the repository root:
#
#   tools/ci_local.sh [--job NAME] [build-dir]      (default build-ci)
#
# --job runs one job; without it every job runs in the order below and
# the first failure stops the script. An unknown job exits 2. The
# Release jobs share <build-dir> (always warnings as errors); the
# sanitizer builds go to <build-dir>/asan, ubsan and tsan. Each job
# builds only the targets it needs and writes only to
# <build-dir>/ci-out/<job>, which it clears first.

set -eu

all_jobs="build-test asan ubsan tsan lint crashcheck ordercheck
    soak-smoke fleet-smoke bench-smoke interference-smoke trace-smoke
    perf-smoke"

usage() {
    echo "usage: tools/ci_local.sh [--job NAME] [build-dir]" >&2
    echo "jobs:" $all_jobs >&2
    exit 2
}

only=
if [ "${1:-}" = --job ]; then
    [ $# -ge 2 ] || usage
    only=$2
    shift 2
    case " $(echo $all_jobs) " in
    *" $only "*) ;;
    *) usage ;;
    esac
fi
case "${1:-}" in
-*) usage ;;
esac
[ $# -le 1 ] || usage
build=${1:-build-ci}
jobs=$(nproc)
tools=$build/tools

# A plain number: google-benchmark 1.7 rejects the "0.01s" form, and
# from 1.8 on a value with no suffix is read as seconds.
min_time=--benchmark_min_time=0.01

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

# release <target...>: configure the shared Release build (warnings
# as errors) and build the named targets, or everything if none.
release() {
    cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release -DHOOP_WERROR=ON
    if [ $# -eq 0 ]; then
        cmake --build "$build" -j"$jobs"
    else
        cmake --build "$build" --target "$@" -j"$jobs"
    fi
}

# sanitized <name> <cmake flag...>: configure and build everything in
# <build-dir>/<name> (RelWithDebInfo), then run its ctest.
sanitized() {
    dir=$build/$1
    shift
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
    cmake --build "$dir" -j"$jobs"
    ctest --test-dir "$dir" --output-on-failure -j"$jobs"
}

job_build_test() {
    step "Release build with warnings as errors, and ctest"
    release
    ctest --test-dir "$build" --output-on-failure -j"$jobs"
}

job_asan() {
    step "ASan+UBSan build and ctest"
    sanitized asan -DHOOP_SANITIZE=address
}

job_ubsan() {
    step "UBSan build (warnings as errors) and ctest"
    sanitized ubsan -DHOOP_SANITIZE=undefined -DHOOP_WERROR=ON
}

job_tsan() {
    export TSAN_OPTIONS=halt_on_error=1
    step "TSan build and ctest"
    sanitized tsan -DHOOP_SANITIZE=thread

    step "fleet chaos matrix under TSan (4 shards, mixed chaos)"
    mkdir -p "$out/fleet"
    for s in hoop redo; do
        "$build/tsan/tools/hoop_fleet" --scheme "$s" --chaos mixed \
            --shards 4 --cores 2 --requests 400 --seed 42 \
            --budget-ms 600000 --out "$out/fleet"
    done

    step "traced parallel bench under TSan (pool + trace sink)"
    HOOP_BENCH_TX=3 HOOP_BENCH_JOBS=4 HOOP_TRACE="$out/tsan_trace.json" \
        HOOP_BENCH_JSON_DIR="$out" \
        "$build/tsan/bench/bench_fig7_throughput" "$min_time" > /dev/null
    python3 -m json.tool "$out/tsan_trace.json" > /dev/null
}

job_lint() {
    release hoop_lint
    step "hoop_lint self-test (every rule proves live on its fixture)"
    "$tools/hoop_lint" --self-test
    step "hoop_lint over the tree (annotations shown, baseline must not rot)"
    "$tools/hoop_lint" --verbose
}

job_crashcheck() {
    release hoop_crashcheck
    step "crashcheck: bounded sweep (all schemes x all workloads)"
    "$tools/hoop_crashcheck" --scheme all --workload all --budget 40 \
        --seed 42 --ordering --out "$out/sweep"

    step "crashcheck: torn-write sweep (hoop + baselines, core workloads)"
    for s in hoop redo undo; do
        for w in hashmap queue; do
            "$tools/hoop_crashcheck" --scheme "$s" --workload "$w" \
                --budget 30 --seed 7 --faults torn --ordering \
                --out "$out/sweep"
        done
    done

    step "crashcheck: media-fault sweep (runtime faults + retirement)"
    "$tools/hoop_crashcheck" --scheme all --workload vector --budget 15 \
        --seed 42 --faults media --ordering --budget-ms 300000 \
        --out "$out/sweep"

    step "crashcheck: broken commit fence must be caught and replay"
    fail_if_clean "$tools/hoop_crashcheck" --scheme hoop --workload vector \
        --budget 40 --break-commit-fence --out "$out/fence"
    replay_fails hoop_crashcheck "$out/fence" crashcheck
}

job_ordercheck() {
    release hoop_ordercheck
    step "ordercheck: clean sweep (every scheme x every workload)"
    "$tools/hoop_ordercheck" --scheme all --workload all

    step "ordercheck: each seeded ordering bug must be caught"
    fail_if_clean "$tools/hoop_ordercheck" --scheme hoop --break-commit-fence
    fail_if_clean "$tools/hoop_ordercheck" --scheme hoop --skip-settle-fences
    for s in redo undo lsm osp; do
        fail_if_clean "$tools/hoop_ordercheck" --scheme "$s" \
            --early-commit-ack
    done
    for s in redo lsm lad; do
        fail_if_clean "$tools/hoop_ordercheck" --scheme "$s" \
            --skip-settle-fences
    done
    fail_if_clean "$tools/hoop_ordercheck" --scheme undo --skip-undo-log
}

job_soak_smoke() {
    release hoop_soak
    step "soak: every scheme x workload under an escalating fault ramp"
    "$tools/hoop_soak" --scheme all --workload all --seed 42 --phases 3 \
        --tx 40 --budget-ms 300000 --out "$out" \
        --json "$out/soak_cells.json"
    python3 - "$out/soak_cells.json" << 'PY'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
assert len(cells) == 42, f"expected 42 cells, got {len(cells)}"
bad = [c for c in cells if c["violated"]]
assert not bad, f"violating cells: {bad}"
retired = sum(c["retired_units"] for c in cells)
assert retired > 0, "the fault ramp retired nothing anywhere"
print(f"42 cells clean, {retired} units retired")
PY
}

job_fleet_smoke() {
    release hoop_fleet
    step "fleet: chaos matrix (hoop + redo x crashes/stalls/faults/mixed)"
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
}

job_bench_smoke() {
    # The HOOP_BENCHES list in bench/CMakeLists.txt, not a bench_* glob:
    # a reused build dir may still hold binaries of removed benches.
    benches=$(sed -n \
        '/^set(HOOP_BENCHES/,/^)/s/^ *\(bench_[a-z0-9_]*\)$/\1/p' \
        bench/CMakeLists.txt)
    [ -n "$benches" ] || fail "no HOOP_BENCHES list in bench/CMakeLists.txt"
    release $benches

    step "bench smoke: every listed bench at HOOP_BENCH_TX=3"
    n=0
    for b in $benches; do
        echo "$build/bench/$b"
        HOOP_BENCH_TX=3 HOOP_BENCH_JSON_DIR="$out" "$build/bench/$b" \
            "$min_time" > /dev/null
        [ -f "$out/BENCH_${b#bench_}.json" ] ||
            fail "$b wrote no BENCH_${b#bench_}.json"
        n=$((n + 1))
    done
    ls -l "$out"
    got=$(ls "$out"/BENCH_*.json | wc -l)
    [ "$got" -eq "$n" ] || fail "expected $n bench JSON files, got $got"
}

job_interference_smoke() {
    release bench_interference
    step "interference smoke: hoop+redo sweep, -j1 vs -j4 byte-identical"
    for j in 1 4; do
        mkdir -p "$out/j$j"
        HOOP_BENCH_TX=10 HOOP_BENCH_DETERMINISTIC=1 \
            HOOP_BENCH_JSON_DIR="$out/j$j" \
            "$build/bench/bench_interference" --schemes=hoop,redo -j$j \
            > "$out/j$j.out"
    done
    cat "$out/j1.out"
    grep -q "Saturation sweep" "$out/j1.out"
    cmp "$out/j1.out" "$out/j4.out"
    cmp "$out/j1/BENCH_interference.json" "$out/j4/BENCH_interference.json"
    python3 - "$out/j1/BENCH_interference.json" << 'PY'
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
}

job_trace_smoke() {
    release hoop_trace
    step "trace smoke: a HOOP run with crash + recovery"
    "$tools/hoop_trace" --scheme hoop --workload hashmap --txs 200 --crash \
        --out "$out/trace_hoop.json"
    python3 -m json.tool "$out/trace_hoop.json" > /dev/null

    step "trace smoke: a baseline run via the environment variable"
    HOOP_TRACE="$out/trace_redo.json" "$tools/hoop_trace" --scheme redo \
        --workload vector --txs 100 --out "$out/trace_redo.json"
    python3 -m json.tool "$out/trace_redo.json" > /dev/null

    step "trace smoke: required span categories are present"
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
}

job_perf_smoke() {
    release bench_fig10_gc_period bench_table4_data_reduction
    step "perf smoke: simulation-throughput floor"
    HOOP_BENCH_TX=200 HOOP_BENCH_JSON_DIR="$out" \
        "$build/bench/bench_fig10_gc_period" --profile "$min_time" > /dev/null
    python3 - "$out/BENCH_fig10_gc_period.json" << 'PY'
import json, sys
ticks_per_sec = json.load(open(sys.argv[1]))["host"]["sim_ticks_per_sec"]
# Dev machines sustain ~35e9 sim ticks/s on this sweep; the floor
# leaves >10x headroom for slower CI runners. It exists to catch
# silent order-of-magnitude regressions in the simulation fast paths,
# not to measure noise.
FLOOR = 2e9
print(f"sim_ticks_per_sec = {ticks_per_sec:.3g} (floor {FLOOR:.3g})")
assert ticks_per_sec >= FLOOR, (
    f"simulation throughput {ticks_per_sec:.3g} ticks/s fell below "
    f"the {FLOOR:.3g} floor -- a fast-path regression?")
PY

    step "perf smoke: GC replay peak-RSS ceiling"
    python3 - "$build/bench/bench_table4_data_reduction" "$out/rss" << 'PY'
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
}

# run_job <name>: clear the job's output directory, then run the job in
# a subshell so its environment ends with it.
run_job() {
    out=$build/ci-out/$1
    rm -rf "$out"
    mkdir -p "$out"
    ("job_$(echo "$1" | tr - _)")
}

if [ -n "$only" ]; then
    run_job "$only"
    echo "ci_local: job $only passed"
else
    for j in $all_jobs; do
        run_job "$j"
    done
    echo "ci_local: all jobs passed"
fi
