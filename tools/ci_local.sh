#!/bin/sh
# Run the jobs of .github/workflows/ci.yml that need no network (the
# Werror Release build and ctest, hoop_lint, and the crashcheck,
# ordercheck, soak and fleet sweeps with their seeded-bug self-checks)
# with the same commands and pass/fail rules. Keep it in step with
# ci.yml. Usage, from the repository root:
#
#   tools/ci_local.sh [build-dir]      (default build-ci)
#
# Outputs go to <build-dir>/ci-out; the first failing job stops it.

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

echo "ci_local: all jobs passed"
