#!/bin/sh
# Exit-code checks of the hoop_* command lines, registered with ctest
# by tests/CMakeLists.txt:
#
#   cli_test.sh <case> <tools-dir> <work-dir>
#
# Cases: usage (every tool exits 2 on an unknown flag and on each value
# flag given no value), crash-replay and fleet-replay (a seeded bug
# exits 1 and its first reproducer replays with exit 1), soak-clean (a
# one-cell soak exits 0), bench-profile (a bench binary turns on its
# host profiler for `-j1 --profile` and for `--profile -j1`; here
# <tools-dir> is the bench directory). Reproducers land in <work-dir>.

set -u
check=$1
bin=$2
work=$3
rm -rf "$work" && mkdir -p "$work" && cd "$work" || exit 1

status=0
expect() {
    want=$1
    shift
    "$@" > /dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: exit $got (want $want): $*"
        status=1
    fi
}

# expect_usage <tool> <value flag>...
expect_usage() {
    tool=$bin/$1
    shift
    expect 2 "$tool" --no-such-flag
    for flag in "$@"; do
        expect 2 "$tool" "$flag"
    done
}

# expect_replay <tool> <reproducer glob> <command args>...
expect_replay() {
    tool=$bin/$1
    glob=$2
    shift 2
    expect 1 "$tool" "$@"
    repro=$(ls $glob 2> /dev/null | head -n 1)
    if [ -z "$repro" ]; then
        echo "FAIL: no reproducer matching $glob"
        status=1
        return
    fi
    expect 1 "$tool" --replay "$repro"
}

case $check in
usage)
    expect_usage hoop_crashcheck --scheme --workload --budget \
        --budget-ms --seed --threads --faults --out --replay --trace
    expect_usage hoop_ordercheck --scheme --workload --txs --seed \
        --cores --faults --trace
    expect_usage hoop_soak --scheme --workload --seed --phases --tx \
        --warmup --fault-prob --escalation --threads --budget-ms --out \
        --json --replay
    expect_usage hoop_fleet --scheme --chaos --workload --shards \
        --cores --requests --seed --warmup --threads --events \
        --budget-ms --out --json --replay
    expect_usage hoop_trace --out --scheme --workload --txs --cores \
        --seed
    expect_usage hoop_lint --root --baseline
    ;;
crash-replay)
    expect_replay hoop_crashcheck 'out/crashcheck_violation_*.json' \
        --scheme hoop --workload vector --budget 40 \
        --break-commit-fence --out out
    ;;
fleet-replay)
    expect_replay hoop_fleet 'out/fleet_violation_*.json' \
        --scheme hoop --chaos crashes --shards 4 --requests 600 \
        --inject-ack-bug --out out
    ;;
soak-clean)
    expect 0 "$bin/hoop_soak" --scheme hoop --workload vector \
        --phases 2 --tx 20 --out out
    ;;
bench-profile)
    for args in "-j1 --profile" "--profile -j1"; do
        # $args is left unquoted so it splits into its two flags.
        if ! HOOP_BENCH_TX=3 "$bin/bench_workloads" $args 2>&1 \
            > /dev/null | grep -q "host profile:"; then
            echo "FAIL: no host profile line: bench_workloads $args"
            status=1
        fi
    done
    ;;
*)
    echo "unknown case $check"
    exit 2
    ;;
esac
exit $status
