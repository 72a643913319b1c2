#!/usr/bin/env python3
"""Benchmark of the HOOP NVM simulator.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles
the simulator from src/), runs one workload and prints its metrics:

    python3 perfbench/run.py --workload ycsb_update --seed 1 \\
        --seconds 28 --trace 0

Run it from the repository root. With --trace 0 the last line of
stdout is a JSON object holding every end-to-end metric that
BENCHMARK.json names; with --trace 1 it holds every per-layer metric,
taken from a traced run that also reports the tracing overhead. The
lines before it print the same metrics by name and unit, the output
checks and the model's standing against the paper.

Host times other than setup_s are given in units of a reference
kernel ("ref"): the driver times a fixed loop of random read-modify-writes
over a 64 MiB buffer after every repetition, and a repetition's window
and recovery times are divided by that kernel time. The kernel shares no
code with the simulator, so a faster simulator shows in full, while
about half of a shared host's speed swings (up to 1.7x, lasting seconds
to minutes) cancel. The raw host rates and seconds are printed too.

The build goes to $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, relative to the repository root.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ycsb_update", "ycsb_read", "redo_update", "recovery")

# A reported percentile q needs at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TICKS_PER_NS = 1000
TICKS_PER_MS = 1000 * 1000 * TICKS_PER_NS

# Paper figures the model is compared with (informational).
PAPER_HOOP_OVER_REDO = 1.743  # +74.3 % suite geomean, Fig. 7a
PAPER_RECOVERY_MS_1GB = 47.0  # 1 GB OOP region at 25 GB/s, Fig. 11


def percentile_resolvable(samples, q):
    """True when percentile q of `samples` samples has enough beyond it."""
    return samples * (1.0 - q) >= MIN_SAMPLES_BEYOND


def quartiles(values):
    """First and third quartile; both are the value when there is one."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, q):
    """Nearest-rank percentile q (0 < q <= 1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# A span is a tuple (run, name, start_ns, end_ns, parent), where parent
# indexes the span list, or is -1 for a root.
RUN, NAME, START, END, PARENT = range(5)


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(spans[c][START], s[START]), min(spans[c][END], s[END]))
            for c in children[i])
        out.append(s[END] - s[START] - covered)
    return out


def read_spans(path):
    """Yield the spans of the driver's span file, one line each:
    run name start end parent core index."""
    with open(path) as f:
        for line in f:
            run, name, start, end, parent = line.split()[:5]
            yield (int(run), name, int(start), int(end), int(parent))


def span_summary(spans):
    """Per traced repetition: self seconds per span name, and the
    window's tx durations, maintenance and finalize self times and
    maintenance call count. `spans` comes in recording order, so each
    repetition's spans are contiguous; one repetition is held at a time."""
    out = []
    rep = []
    base = 0
    for i, s in enumerate(spans):
        if rep and s[RUN] != rep[0][RUN]:
            out.append(summarize_rep(rep))
            rep, base = [], i
        parent = s[PARENT] - base if s[PARENT] >= 0 else -1
        rep.append(s[:PARENT] + (parent,))
    if rep:
        out.append(summarize_rep(rep))
    return out


def summarize_rep(spans):
    selfs = self_times(spans)
    in_window = []
    rep = {"self_s": defaultdict(float), "tx_ns": [], "maintenance_s": 0.0,
           "maintenance_calls": 0, "finalize_s": 0.0}
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        in_window.append(name == "window" or
                         (parent >= 0 and in_window[parent]))
        rep["self_s"][name] += selfs[i] * 1e-9
        if not in_window[i]:
            continue
        if name == "tx":
            rep["tx_ns"].append(s[END] - s[START])
        elif name == "maintenance":
            rep["maintenance_s"] += selfs[i] * 1e-9
            rep["maintenance_calls"] += 1
        elif name == "finalize":
            rep["finalize_s"] += selfs[i] * 1e-9
    return rep


def ratio(num, den):
    return num / den if den else 0.0


def tx_per_ref(rep):
    """Window transactions per reference-kernel time of a repetition."""
    return rep["window_tx"] * rep["ref_s"] / rep["window_s"]


def recovery_refs(rep):
    """A repetition's recover() host time in reference-kernel times."""
    return rep["recover_s"] / rep["ref_s"]


def end_to_end(raw):
    """The end-to-end metrics, name -> (value, unit), from untraced reps."""
    reps = [r for r in raw["reps"] if not r["traced"]]
    sim = raw["sim"]
    committed = sim["committed"]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "host_tx_per_ref": (statistics.median(map(tx_per_ref, reps)),
                            "tx/ref"),
        "recovery_host_ref": (statistics.median(map(recovery_refs, reps)),
                              "ref"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024.0, "MiB"),
        "sim_tx_per_s": (sim["tx_per_s"], "tx/sim_s"),
        "crit_path_p50_ns": (sim["crit_path_p50_ns"], "sim_ns"),
        "crit_path_p99_ns": (sim["crit_path_p99_ns"], "sim_ns"),
        "crit_path_p999_ns": (sim["crit_path_p999_ns"], "sim_ns"),
        "nvm_write_bytes_per_tx": (sim["bytes_written_per_tx"], "B/tx"),
        "energy_nj_per_tx": (ratio(sim["energy_pj"], committed) / 1000.0,
                             "nJ/tx"),
        "recovery_ms": (sim["recovery_ticks"] / TICKS_PER_MS, "sim_ms"),
    }


def per_layer(raw, span_reps):
    """The per-layer metrics, name -> (value, unit): host ones from the
    traced reps' spans, simulated ones from the window's counter deltas."""
    sim = raw["sim"]
    c = sim["counters"]
    rec = sim["recovery"]
    tx = sim["committed"]
    traced = [r for r in raw["reps"] if r["traced"]]
    untraced = [r for r in raw["reps"] if not r["traced"]]

    def host_rate(reps):
        return statistics.median(map(tx_per_ref, reps))

    def med(key):
        return statistics.median(r[key] for r in span_reps)

    return {
        "workloads.setup_s": (
            statistics.median(r["self_s"]["setup"] for r in span_reps), "s"),
        "workloads.tx_host_ns.p50": (statistics.median(
            percentile(r["tx_ns"], 0.50) for r in span_reps), "ns"),
        "workloads.tx_host_ns.p99": (statistics.median(
            percentile(r["tx_ns"], 0.99) for r in span_reps), "ns"),
        "workloads.tracing_overhead": (
            host_rate(traced) / host_rate(untraced), "ratio"),
        "controller.maintenance_host_s": (med("maintenance_s"), "s"),
        "controller.maintenance_calls": (med("maintenance_calls"), "count"),
        "controller.finalize_host_s": (med("finalize_s"), "s"),
        "hoop.gc_host_s": (statistics.median(r["gc_host_s"] for r in traced),
                           "s"),
        "mem.l1_miss_ratio": (ratio(c["mem.l1_misses"], c["mem.l1_hits"] +
                                    c["mem.l1_misses"]), "fraction"),
        "mem.l2_miss_ratio": (ratio(c["mem.l2_misses"], c["mem.l2_hits"] +
                                    c["mem.l2_misses"]), "fraction"),
        "mem.llc_miss_ratio": (ratio(c["mem.llc_misses"], c["mem.llc_hits"] +
                                     c["mem.llc_misses"]), "fraction"),
        "mem.llc_fills_per_tx": (ratio(c["mem.llc_fills"], tx), "1/tx"),
        "mem.llc_miss_lat_p50_ns": (sim["llc_miss_p50_ns"], "sim_ns"),
        "mem.llc_miss_lat_p99_ns": (sim["llc_miss_p99_ns"], "sim_ns"),
        "mem.llc_dirty_writebacks_per_tx": (
            ratio(c["mem.llc_dirty_writebacks"], tx), "1/tx"),
        "hoop.mapping_hit_ratio": (ratio(c["controller.mapping_hits"],
                                         c["mem.llc_fills"]), "fraction"),
        "hoop.parallel_read_ratio": (ratio(c["controller.parallel_reads"],
                                           c["mem.llc_fills"]), "fraction"),
        "hoop.eviction_buffer_hits_per_tx": (
            ratio(c["controller.eviction_buffer_hits"], tx), "1/tx"),
        "hoop.data_slices_per_tx": (ratio(c["controller.data_slices"], tx),
                                    "1/tx"),
        "hoop.addr_slices_per_tx": (ratio(c["controller.addr_slices"], tx),
                                    "1/tx"),
        "hoop.words_per_data_slice": (ratio(c["controller.tx_words"],
                                            c["controller.data_slices"]),
                                      "words"),
        "hoop.gc_runs": (c["gc.runs"], "count"),
        "hoop.gc_home_lines_per_slice": (ratio(c["gc.home_lines_written"],
                                               c["gc.slices_scanned"]),
                                         "lines/slice"),
        "hoop.gc_pause_max_ns": (sim["gc_pause_max_ns"], "sim_ns"),
        "hoop.backpressure_stalls": (c["controller.oop_backpressure_stalls"],
                                     "count"),
        "hoop.gc_on_demand": (c["controller.gc_on_demand"], "count"),
        "hoop.recovery.slices_scanned": (rec["slices_scanned"], "count"),
        "hoop.recovery.tx_replayed": (rec["tx_replayed"], "count"),
        "hoop.recovery.home_lines_written": (rec["home_lines_written"],
                                             "count"),
        "hoop.recovery.crc_verify_ms": (rec["crc_verify_ticks"] /
                                        TICKS_PER_MS, "sim_ms"),
        "baselines.log_entries_per_tx": (ratio(c["controller.log_entries"],
                                               tx), "1/tx"),
        "baselines.checkpoint_writes_per_tx": (
            ratio(c["controller.checkpoint_writes"], tx), "1/tx"),
        "baselines.truncations": (c["controller.truncations"], "count"),
        "baselines.log_backpressure_stalls": (
            c["controller.log_backpressure_stalls"], "count"),
        "nvm.read_bytes_per_tx": (ratio(c["nvm.bytes_read"], tx), "B/tx"),
        "nvm.write_accesses_per_tx": (ratio(c["nvm.write_accesses"], tx),
                                      "1/tx"),
        "nvm.channel_utilization": (ratio(c["nvm.channel_busy_ticks"],
                                          sim["sim_ticks"]), "fraction"),
        "nvm.channel_wait_ns_per_tx": (
            ratio(c["nvm.channel_wait_ticks"], tx) / TICKS_PER_NS,
            "sim_ns/tx"),
        "nvm.drain_fences": (c["nvm.drain_fences"], "count"),
    }


def declared_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def name_checks(metrics, spec, trace):
    """Every metric BENCHMARK.json names is emitted, nothing else is, and
    every name and unit is in the allowed character set."""
    declared = declared_names(spec, trace)
    emitted = list(metrics)
    bad = [n for n in emitted if not NAME_RE.match(n)]
    bad += [u for _, u in metrics.values() if not UNIT_RE.match(u)]
    return [
        ("metric_names_declared", sorted(emitted) == sorted(declared),
         "missing %s, undeclared %s" % (sorted(set(declared) - set(emitted)),
                                       sorted(set(emitted) - set(declared)))),
        ("metric_names_charset", not bad, "bad: %s" % bad),
    ]


def standing_lines(raw, e2e):
    """Model vs the paper's published figures, the only validation the
    model has (informational, not gated)."""
    lines = []
    if raw["standing_hoop_tx_per_s"] > 0:
        r = raw["standing_hoop_tx_per_s"] / raw["sim"]["tx_per_s"]
        lines.append(
            "HOOP / Opt-Redo sim_tx_per_s on this YCSB traffic: %.3f "
            "(paper: %.3f, the suite geomean of Fig. 7a; model %+.1f %%)"
            % (r, PAPER_HOOP_OVER_REDO,
               100.0 * (r / PAPER_HOOP_OVER_REDO - 1.0)))
    scanned = raw["sim"]["recovery"]["bytes_scanned"]
    if raw["workload"] == "recovery" and scanned > 0:
        scaled = e2e["recovery_ms"][0] * (1 << 30) / scanned
        lines.append(
            "recovery_ms scaled from %.1f MiB scanned to a 1 GiB region at "
            "%.0f GB/s with %d threads: %.1f ms (paper: %.0f ms at 25 GB/s; "
            "model %+.1f %%)"
            % (scanned / (1 << 20), raw["nvm_bandwidth_bytes_per_s"] / 1e9,
               raw["recovery_threads"], scaled, PAPER_RECOVERY_MS_1GB,
               100.0 * (scaled / PAPER_RECOVERY_MS_1GB - 1.0)))
    if lines:
        lines.append("These published ratios are the only validation the "
                     "model has; the simulator is otherwise unvalidated.")
    return lines


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found under %s"
                 % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "hoop_perfbench"], stdout=sys.stderr, check=True,
                   timeout=800)
    return os.path.join(build_dir, "hoop_perfbench")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    binary = build(build_dir)

    tag = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    out_path = os.path.join(build_dir, "raw-%s.json" % tag)
    spans_path = os.path.join(build_dir, "spans-%s.txt" % tag)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    started = time.monotonic()
    try:
        subprocess.run(cmd, check=True, timeout=args.seconds + 120)
        with open(out_path) as f:
            raw = json.load(f)
        span_reps = span_summary(read_spans(spans_path)) if args.trace else []
    finally:
        for p in (out_path, spans_path):
            if os.path.exists(p):
                os.remove(p)

    e2e = end_to_end(raw)
    metrics = per_layer(raw, span_reps) if args.trace else e2e
    checks = [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]
    checks.append(("crit_path_p999_resolvable",
                   percentile_resolvable(raw["sim"]["crit_path_count"], 0.999),
                   "%d committed tx" % raw["sim"]["crit_path_count"]))
    if args.trace:
        fewest = min(len(r["tx_ns"]) for r in span_reps)
        checks.append(("tx_host_p99_resolvable",
                       percentile_resolvable(fewest, 0.99),
                       "%d window tx spans" % fewest))
    checks += name_checks(metrics, spec, args.trace)
    correct = all(ok for _, ok, _ in checks)

    reps = [r for r in raw["reps"] if bool(r["traced"]) == bool(args.trace)]
    sim = raw["sim"]
    attempted = sum(r["window_tx"] for r in reps)
    failed = sim["rejected"] * len(reps)

    print("perfbench %s (%s, %d cores), seed %d, %s: %d repetitions in "
          "%.1f s, %d committed tx per window"
          % (raw["workload"], raw["scheme"], raw["cores"], raw["seed"],
             "traced" if args.trace else "untraced", len(reps),
             time.monotonic() - started, sim["committed"]))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    for label, unit, values in (
            ("raw host window rate", "tx/s",
             [r["window_tx"] / r["window_s"] for r in reps]),
            ("raw recover() host time", "s", [r["recover_s"] for r in reps]),
            ("reference kernel time", "ms", [1e3 * r["ref_s"] for r in reps])):
        lo, hi = quartiles(values)
        print("  %-36s %14.6g %s (median; quartiles %.6g-%.6g)"
              % (label, statistics.median(values), unit, lo, hi))
    print("  %-36s %14.6g fraction (%d rejected of %d attempted)"
          % ("tx_failed_ratio", ratio(failed, attempted), failed, attempted))
    if args.trace:
        names = sorted({n for r in span_reps for n in r["self_s"]})
        print("self time per span name, median over traced repetitions (s):")
        for n in names:
            print("  %-12s %.6f" % (n, statistics.median(
                r["self_s"].get(n, 0.0) for r in span_reps)))
    for name, ok, detail in checks:
        print("check %-40s %s  (%s)" % (name, "ok" if ok else "FAILED",
                                        detail))
    for line in standing_lines(raw, e2e):
        print("paper standing: " + line)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
