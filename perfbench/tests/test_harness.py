"""Tests of the benchmark harness arithmetic and its metric names.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def span(name, start, end, parent=-1, run_id=0):
    return (run_id, name, start, end, parent)


def fake_raw():
    """A driver document with every field run.py reads."""
    rep = {"setup_s": 0.1, "window_s": 0.5, "recover_s": 0.01,
           "gc_host_s": 0.02, "ref_s": 0.05, "window_tx": 16000}
    sim = {"committed": 16000, "rejected": 0, "sim_ticks": 10**10,
           "tx_per_s": 1.2e6, "crit_path_count": 16000,
           "crit_path_p50_ns": 5000.0, "crit_path_p99_ns": 9000.0,
           "crit_path_p999_ns": 11000.0, "bytes_written_per_tx": 1700.0,
           "energy_pj": 5e9, "llc_miss_p50_ns": 55.0,
           "llc_miss_p99_ns": 6500.0, "gc_pause_max_ns": 4e6,
           "recovery_ticks": 10**8,
           "recovery": defaultdict(lambda: 1),
           "counters": defaultdict(lambda: 1)}
    return {"workload": "ycsb_update", "scheme": "HOOP", "seed": 1,
            "cores": 8, "recovery_threads": 16, "peak_rss_kib": 100000,
            "nvm_bandwidth_bytes_per_s": 25e9, "standing_hoop_tx_per_s": 0,
            "checks": [], "sim": sim,
            "reps": [dict(rep, traced=False), dict(rep, traced=True)]}


def fake_span_reps():
    spans = [span("run", 0, 100), span("window", 10, 90, 0),
             span("tx", 10, 40, 1), span("maintenance", 40, 45, 1),
             span("tx", 45, 80, 1), span("maintenance", 80, 82, 1),
             span("finalize", 82, 90, 1), span("setup", 0, 10, 0)]
    return run.span_summary(spans)


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_has_ten_samples_beyond(self):
        self.assertTrue(run.percentile_resolvable(10000, 0.999))
        self.assertFalse(run.percentile_resolvable(9999, 0.999))
        self.assertTrue(run.percentile_resolvable(1000, 0.99))
        self.assertFalse(run.percentile_resolvable(999, 0.99))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 0.50), 50)
        self.assertEqual(run.percentile(values, 0.99), 99)
        self.assertEqual(run.percentile(values[::-1], 1.0), 100)
        self.assertEqual(run.percentile([7], 0.99), 7)


class SelfTime(unittest.TestCase):
    def test_union_merges_overlaps_and_drops_empty(self):
        self.assertEqual(run.union_length([]), 0)
        self.assertEqual(run.union_length([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(run.union_length([(3, 3), (5, 4)]), 0)
        self.assertEqual(run.union_length([(0, 10), (2, 3)]), 10)

    def test_self_time_subtracts_children(self):
        spans = [span("run", 0, 100), span("a", 10, 30, 0),
                 span("b", 25, 60, 0), span("c", 40, 50, 2)]
        self.assertEqual(run.self_times(spans), [50, 20, 25, 10])

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", 10, 20), span("c", 15, 30, 0)]
        self.assertEqual(run.self_times(spans), [5, 15])

    def test_self_times_sum_to_root_duration(self):
        spans = [span("run", 0, 1000), span("x", 100, 400, 0),
                 span("y", 150, 200, 1), span("z", 500, 900, 0),
                 span("y", 600, 700, 3)]
        self.assertEqual(sum(run.self_times(spans)), 1000)

    def test_reps_are_summarized_separately(self):
        spans = [span("run", 0, 10), span("setup", 0, 4, 0),
                 span("run", 20, 50, run_id=1),
                 span("setup", 20, 30, 2, run_id=1)]
        first, second = run.span_summary(iter(spans))
        self.assertAlmostEqual(first["self_s"]["run"], 6e-9)
        self.assertAlmostEqual(second["self_s"]["run"], 20e-9)
        self.assertAlmostEqual(second["self_s"]["setup"], 10e-9)

    def test_window_summary(self):
        (rep,) = fake_span_reps()
        self.assertEqual(rep["tx_ns"], [30, 35])
        self.assertEqual(rep["maintenance_calls"], 2)
        self.assertAlmostEqual(rep["maintenance_s"], 7e-9)
        self.assertAlmostEqual(rep["finalize_s"], 8e-9)
        self.assertAlmostEqual(rep["self_s"]["window"], 0.0)
        self.assertAlmostEqual(rep["self_s"]["run"], 10e-9)
        self.assertAlmostEqual(rep["self_s"]["setup"], 10e-9)


class ReferenceUnits(unittest.TestCase):
    def test_host_times_are_divided_by_the_adjacent_kernel_time(self):
        rep = {"window_tx": 16000, "window_s": 0.5, "recover_s": 0.01,
               "ref_s": 0.05}
        self.assertAlmostEqual(run.tx_per_ref(rep), 1600.0)
        self.assertAlmostEqual(run.recovery_refs(rep), 0.2)
        # A host that runs everything 1.7x slower reads the same.
        slow = {k: v * 1.7 if k != "window_tx" else v
                for k, v in rep.items()}
        self.assertAlmostEqual(run.tx_per_ref(slow), run.tx_per_ref(rep))
        self.assertAlmostEqual(run.recovery_refs(slow),
                               run.recovery_refs(rep))

    def test_end_to_end_takes_the_median_over_untraced_reps(self):
        raw = fake_raw()
        base = raw["reps"][0]
        raw["reps"] = [dict(base, window_s=w) for w in (0.4, 0.5, 1.0)]
        raw["reps"].append(dict(base, traced=True, window_s=0.01))
        value, unit = run.end_to_end(raw)["host_tx_per_ref"]
        self.assertAlmostEqual(value, 16000 * 0.05 / 0.5)
        self.assertEqual(unit, "tx/ref")


class MetricNames(unittest.TestCase):
    def test_spec_names_and_units_use_the_allowed_characters(self):
        for section in ("end_to_end", "per_layer"):
            for m in SPEC[section]:
                self.assertRegex(m["name"], run.NAME_RE)
                self.assertRegex(m["unit"], run.UNIT_RE)

    def test_spec_names_are_unique(self):
        names = [m["name"] for s in ("end_to_end", "per_layer")
                 for m in SPEC[s]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))

    def test_spec_workloads_are_the_runnable_ones(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))

    def test_charset_check_rejects_bad_names(self):
        bad = {"bad name": (1.0, "s"), "ok": (1.0, "no spaces")}
        checks = dict((n, ok) for n, ok, _ in run.name_checks(bad, SPEC, 0))
        self.assertFalse(checks["metric_names_charset"])
        self.assertFalse(checks["metric_names_declared"])


class EmittedNames(unittest.TestCase):
    def assert_emits_exactly(self, metrics, trace):
        self.assertEqual(sorted(metrics), sorted(run.declared_names(SPEC,
                                                                    trace)))
        for _, ok, detail in run.name_checks(metrics, SPEC, trace):
            self.assertTrue(ok, detail)

    def test_end_to_end_names(self):
        self.assert_emits_exactly(run.end_to_end(fake_raw()), 0)

    def test_per_layer_names(self):
        self.assert_emits_exactly(run.per_layer(fake_raw(), fake_span_reps()),
                                  1)

    def test_end_to_end_units_and_directions_match_the_spec(self):
        emitted = run.end_to_end(fake_raw())
        for m in SPEC["end_to_end"]:
            self.assertEqual(emitted[m["name"]][1], m["unit"], m["name"])
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertLessEqual(m["bound"], 0.25)
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
