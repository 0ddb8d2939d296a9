"""Tests of the benchmark's own statistics, input generation and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def op(phase, wall, ok=True, cpu=None, **extra):
    r = {"rec": "op", "phase": phase, "wall_s": wall,
         "cpu_s": wall if cpu is None else cpu, "ok": ok, "why": ""}
    r.update(extra)
    return r


def run_records(timed, warmup=(), setups=(1.0,), traced=()):
    recs = [{"rec": "calib", "start_s": 0.06, "end_s": 0.07}]
    recs += [{"rec": "setup", "wall_s": s} for s in setups]
    recs += list(warmup) + list(timed) + list(traced)
    recs.append({"rec": "rss", "peak_mb": 40.0})
    return recs


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        value, pct, n = stats.tail([float(i) for i in range(100, 0, -1)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))

    def test_exactly_ten_beyond_for_any_count(self):
        for n in (11, 25, 137):
            values = list(range(n))
            value, _, _ = stats.tail(values)
            self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


class AccountingTest(unittest.TestCase):
    def test_failed_ops_count_against_every_op_attempted(self):
        recs = run_records(timed=[op("timed", 1.0), op("timed", 1.0, ok=False)],
                           warmup=[op("warmup", 1.0, ok=False)],
                           traced=[op("traced", 1.0)])
        self.assertEqual(stats.failures(recs), (4, 2))

    def test_failed_op_is_not_completed_but_its_time_counts(self):
        recs = run_records(timed=[op("timed", 1.0), op("timed", 1.0),
                                  op("timed", 0.01, ok=False)])
        m, _ = stats.end_to_end(recs)
        self.assertAlmostEqual(m["ops_per_s"], 2 / 2.01)
        self.assertEqual(m["op_p50_s"], 1.0)


class WarmupTest(unittest.TestCase):
    def test_warmup_ops_are_excluded_from_the_timed_phase(self):
        recs = run_records(
            timed=[op("timed", 1.0, cpu=2.0) for _ in range(20)],
            warmup=[op("warmup", 50.0) for _ in range(3)],
            setups=(9.0, 5.0, 6.0))
        m, tail_info = stats.end_to_end(recs)
        self.assertEqual(m["ops_per_s"], 1.0)
        self.assertEqual(m["op_p50_s"], 1.0)
        self.assertEqual(m["op_tail_s"], 1.0)
        self.assertEqual(m["cpu_per_op_s"], 2.0)
        self.assertEqual(m["setup_s"], 6.0)  # median of the set-ups
        self.assertEqual(tail_info["n"], 20)

    def test_traced_ops_do_not_enter_end_to_end(self):
        recs = run_records(timed=[op("timed", 1.0)] * 12,
                           traced=[op("traced", 3.0)] * 12)
        m, _ = stats.end_to_end(recs)
        self.assertEqual(m["op_p50_s"], 1.0)
        layers = stats.per_layer(recs)
        self.assertAlmostEqual(layers["bench.trace_overhead"], 3.0)
        self.assertAlmostEqual(layers["host.calib_s"], 0.065)

    def test_layers_a_workload_never_calls_report_zero(self):
        recs = run_records(timed=[op("timed", 1.0)], traced=[op("traced", 1.0)])
        recs.append({"rec": "layer", "name": "amr.step_s", "value": 0.25})
        layers = stats.per_layer(recs)
        self.assertEqual(set(layers), set(stats.PER_LAYER))
        self.assertEqual(layers["amr.step_s"], 0.25)
        self.assertEqual(layers["fem.assemble_lor_s"], 0.0)


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for w in inputs.GROUPS:
            for seed in (0, 1, 12345):
                self.assertEqual(inputs.generate(w, seed),
                                 inputs.generate(w, seed))

    def test_other_seeds_give_other_inputs(self):
        for w in inputs.GROUPS:
            self.assertNotEqual(inputs.generate(w, 1), inputs.generate(w, 2))

    def test_default_seed_gives_the_repository_bench_inputs(self):
        self.assertEqual(inputs.generate("fem_table4", 0),
                         {"fem.a": 1.0, "fem.b": 1.0})
        self.assertEqual(inputs.generate("ranks_wave_md", 0)["md.seed"], 2718)

    def test_md_seed_is_held_fixed(self):
        # It sets the neighbor-list rebuild count, i.e. the MD work per op.
        for seed in range(0, 20):
            self.assertEqual(
                inputs.generate("ranks_wave_md", seed)["md.seed"], 2718)

    def test_drawn_inputs_stay_in_their_ranges(self):
        for seed in range(1, 50):
            amr = inputs.generate("amr_cleverleaf", seed)
            self.assertTrue(0.4 <= amr["amr.mid_frac"] <= 0.6)
            self.assertTrue(amr["amr.rho_r"] < amr["amr.rho_l"])
            fem = inputs.generate("fem_fig8", seed)
            self.assertTrue(0.9 <= fem["fem.a"] <= 1.1)


class SimClockTest(unittest.TestCase):
    def test_reassociation_passes_and_model_drift_fails(self):
        recs = [op("timed", 1.0, sim_s=0.5), op("timed", 1.0, sim_s=0.5 + 1e-15),
                op("timed", 1.0, sim_s=0.5001)]
        run.check_sim_clock("fem_fig8", 3, recs)
        self.assertEqual([r["ok"] for r in recs], [True, True, False])

    def test_default_seed_is_compared_with_golden(self):
        golden = json.loads((HERE / "golden.json").read_text())["fem_table4"]
        good = op("timed", 1.0, sim_s=float(golden["sim_s_per_op"]),
                  ratios=[float(x) for x in golden["ratios"]])
        bad = op("timed", 1.0, sim_s=float(golden["sim_s_per_op"]),
                 ratios=[float(x) + 0.01 for x in golden["ratios"]])
        run.check_sim_clock("fem_table4", inputs.DEFAULT_SEED, [good, bad])
        self.assertTrue(good["ok"])
        self.assertFalse(bad["ok"])


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        # fem_fig8 stays runnable but is not listed; see README.md.
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(inputs.GROUPS) - {"fem_fig8"})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         stats.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         stats.PER_LAYER)

    def test_spread_is_interquartile_range_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)


if __name__ == "__main__":
    unittest.main()
