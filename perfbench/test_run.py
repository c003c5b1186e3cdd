"""Tests for run.py's own logic: python3 -m unittest discover perfbench"""

import unittest

import run


class TallyTest(unittest.TestCase):
    def test_every_operation_counts_in_the_denominator(self):
        t = run.Tally()
        t.op(True)                       # a partition pass
        t.op(False, "pass exited 2")     # a crashed pass still counts
        t.requests(100, 3, 0)            # a client session: 3 refused or timed out
        self.assertEqual(t.attempted, 102)
        self.assertEqual(t.failed, 4)
        self.assertTrue(t.correct)

    def test_wrong_outputs_fail_and_mark_incorrect(self):
        t = run.Tally()
        t.op(True, wrong=True)
        self.assertEqual((t.attempted, t.failed, t.correct), (1, 1, False))
        t = run.Tally()
        t.requests(10, 2, 2)  # two wrong answers are also failed requests
        self.assertEqual((t.attempted, t.failed, t.correct), (10, 2, False))


def leg(setups, wall, rss):
    return {"setup_s": setups, "wall_s": wall, "total_s": sum(setups) + wall, "edges": 1000, "rss_mb": rss}


def serve(setup, rss, lps, p50, reloads):
    return {"setup_s": setup, "rss_mb": rss,
            "load": {"lookups_per_s": lps, "lookup_p50_ms": p50, "reload_s": reloads}}


class ResultTest(unittest.TestCase):
    def test_end_to_end_takes_medians_and_reports_every_metric(self):
        q = {"process_sim_s": 2.0, "rf": 1.5, "max_load": 1.01}
        parts = [leg([0.1, 0.5], 1.0, 10), leg([0.3], 2.0, 30), leg([0.2], 4.0, 20)]
        serves = [serve(0.5, 100, 5e5, 0.7, [0.2, 0.4]), serve(0.7, 120, 6e5, 0.9, [0.3])]
        m = run.end_to_end(q, parts, serves)
        self.assertEqual(set(m), set(run.END_TO_END))
        self.assertEqual(m["edges_per_s"], 500.0)          # median of 1000, 500, 250
        self.assertAlmostEqual(m["setup_s"], 0.25 + 0.6)   # median pass set-up + median server set-up
        self.assertAlmostEqual(m["total_latency_s"], 2.3 + 2.0)  # median leg + simulated job
        self.assertEqual(m["peak_rss_mb"], 20 + 110)
        self.assertEqual(m["reload_s"], 0.3)               # median over all reloads
        out = run.result(run.Tally(), m, run.END_TO_END)
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(out["metrics"]["rf"], {"value": 1.5, "unit": "replicas/vertex"})


class FakeWorkload:
    """Legs on a fake clock: a partition leg takes 1 s and then 10 s of
    output checks, a serve leg 1 s."""

    def __init__(self, clock):
        self.clock, self.tally, self.untimed = clock, run.Tally(), 0.0

    def partition(self):
        self.clock[0] += 11
        self.untimed += 10
        return leg([0.1], 1.0, 10)

    def serve(self):
        self.clock[0] += 1
        return serve(0.5, 100, 5e5, 0.7, [0.2])

    def batch_quality(self):
        return {"process_sim_s": 2.0, "rf": 1.5, "max_load": 1.01}


class MeasureTest(unittest.TestCase):
    def test_output_checks_do_not_count_against_the_budget(self):
        clock = [0.0]
        w = FakeWorkload(clock)
        saved = run.time.monotonic
        run.time.monotonic = lambda: clock[0]
        try:
            self.assertIsNotNone(run.measure(w, 6))
        finally:
            run.time.monotonic = saved
        # Six timed seconds, shared equally: three legs of each kind. Had the
        # checks counted, the run would stop at the two-leg minimum, and the
        # partition legs would look eleven times as costly as serve legs.
        self.assertEqual(w.tally.attempted, 0)
        self.assertEqual(clock[0], 3 * 11 + 3 * 1)


if __name__ == "__main__":
    unittest.main()
