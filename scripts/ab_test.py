#!/usr/bin/env python3
"""Unit tests for scripts/ab.py's verdict, on canned run results.

    python3 scripts/ab_test.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab  # noqa: E402

END_TO_END = [
    {"name": "tasks_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
]
# Ten runs 2% apart around the median: a quiet machine.
QUIET = [0.91, 0.93, 0.95, 0.97, 0.99, 1.01, 1.03, 1.05, 1.07, 1.09]


def runs(scale=1.0, spread=QUIET, digest="abc", failed=0, attempted=10):
    return [ab.Run(ok=True, digest=digest, attempted=attempted, failed=failed,
                   metrics={"tasks_per_s": 1000.0 * scale * s,
                            "op_p50_ms": 50.0 / scale * s})
            for s in spread]


class VerdictTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        j = ab.judge(END_TO_END, runs(), runs())
        self.assertEqual(j.failures, [])
        self.assertTrue(j.digests_equal)
        self.assertEqual([r.verdict for r in j.rows], ["neutral", "neutral"])

    def test_digest_mismatch_fails(self):
        j = ab.judge(END_TO_END, runs(), runs(digest="def"))
        self.assertFalse(j.digests_equal)
        self.assertTrue(any("digests differ" in f for f in j.failures))

    def test_median_worse_than_bound_fails(self):
        j = ab.judge(END_TO_END, runs(), runs(scale=0.7))
        self.assertEqual([r.verdict for r in j.rows], ["worse", "worse"])
        self.assertEqual(len(j.failures), 2)

    def test_base_iqr_wider_than_bound_is_unresolved(self):
        noisy = [0.4, 0.5, 0.6, 0.7, 1.0, 1.0, 1.3, 1.4, 1.5, 1.6]
        j = ab.judge(END_TO_END, runs(spread=noisy), runs(spread=noisy))
        self.assertEqual(j.rows[0].verdict, "unresolved")
        self.assertGreater(j.rows[0].base_iqr, 0.25)
        self.assertEqual(j.failures, [])

    def test_higher_failed_share_fails(self):
        j = ab.judge(END_TO_END, runs(), runs(failed=1))
        self.assertEqual(j.head_counts, (10, 100))
        self.assertTrue(any("larger share" in f for f in j.failures))

    def test_failed_run_fails(self):
        j = ab.judge(END_TO_END, runs(), runs()[:9] + [ab.Run(ok=False)])
        self.assertIn("a run failed", j.failures)

    def test_clear_gain_reads_better(self):
        j = ab.judge(END_TO_END, runs(), runs(scale=1.2))
        self.assertEqual([r.verdict for r in j.rows], ["better", "better"])
        self.assertEqual(j.failures, [])

    def test_parse_run_reads_digest_and_json_line(self):
        out = ("metric end_to_end tasks_per_s = 5 tasks/s (n=3)\n"
               "digest: 0123abcd\n"
               '{"correct":true,"attempted":4,"failed":0,'
               '"metrics":{"tasks_per_s":{"value":5,"unit":"tasks/s"}}}\n')
        run = ab.parse_run(0, out)
        self.assertTrue(run.ok)
        self.assertEqual((run.digest, run.attempted), ("0123abcd", 4))
        self.assertEqual(run.metrics, {"tasks_per_s": 5})
        self.assertFalse(ab.parse_run(1, out).ok)
        self.assertFalse(ab.parse_run(0, "digest: 0123abcd\nnot json\n").ok)


if __name__ == "__main__":
    unittest.main()
