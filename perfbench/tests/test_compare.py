"""Unit tests for perfbench/compare.py: the spread and regression-bound rules.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_identical_values_have_no_spread(self):
        self.assertEqual(compare.spread([5.0] * 10), 0.0)

    def test_interquartile_range_over_median(self):
        values = [float(v) for v in range(1, 11)]  # quantiles 2.75, 5.5, 8.25
        self.assertAlmostEqual(compare.spread(values), (8.25 - 2.75) / 5.5)


class RegressionBoundTest(unittest.TestCase):
    def test_lower_is_better_within_bound(self):
        self.assertFalse(compare.regressed([100.0] * 3, [109.0] * 3, "lower", 0.1))

    def test_lower_is_better_beyond_bound(self):
        self.assertTrue(compare.regressed([100.0] * 3, [111.0] * 3, "lower", 0.1))

    def test_higher_is_better_beyond_bound(self):
        self.assertTrue(compare.regressed([1000.0] * 3, [880.0] * 3, "higher", 0.1))

    def test_improvement_never_regresses(self):
        self.assertFalse(compare.regressed([100.0] * 3, [50.0] * 3, "lower", 0.01))
        self.assertFalse(compare.regressed([100.0] * 3, [200.0] * 3, "higher", 0.01))

    def test_medians_not_means_decide(self):
        # One wild child run must not flag a regression on its own.
        self.assertFalse(compare.regressed([100.0] * 5, [100.0] * 4 + [1e6], "lower", 0.1))

    def test_worsening_sign_follows_direction(self):
        self.assertAlmostEqual(compare.worsening(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(compare.worsening(10.0, 12.0, "higher"), -0.2)


if __name__ == "__main__":
    unittest.main()
