"""Simplex solver checks against hand-solved and brute-force instances."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from bcabe.simplex import Infeasible, Unbounded, solve_min


def brute_force_cover(a, b, grid):
    """Cheapest nonnegative grid point satisfying A x >= b (unit costs)."""
    n = a.shape[1]
    best = np.inf
    for x in itertools.product(grid, repeat=n):
        x = np.array(x, dtype=float)
        if np.all(a @ x >= np.array(b) - 1e-12):
            best = min(best, x.sum())
    return best


class TestSolveMin:
    def test_single_constraint(self):
        val, x = solve_min([1.0, 1.0], [[1.0, 2.0]], [2.0])
        assert val == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-9)

    def test_two_by_two(self):
        # min x+y s.t. x+y >= 1, x >= 0.25
        val, x = solve_min([1.0, 1.0], [[1, 1], [1, 0]], [1.0, 0.25])
        assert val == pytest.approx(1.0, abs=1e-9)
        assert x[0] >= 0.25 - 1e-9 and x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_fractional_optimum_triangle(self):
        # covering a triangle's vertices by its edges needs weight 3/2
        a = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=float)
        val, x = solve_min(np.ones(3), a, np.ones(3))
        assert val == pytest.approx(1.5, abs=1e-9)
        np.testing.assert_allclose(x, [0.5, 0.5, 0.5], atol=1e-9)

    def test_matches_brute_force_on_random_01_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m, n = rng.integers(1, 5), rng.integers(1, 5)
            a = rng.integers(0, 2, size=(m, n)).astype(float)
            a[a.sum(axis=1) == 0, rng.integers(0, n)] = 1.0  # keep rows coverable
            b = rng.integers(1, 3, size=m).astype(float)
            val, x = solve_min(np.ones(n), a, b)
            assert np.all(a @ x >= b - 1e-9)
            assert x.sum() == pytest.approx(val, abs=1e-9)
            # integer grid upper-bounds the LP optimum
            assert val <= brute_force_cover(a, b, range(0, 3)) + 1e-9

    def test_redundant_rows_handled(self):
        a = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        val, _ = solve_min([1.0, 1.0], a, [1.0, 1.0, 2.0])
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_zero_right_hand_side_gives_zero(self):
        val, x = solve_min([1.0], [[1.0]], [0.0])
        assert val == pytest.approx(0.0, abs=1e-12)
        assert x[0] == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_detected(self):
        with pytest.raises(Infeasible):
            solve_min([1.0], [[-1.0]], [1.0])  # -x >= 1 with x >= 0

    def test_unbounded_detected(self):
        with pytest.raises(Unbounded):
            solve_min([-1.0], [[1.0]], [0.0])  # min -x with x free upward

    def test_degenerate_instance_terminates(self):
        # many tied ratios; Bland's rule must not cycle
        a = np.array([
            [1, 0, 0, 1],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
            [1, 1, 1, 3],
        ], dtype=float)
        val, x = solve_min(np.ones(4), a, [1, 1, 1, 3])
        assert np.all(a @ x >= 1 - 1e-9)
        assert val == pytest.approx(x.sum(), abs=1e-9)
