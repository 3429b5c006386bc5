"""Brute-force reference oracles: branch enumeration and finite differences."""

import numpy as np
import pytest

from helpers_tiny import random_tiny_mpcc
from mpcckit.core import QuadraticMpcc, classify_stationarity
from mpcckit.oracle import BranchAssignment, enumerate_branch_nlps, finite_diff


def _one_pair(Q, q, c0=0.0, **kw):
    return QuadraticMpcc.build(Q=Q, q=q, c0=c0,
                               A_G=[[1.0, 0.0]], b_G=[0.0],
                               A_H=[[0.0, 1.0]], b_H=[0.0],
                               coordinate_selection=True, **kw)


class TestEnumerateBranchNlps:
    def test_toy_problem_has_three_stationary_points(self):
        # min (x1-1)^2 + (x2-1)^2 over one complementarity pair
        p = _one_pair(Q=2 * np.eye(2), q=[-2.0, -2.0], c0=2.0)
        triples = enumerate_branch_nlps(p)
        points = sorted(tuple(np.round(x, 12)) for x, _, _ in triples)
        assert points == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
        values = sorted(p.f(x) for x, _, _ in triples)
        np.testing.assert_allclose(values, [1.0, 1.0, 2.0], atol=1e-12)

    def test_contradictory_branches_are_omitted(self):
        # the equality x1 = 2 contradicts the branches that force x1 = 0
        p = QuadraticMpcc.build(Q=2 * np.eye(2), q=np.zeros(2),
                                A_h=[[1.0, 0.0]], b_h=[-2.0],
                                A_G=[[1.0, 0.0]], b_G=[0.0],
                                A_H=[[0.0, 1.0]], b_H=[0.0],
                                coordinate_selection=True)
        triples = enumerate_branch_nlps(p)
        assert len(triples) == 1
        x, _, branch = triples[0]
        np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-9)
        assert branch.tags == ("H_zero",)

    def test_coincident_branch_solutions_are_deduplicated(self):
        # (0,0) solves both the H_zero and both_zero branches with identical
        # multipliers and must be reported once
        p = _one_pair(Q=2 * np.eye(2), q=[0.0, -2.0])
        triples = enumerate_branch_nlps(p)
        points = sorted(tuple(np.round(x, 12)) for x, _, _ in triples)
        assert points == [(0.0, 0.0), (0.0, 1.0)]

    def test_pair_guard(self):
        t = 13
        A_G = np.zeros((t, 2 * t))
        A_H = np.zeros((t, 2 * t))
        A_G[np.arange(t), np.arange(t)] = 1.0
        A_H[np.arange(t), t + np.arange(t)] = 1.0
        p = QuadraticMpcc.build(n=2 * t, A_G=A_G, b_G=np.zeros(t),
                                A_H=A_H, b_H=np.zeros(t),
                                coordinate_selection=True)
        with pytest.raises(ValueError, match=r"pairs \(13 > 12\)"):
            enumerate_branch_nlps(p)

    def test_inequality_guard(self):
        p = QuadraticMpcc.build(Q=np.eye(2), q=np.zeros(2),
                                A_g=np.ones((11, 2)), b_g=np.zeros(11))
        with pytest.raises(ValueError, match=r"inequality rows \(11 > 10\)"):
            enumerate_branch_nlps(p)

    @pytest.mark.parametrize("args, kwargs", [
        ((13,), {}), ((), {"max_pairs": 13}), ((), {"max_ineq": 11}),
        ((), {"feas_tol": 1e-6}), ((), {"dedup_tol": 1e-6}),
    ], ids=["positional", "max_pairs", "max_ineq", "feas_tol", "dedup_tol"])
    def test_limits_and_tolerances_are_fixed(self, args, kwargs):
        p = _one_pair(Q=2 * np.eye(2), q=[-2.0, -2.0])
        with pytest.raises(TypeError):
            enumerate_branch_nlps(p, *args, **kwargs)

    def test_enumerated_points_are_weakly_stationary(self):
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(10):
            p = random_tiny_mpcc(rng)
            for x, m, _ in enumerate_branch_nlps(p):
                report = classify_stationarity(p, x, m, tol=1e-7)
                assert report.is_feasible and report.is_W
                checked += 1
        assert checked >= 10

    def test_branch_tags_are_validated(self):
        with pytest.raises(ValueError):
            BranchAssignment(tags=("nope",))


class TestFiniteDiff:
    def test_scalar_square(self):
        d = finite_diff(lambda v: v[0] ** 2, [3.0])
        np.testing.assert_allclose(d, [6.0], atol=1e-6)

    def test_affine_is_exact_for_any_step(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        z = rng.normal(size=4)
        for h in (1e-2, 1e-6):
            jac = finite_diff(lambda v: A @ v + b, z, h=h)
            np.testing.assert_allclose(jac, A, rtol=0, atol=1e-9)

    def test_quadratic_gradient(self):
        rng = np.random.default_rng(12)
        B = rng.normal(size=(5, 5))
        Q = B.T @ B
        z = rng.normal(size=5)
        grad = finite_diff(lambda v: 0.5 * v @ Q @ v, z)
        np.testing.assert_allclose(grad, Q @ z, rtol=1e-6, atol=1e-6)
