"""Safeguarded augmented Lagrangian outer loop and its building blocks."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse

from helpers_tiny import random_tiny_mpcc, without_flag
from mpcckit.alm import (
    AlmConfig,
    augmented_lagrangian,
    feasibility_measure,
    safeguard_multipliers,
    slack_problem,
    solve_alm,
    update_multipliers,
)
from mpcckit.cli import make_start
from mpcckit.core import (
    MultiplierSet,
    QuadraticMpcc,
    as_operator,
    classify_stationarity,
    eval_lagrangian,
)
from mpcckit.iocfem import IocParams, assemble_instance
from mpcckit.oracle import enumerate_branch_nlps, finite_diff
from mpcckit.pgrad import PgradConfig, PgradError, solve_subproblem


def _toy_pair_problem():
    """min (x1-1)^2 + (x2-1)^2 over one complementarity pair."""
    return QuadraticMpcc.build(Q=2 * np.eye(2), q=[-2.0, -2.0], c0=2.0,
                               A_G=[[1.0, 0.0]], b_G=[0.0],
                               A_H=[[0.0, 1.0]], b_H=[0.0],
                               coordinate_selection=True)


def _m(lam=(), eta=(), mu=(), nu=()):
    return MultiplierSet(np.asarray(lam, float), np.asarray(eta, float),
                         np.asarray(mu, float), np.asarray(nu, float))


def _lifted(m):
    """Multipliers of slack_problem(p) from those of p."""
    return MultiplierSet(m.lam, np.concatenate([m.eta, m.mu, m.nu]),
                         m.mu, m.nu)


def _clean_pair_problem():
    return QuadraticMpcc.build(Q=np.eye(2), q=np.zeros(2),
                               A_g=[[1.0, 0.0]], b_g=[-5.0],
                               A_G=[[1.0, 0.0]], b_G=[0.0],
                               A_H=[[0.0, 1.0]], b_H=[0.0],
                               coordinate_selection=True)


def _dense_pair_mpcc(rng):
    """A random tiny MPCC seen through an orthogonal change of variables.

    x = U y turns every coordinate-selection pair row into a dense one while
    keeping the instance feasible and Q positive definite.
    """
    p = random_tiny_mpcc(rng)
    U, _ = np.linalg.qr(rng.normal(size=(p.n, p.n)))
    return QuadraticMpcc.build(Q=U.T @ p.Q @ U, q=U.T @ p.q, c0=p.c0,
                               A_g=p.A_g @ U, b_g=p.b_g,
                               A_h=p.A_h @ U, b_h=p.b_h,
                               A_G=p.A_G @ U, b_G=p.b_G,
                               A_H=p.A_H @ U, b_H=p.b_H, n=p.n)


class TestAugmentedLagrangian:
    def test_exact_slacks_reduce_to_objective(self):
        p = _clean_pair_problem()
        lifted = slack_problem(p)
        x = np.array([1.0, 2.0])
        point = np.concatenate([x, p.G(x), p.H(x)])
        value, grad = augmented_lagrangian(lifted, point, 3.0,
                                           MultiplierSet.zeros(lifted))
        assert value == p.f(x)
        assert grad.shape == (4,)

    def test_shifted_inequality_term_vanishes(self):
        p = QuadraticMpcc.build(n=2, A_g=[[1.0, 0.0]], b_g=[0.0])
        value, _ = augmented_lagrangian(p, [-2.0, 0.0], 1.0, _m(lam=[1.0]))
        assert value == 0.0

    def test_equality_penalty_term(self):
        p = QuadraticMpcc.build(n=2, A_h=[[1.0, 0.0]], b_h=[0.0])
        value, _ = augmented_lagrangian(p, [1.0, 0.0], 4.0, _m(eta=[0.0]))
        assert value == 2.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            p = random_tiny_mpcc(rng)
            hat = _m(lam=np.abs(rng.normal(size=p.r)),
                     eta=rng.normal(size=p.s),
                     mu=rng.normal(size=p.t), nu=rng.normal(size=p.t))
            rho = float(rng.uniform(0.5, 5.0))
            for prob, m in ((p, hat), (slack_problem(p), _lifted(hat))):
                point = rng.normal(size=prob.n)
                _, grad = augmented_lagrangian(prob, point, rho, m)
                num = finite_diff(
                    lambda v: augmented_lagrangian(prob, v, rho, m)[0], point)
                np.testing.assert_allclose(grad, num, rtol=1e-5, atol=1e-5)


class TestFeasibilityMeasure:
    def test_zero_at_clean_point(self):
        p = _clean_pair_problem()
        lifted = slack_problem(p)
        x = np.array([1.0, 0.0])
        point = np.concatenate([x, p.G(x), p.H(x)])
        assert feasibility_measure(lifted, point, 2.0,
                                   MultiplierSet.zeros(lifted)) == 0.0

    def test_violated_complementarity_slackness(self):
        p = QuadraticMpcc.build(n=1, A_g=[[1.0]], b_g=[0.0])
        v = feasibility_measure(p, [-3.0], 2.0, _m(lam=[6.0]))
        assert v == 3.0

    def test_equality_block(self):
        p = QuadraticMpcc.build(n=1, A_h=[[1.0]], b_h=[0.0])
        assert feasibility_measure(p, [0.5], 1.0, _m(eta=[0.0])) == 0.5


class TestSafeguardMultipliers:
    def test_identity_inside_boxes(self):
        m = _m(lam=[3.0], eta=[-4.0], mu=[1.0], nu=[-2.0])
        out = safeguard_multipliers(m, 1e20)
        for name in ("lam", "eta", "mu", "nu"):
            np.testing.assert_array_equal(getattr(out, name),
                                          getattr(m, name))

    def test_negative_lambda_clamped_to_zero(self):
        out = safeguard_multipliers(_m(lam=[-5.0]), 1e20)
        np.testing.assert_array_equal(out.lam, [0.0])

    def test_bound_clamp(self):
        out = safeguard_multipliers(_m(mu=[2e20]), 1e20)
        np.testing.assert_array_equal(out.mu, [1e20])


class TestUpdateMultipliers:
    def test_zero_at_clean_point(self):
        p = _clean_pair_problem()
        lifted = slack_problem(p)
        x = np.array([1.0, 0.0])
        point = np.concatenate([x, p.G(x), p.H(x)])
        m = update_multipliers(lifted, point, 2.0, MultiplierSet.zeros(lifted))
        assert all(np.all(getattr(m, k) == 0.0)
                   for k in ("lam", "eta", "mu", "nu"))

    def test_shifted_inequality_update(self):
        p = QuadraticMpcc.build(n=1, A_g=[[1.0]], b_g=[0.0])
        m = update_multipliers(p, [-2.0], 1.0, _m(lam=[1.0]))
        np.testing.assert_array_equal(m.lam, [0.0])

    def test_slack_mode_gradient_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_tiny_mpcc(rng)
            lifted = slack_problem(p)
            hat = _lifted(safeguard_multipliers(
                _m(lam=rng.normal(size=p.r), eta=rng.normal(size=p.s),
                   mu=rng.normal(size=p.t), nu=rng.normal(size=p.t)), 1e20))
            rho = float(rng.uniform(0.5, 20.0))
            point = rng.normal(size=lifted.n)
            m_new = update_multipliers(lifted, point, rho, hat)
            # the recovered pair multipliers are the coupling multipliers
            coupling = m_new.eta[p.s:]
            np.testing.assert_array_equal(m_new.mu, coupling[:p.t])
            np.testing.assert_array_equal(m_new.nu, coupling[p.t:])
            _, grad_pen = augmented_lagrangian(lifted, point, rho, hat)
            m_orig = MultiplierSet(m_new.lam, m_new.eta[:p.s],
                                   m_new.mu, m_new.nu)
            _, grad_l, _ = eval_lagrangian(p, point[:p.n], m_orig)
            full = np.concatenate([grad_l, -m_new.mu, -m_new.nu])
            np.testing.assert_allclose(grad_pen, full, rtol=0, atol=1e-10)

    def test_slack_free_recovery_zeroes_pair_gradient(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            p = random_tiny_mpcc(rng)
            pairs = p.pair_partition()
            hat = safeguard_multipliers(
                _m(lam=rng.normal(size=p.r), eta=rng.normal(size=p.s),
                   mu=rng.normal(size=p.t), nu=rng.normal(size=p.t)), 1e20)
            rho = float(rng.uniform(0.5, 20.0))
            x = rng.normal(size=p.n)
            m_new = update_multipliers(p, x, rho, hat)
            _, grad_l, _ = eval_lagrangian(p, x, m_new)
            sel = np.concatenate([pairs.idx_g, pairs.idx_h])
            np.testing.assert_allclose(grad_l[sel], 0.0, atol=1e-12)
            _, grad_pen = augmented_lagrangian(p, x, rho, hat)
            free = np.setdiff1d(np.arange(p.n), sel)
            np.testing.assert_allclose(grad_l[free], grad_pen[free],
                                       rtol=0, atol=1e-12)


class TestSlackProblem:
    def test_pairs_select_slacks_and_coupling_rows_close_h(self):
        rng = np.random.default_rng(35)
        for p in (random_tiny_mpcc(rng), _dense_pair_mpcc(rng)):
            n, s, t = p.n, p.s, p.t
            lifted = slack_problem(p)
            assert (lifted.n, lifted.r, lifted.s, lifted.t) == \
                (n + 2 * t, p.r, s + 2 * t, t)
            pairs = lifted.pair_partition()
            np.testing.assert_array_equal(pairs.idx_g, n + np.arange(t))
            np.testing.assert_array_equal(pairs.idx_h, n + t + np.arange(t))
            x, z_g, z_h = (rng.normal(size=n), rng.normal(size=t),
                           rng.normal(size=t))
            point = np.concatenate([x, z_g, z_h])
            np.testing.assert_allclose(lifted.h(point), np.concatenate(
                [p.h(x), p.G(x) - z_g, p.H(x) - z_h]), rtol=0, atol=1e-14)
            a, b = pairs.values(point)
            np.testing.assert_array_equal(a, z_g)
            np.testing.assert_array_equal(b, z_h)
            assert lifted.f(point) == pytest.approx(p.f(x), rel=1e-14)


    def test_lifted_blocks_are_the_dense_stacking_of_the_same_kinds(self):
        # sparse stacking gives the blocks, and so the operator kinds, of
        # stacking the dense blocks: on a CSR Q and a dense A_h of the IOC
        # instance, and on dense tiny blocks
        rng = np.random.default_rng(36)
        for p in (assemble_instance(IocParams(n_div=4)).problem,
                  random_tiny_mpcc(rng)):
            n, s, t = p.n, p.s, p.t
            dense = {name: p.dense_rows(name)
                     for name in ("Q", "A_g", "A_h", "A_G", "A_H")}
            eye, zero = np.eye(t), np.zeros((t, t))
            ref = dict(
                Q=np.pad(dense["Q"], (0, 2 * t)),
                A_g=np.pad(dense["A_g"], ((0, 0), (0, 2 * t))),
                A_h=np.block([[dense["A_h"], np.zeros((s, 2 * t))],
                              [dense["A_G"], -eye, zero],
                              [dense["A_H"], zero, -eye]]),
                A_G=np.hstack([np.zeros((t, n)), eye, zero]),
                A_H=np.hstack([np.zeros((t, n)), zero, eye]))
            lifted = slack_problem(p)
            for name, block in ref.items():
                mine = getattr(lifted, name)
                assert scipy.sparse.issparse(mine) == \
                    scipy.sparse.issparse(as_operator(block)), name
                np.testing.assert_array_equal(lifted.dense_rows(name), block)


class TestAlmConfig:
    def test_defaults(self):
        cfg = AlmConfig()
        assert cfg.gamma == 10.0
        assert cfg.q_alm == 0.8
        assert cfg.safeguard_bound == 1e20
        assert cfg.tau_alm == 1e-6
        assert cfg.max_outer_iters == 1000
        assert cfg.eps(0) == 1e-4
        assert cfg.eps(1) == 1e-4 / math.sqrt(2.0)

    def test_eps_schedule_override(self):
        cfg = AlmConfig(eps_schedule=lambda k: 0.5)
        assert cfg.eps(17) == 0.5
        assert AlmConfig(eps_schedule=lambda k: 0).eps(17) == 0.0

    @pytest.mark.parametrize("value", [np.nan, -1.0, np.inf, "1e-4", None])
    def test_eps_schedule_value_that_is_not_a_tolerance_is_rejected(
            self, value):
        cfg = AlmConfig(eps_schedule=lambda k: value)
        with pytest.raises(ValueError, match=re.escape(
                f"AlmConfig.eps_schedule(17) must be a finite number >= 0, "
                f"got {value!r}")):
            cfg.eps(17)
        # before the first subproblem runs to a tolerance it cannot meet
        with pytest.raises(ValueError, match=re.escape(
                "AlmConfig.eps_schedule(1)")):
            solve_alm(_toy_pair_problem(), cfg, x0=[0.3, -0.2])

    @pytest.mark.parametrize("field, value", [
        ("gamma", 1.0), ("gamma", 0.5), ("gamma", np.inf), ("q_alm", np.nan),
        ("q_alm", 1.0), ("safeguard_bound", 0.0),
        ("safeguard_bound", np.inf), ("tau_alm", -1.0),
        ("tau_alm", np.nan), ("max_outer_iters", -1),
        ("max_outer_iters", 10.0), ("max_outer_iters", True),
        ("rho0", 0.0), ("rho0", np.inf), ("rho0", np.nan),
        ("eps_schedule", 1e-4), ("slack_mode", "nope"), ("slack_mode", None),
    ])
    def test_bad_value_is_rejected_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"AlmConfig.{field} must be"):
            AlmConfig(**{field: value})

    def test_values_at_the_edge_of_their_range_are_accepted(self):
        AlmConfig(rho0=7.0, tau_alm=0.0, max_outer_iters=0)
        for mode in ("auto", "slack", "slack_free"):
            AlmConfig(slack_mode=mode, eps_schedule=lambda k: 1e-8)


class TestSolveAlm:
    def test_start_at_feasible_minimizer(self):
        p = QuadraticMpcc.build(Q=np.eye(2), q=[-2.0, 0.0],
                                A_g=[[1.0, 0.0]], b_g=[-10.0])
        res = solve_alm(p, x0=[2.0, 0.0])
        assert res.status == "converged"
        assert res.iterations == 1
        assert res.final_V == 0.0
        np.testing.assert_allclose(res.x, [2.0, 0.0], atol=1e-12)

    def test_toy_mpcc_matches_branch_oracle(self):
        p = _toy_pair_problem()
        res = solve_alm(p)
        assert res.status == "converged"
        cands = [x for x, _, _ in enumerate_branch_nlps(p)]
        dists = [np.max(np.abs(res.x - c)) for c in cands]
        assert min(dists) <= 1e-6
        # the matched point is one of the two branch minima, not the
        # weakly-stationary origin
        matched = cands[int(np.argmin(dists))]
        assert p.f(matched) == pytest.approx(1.0, abs=1e-9)
        report = classify_stationarity(p, res.x, res.multipliers, tol=1e-4)
        assert report.is_M

    def test_slack_and_slack_free_modes_agree_with_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            p = random_tiny_mpcc(rng)
            cands = [x for x, _, _ in enumerate_branch_nlps(p)]
            x0 = rng.normal(size=p.n)
            for mode in ("slack", "slack_free"):
                cfg = AlmConfig(slack_mode=mode, tau_alm=1e-8,
                                eps_schedule=lambda k: 1e-8)
                res = solve_alm(p, cfg, x0=x0)
                assert res.status == "converged", mode
                assert min(np.max(np.abs(res.x - c)) for c in cands) <= 1e-6

    def test_iterates_stay_in_domain(self):
        p = _toy_pair_problem()
        res_free = solve_alm(p, AlmConfig(slack_mode="slack_free"))
        a, b = p.pair_partition().values(res_free.x)
        assert a >= 0 and b >= 0 and a * b == 0
        res_slack = solve_alm(p, AlmConfig(slack_mode="slack"))
        assert np.all(res_slack.z_g >= 0) and np.all(res_slack.z_h >= 0)
        assert np.all(res_slack.z_g * res_slack.z_h == 0)

    def test_trace_invariants(self):
        p = _toy_pair_problem()
        res = solve_alm(p, AlmConfig(slack_mode="slack"), x0=[4.0, -3.0])
        rows = res.trace.rows
        assert rows[0].penalty_increased is False
        for prev, cur in zip(rows, rows[1:]):
            expected = prev.rho * (10.0 if prev.penalty_increased else 1.0)
            assert cur.rho == pytest.approx(expected)
        assert all(r.identity_gap <= 1e-10 for r in rows)

    def test_identity_gap_at_the_updated_multipliers(self):
        # each row's gap, recomputed from its subproblem's oracle and point
        # and the multiplier update, to the bit
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = random_tiny_mpcc(rng)
            solved = []

            def subsolver(oracle, proj, start, eps, stationarity):
                out = solve_subproblem(oracle, proj, start, eps,
                                       stationarity=stationarity)
                solved.append((oracle, out[0]))
                return out
            cfg = AlmConfig(slack_mode="slack_free")
            res = solve_alm(p, cfg, x0=rng.normal(size=p.n),
                            subsolver=subsolver)
            m = MultiplierSet.zeros(p)
            for row, (oracle, x) in zip(res.trace.rows, solved, strict=True):
                hat = safeguard_multipliers(m, cfg.safeguard_bound)
                m = update_multipliers(p, x, row.rho, hat)
                grad_x = p.grad_f(x) + p.A_g.T @ m.lam + p.A_h.T @ m.eta
                gap = np.max(np.abs(oracle(x)[1] - grad_x), initial=0.0)
                assert row.identity_gap == gap

    def test_rho0_override(self):
        p = _toy_pair_problem()
        res = solve_alm(p, AlmConfig(rho0=7.0))
        assert res.trace.rows[0].rho == 7.0

    def test_default_rho0_is_clamped_scale(self):
        p = _toy_pair_problem()
        res = solve_alm(p)
        assert 1e-3 <= res.trace.rows[0].rho <= 1e3

    def test_subsolver_budget_exhaustion_is_recorded_and_survived(self):
        p = _toy_pair_problem()
        res = solve_alm(p, AlmConfig(max_outer_iters=4),
                        x0=[20.0, -20.0],
                        pgrad_cfg=PgradConfig(max_iters=1))
        assert res.status in ("converged", "max_iters")
        assert any(r.sub_converged is False for r in res.trace.rows)
        assert len(res.trace.rows) == res.iterations

    @pytest.mark.parametrize("seed", [1, 8, 10])
    def test_negative_obstacle_subproblems_meet_their_tolerance(self, seed):
        # these starts once ran a subproblem through the whole SPG budget and
        # still ended ALM as converged
        problem = assemble_instance(IocParams(w_a=-0.05)).problem
        x0, m0 = make_start(problem, seed)
        res = solve_alm(problem, AlmConfig(), x0, m0)
        assert res.status == "converged"
        for row in res.trace.rows:
            assert row.sub_converged is True
            assert row.sub_iters < PgradConfig().max_iters

    def test_subsolver_hard_error_reports_failure(self):
        p = _toy_pair_problem()

        def broken(oracle, proj, start, eps, stationarity):
            raise PgradError("boom")

        res = solve_alm(p, subsolver=broken)
        assert res.status == "subsolver_failure"

    def test_penalty_limit_at_infeasible_limit_point(self):
        # the lifted iterates settle on the branch z_G = 0, where h = 0 and
        # G = z_G contradict: V stalls at 1/sqrt(2) and rho grows each time
        p = QuadraticMpcc(Q=np.eye(2), q=np.zeros(2),
                          A_h=[[1.0, 1.0]], b_h=[1.0],
                          A_G=[[1.0, 1.0]], A_H=[[1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_alm(p, x0=[0.3, 0.1],
                            pgrad_cfg=PgradConfig(max_iters=2000))
        assert res.status == "penalty_limit"
        assert res.iterations < 40
        assert res.final_rho <= AlmConfig().safeguard_bound

    def test_auto_mode_detects_selecting_rows(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            flagged = random_tiny_mpcc(rng)
            x0 = rng.normal(size=flagged.n)
            want = solve_alm(flagged, x0=x0)
            got = solve_alm(without_flag(flagged), x0=x0)
            assert got.z_g is None and got.z_h is None
            np.testing.assert_array_equal(got.x, want.x)
            assert got.objective == want.objective

    def test_unknown_slack_mode_rejected(self):
        p = _toy_pair_problem()
        with pytest.raises(ValueError):
            solve_alm(p, AlmConfig(slack_mode="nope"))

    def test_general_pair_maps_match_branch_oracle(self):
        # pair rows that select no coordinate are solved on the lifted problem
        rng = np.random.default_rng(34)
        cfg = AlmConfig(tau_alm=1e-8, eps_schedule=lambda k: 1e-8)
        for _ in range(5):
            p = _dense_pair_mpcc(rng)
            assert np.count_nonzero(p.A_G) == p.A_G.size
            with pytest.raises(ValueError):
                p.pair_partition()
            res = solve_alm(p, cfg, x0=rng.normal(size=p.n))
            assert res.status == "converged"
            cands = [x for x, _, _ in enumerate_branch_nlps(p)]
            assert min(np.max(np.abs(res.x - c)) for c in cands) <= 1e-6
            assert classify_stationarity(p, res.x, res.multipliers,
                                         tol=1e-6).is_M

    def test_wrong_start_lengths_rejected(self):
        p = _toy_pair_problem()
        with pytest.raises(ValueError, match="length n = 2"):
            solve_alm(p, x0=np.zeros(3))
        m0 = _m(mu=[0.0], nu=[0.0, 0.0])
        with pytest.raises(ValueError, match=r"\(0, 0, 1, 1\)"):
            solve_alm(p, m0=m0)
        for start in (dict(x0=[np.nan, 0.0]), dict(m0=_m(mu=[-np.inf],
                                                          nu=[0.0]))):
            with pytest.raises(ValueError, match="NaN or infinite"):
                solve_alm(p, **start)

    def test_slack_free_requires_coordinate_selection(self):
        p = QuadraticMpcc.build(Q=np.eye(2), q=np.zeros(2),
                                A_G=[[1.0, 1.0]], b_G=[0.0],
                                A_H=[[1.0, -1.0]], b_H=[0.0])
        with pytest.raises(ValueError):
            solve_alm(p, AlmConfig(slack_mode="slack_free"))
