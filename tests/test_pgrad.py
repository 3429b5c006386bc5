"""Nonmonotone spectral projected gradient subproblem solver."""

import numpy as np
import pytest

from mpcckit import pgrad
from mpcckit.compgeo import PairPartition, project_onto_C
from mpcckit.pgrad import PgradConfig, PgradError, solve_subproblem


def _pair_projector(p):
    a, b = project_onto_C(p[:1], p[1:])
    return np.concatenate([a, b])


_ONE_PAIR = PairPartition([0], [1], [0.0], [0.0], [1.0], [1.0])


def _pair_stationarity(p, grad):
    return _ONE_PAIR.stationarity(p, grad)


def _bowl(center):
    c = np.asarray(center, dtype=float)

    def oracle(x):
        d = x - c
        return float(d @ d), 2.0 * d

    return oracle


def _spy_face_phase(monkeypatch, stationarity, script=None):
    """Record (iteration, accepted) for every face-phase attempt.

    Returns the record and a stationarity callable to pass to the solver:
    it runs once at the start point and once per iteration, so its call
    count at an attempt is the attempt's iteration number. With a script,
    attempt i is rejected if script[i] is None (or past the script's end),
    and otherwise returns the short gradient step x - 1e-4 * grad with
    shortened = script[i].
    """
    attempts, calls = [], [0]
    face_trial = pgrad._face_trial

    def counting(p, grad):
        calls[0] += 1
        return stationarity(p, grad)

    def spy(oracle, projector, x, grad, *rest):
        if script is None:
            out = face_trial(oracle, projector, x, grad, *rest)
        elif len(attempts) < len(script) and script[len(attempts)] is not None:
            trial = projector(x - 1e-4 * grad)
            out = (trial, *oracle(trial), script[len(attempts)])
        else:
            out = None
        attempts.append((calls[0], out is not None))
        return out

    monkeypatch.setattr(pgrad, "_face_trial", spy)
    return attempts, counting


def _assert_back_off(attempts):
    # after the j-th rejection in a row the next attempt waits at least
    # 2**(j-1) iterations (a lower bound: after an accepted candidate the
    # count starts again, although a shortened one keeps the wait growing)
    wait = 1
    for (it, accepted), (nxt, _) in zip(attempts, attempts[1:]):
        assert nxt - it >= (1 if accepted else wait)
        wait = 1 if accepted else 2 * wait


class TestSolveSubproblem:
    def test_start_at_interior_minimum_returns_immediately(self):
        x, stat, iters = solve_subproblem(_bowl([2.0, 0.0]), _pair_projector,
                                          [2.0, 0.0], eps=1e-8,
                                          stationarity=_pair_stationarity)
        assert iters == 0
        assert stat == 0.0
        np.testing.assert_array_equal(x, [2.0, 0.0])

    def test_bowl_with_tied_branches(self):
        x, stat, _ = solve_subproblem(_bowl([2.0, 2.0]), _pair_projector,
                                      [0.3, 0.1], eps=1e-8,
                                      stationarity=_pair_stationarity)
        assert stat <= 1e-8
        closest = min([(2.0, 0.0), (0.0, 2.0)],
                      key=lambda c: np.hypot(x[0] - c[0], x[1] - c[1]))
        np.testing.assert_allclose(x, closest, atol=1e-6)

    def test_bowl_clamped_against_the_cone(self):
        # center (-1, 2) is infeasible; the inward x1-gradient is absorbed
        x, stat, _ = solve_subproblem(_bowl([-1.0, 2.0]), _pair_projector,
                                      [5.0, 0.0], eps=1e-8,
                                      stationarity=_pair_stationarity)
        assert stat <= 1e-8
        np.testing.assert_allclose(x, [0.0, 2.0], atol=1e-6)

    def test_accepted_iterates_stay_feasible_and_reference_never_increases(self):
        accepted = []

        def recording_stationarity(p, grad):
            accepted.append(np.array(p))
            return _pair_stationarity(p, grad)

        oracle = _bowl([3.0, 1.0])
        solve_subproblem(oracle, _pair_projector, [10.0, -4.0], eps=1e-10,
                         stationarity=recording_stationarity)
        assert len(accepted) >= 2
        for p in accepted:
            assert p[0] >= 0.0 and p[1] >= 0.0 and p[0] * p[1] == 0.0
        values = [oracle(p)[0] for p in accepted]
        window = PgradConfig().memory_length
        refs = [max(values[max(0, i + 1 - window):i + 1])
                for i in range(len(values))]
        assert all(b <= a for a, b in zip(refs, refs[1:]))

    def test_non_finite_value_raises(self):
        def oracle(x):
            return float("nan"), np.zeros(2)

        with pytest.raises(PgradError):
            solve_subproblem(oracle, _pair_projector, [1.0, 0.0], eps=1e-8)

    def test_non_finite_gradient_raises(self):
        def oracle(x):
            return 1.0, np.array([np.inf, 0.0])

        with pytest.raises(PgradError):
            solve_subproblem(oracle, _pair_projector, [1.0, 0.0], eps=1e-8)

    def test_budget_exhaustion_returns_best_seen(self):
        seen = []

        def recording_stationarity(p, grad):
            s = _pair_stationarity(p, grad)
            seen.append(s)
            return s

        def quartic(x):
            d = x[0] - 2.0
            return float(d ** 4 + x[1] ** 2), np.array([4 * d ** 3, 2 * x[1]])

        cfg = PgradConfig(max_iters=3)
        _, stat, iters = solve_subproblem(quartic, _pair_projector,
                                          [40.0, 0.0], eps=1e-16, cfg=cfg,
                                          stationarity=recording_stationarity)
        assert iters == 3
        assert stat == min(seen)

    def test_reaches_tight_tolerance_on_strongly_convex_objectives(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            B = rng.normal(size=(2, 2))
            Q = B.T @ B + 0.5 * np.eye(2)
            c = rng.normal(size=2)

            def oracle(x, Q=Q, c=c):
                return float(0.5 * x @ Q @ x + c @ x), Q @ x + c

            _, stat, iters = solve_subproblem(oracle, _pair_projector,
                                              rng.normal(size=2), eps=1e-8,
                                              stationarity=_pair_stationarity)
            assert stat <= 1e-8
            assert iters < PgradConfig().max_iters

    def test_face_phase_meets_stopping_test_and_uses_only_the_callables(
            self, monkeypatch):
        # ill-conditioned QP over D (condition 1e4, three pairs): projected
        # gradient crawls long enough for the face phase to fire
        rng = np.random.default_rng(3)
        n, t = 12, 3
        pairs = PairPartition(np.arange(t), np.arange(t, 2 * t), np.zeros(t),
                              np.zeros(t), np.ones(t), np.ones(t))
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Q = U @ np.diag(np.logspace(0.0, 4.0, n)) @ U.T
        c = rng.normal(size=n)
        x0 = rng.normal(size=n)

        def oracle(x):
            return float(0.5 * x @ Q @ x + c @ x), Q @ x + c

        def projector(x):
            return pairs.project(x)

        def stationarity(x, grad):
            return pairs.stationarity(x, grad)

        attempts, counting = _spy_face_phase(monkeypatch, stationarity)
        x, stat, iters = solve_subproblem(oracle, projector, x0, eps=1e-8,
                                          stationarity=counting)
        outcomes = [accepted for _, accepted in attempts]
        assert outcomes and outcomes[0]  # the first attempt is accepted
        _assert_back_off(attempts)
        assert iters <= 100
        assert stat <= 1e-8
        assert stat == stationarity(x, oracle(x)[1])
        np.testing.assert_array_equal(projector(x), x)
        assert iters < PgradConfig().max_iters

        x_w, stat_w, iters_w = solve_subproblem(
            lambda p: oracle(p), lambda p: projector(p), x0, eps=1e-8,
            stationarity=lambda p, grad: stationarity(p, grad))
        np.testing.assert_array_equal(x_w, x)
        assert stat_w == stat
        assert iters_w == iters

    def test_face_phase_back_off_doubles_and_resets(self, monkeypatch):
        # unconstrained ill-conditioned QP: every step moves every
        # coordinate, so the free set settles after three steps (first
        # attempt at iteration 4). Three rejections wait 1, 2, 4 iterations,
        # a full face step ends the wait, and a shortened one counts as a
        # rejection: the next attempts wait 1, 2, 4, 8
        Q = np.diag(np.logspace(0.0, 3.0, 6))
        c = -np.ones(6)

        def oracle(x):
            return float(0.5 * x @ Q @ x + c @ x), Q @ x + c

        attempts, counting = _spy_face_phase(
            monkeypatch, lambda p, grad: float(np.linalg.norm(grad)),
            script=[None, None, None, False, True])
        _, stat, _ = solve_subproblem(oracle, lambda p: p.copy(), np.zeros(6),
                                      eps=1e-8, stationarity=counting)
        assert stat <= 1e-8
        assert attempts[:9] == [(4, False), (5, False), (7, False), (11, True),
                                (12, True), (13, False), (15, False),
                                (19, False), (27, False)]
        _assert_back_off(attempts)

    def test_face_phase_searches_back_from_an_infeasible_face_minimizer(
            self, monkeypatch):
        # pair (x0, x1) plus a free x2; on the face x1 = 0 the quadratic's
        # minimizer has x0 = -1, and projecting it gives a worse point than
        # x; a quarter of the CG step stays feasible and decreases f
        Q = np.array([[1.0, 0.0, 0.99], [0.0, 1.0, 0.0], [0.99, 0.0, 1.0]])
        m = np.array([-1.0, -1.0, 2.0])
        pairs = PairPartition(np.array([0]), np.array([1]), np.zeros(1),
                              np.zeros(1), np.ones(1), np.ones(1))

        def oracle(x):
            return float(0.5 * (x - m) @ Q @ (x - m)), Q @ (x - m)

        def projector(x):
            return pairs.project(x)

        x = np.array([0.5, 0.0, 0.5])
        val, grad = oracle(x)
        free = np.array([True, False, True])
        args = (oracle, projector, x, grad, free, 1e-8, val, PgradConfig())
        trial, t_val, _, shortened = pgrad._face_trial(*args)
        np.testing.assert_allclose(trial, [0.125, 0.0, 0.875], atol=1e-9)
        assert t_val < val
        assert shortened
        monkeypatch.setattr(pgrad, "_FACE_SEARCH", 2)
        assert pgrad._face_trial(*args) is None

    def test_face_phase_stops_cg_on_non_positive_curvature(self):
        # on a concave face the first CG direction has negative curvature,
        # so CG stops after one probe with no step and there is no candidate
        calls = []

        def concave(x):
            calls.append(x)
            return float(-0.5 * x @ x), -x

        x = np.array([1.0, 2.0])
        val, grad = concave(x)
        calls.clear()
        assert pgrad._face_trial(concave, lambda p: p, x, grad,
                                 np.ones(2, bool), 1e-8, val,
                                 PgradConfig()) is None
        assert len(calls) == 1
        # on an indefinite face CG keeps its first step, which the
        # negative curvature of the second direction does not extend
        Q = np.diag([1.0, -0.01])

        def indefinite(x):
            return float(0.5 * x @ Q @ x), Q @ x

        x = np.array([1.0, 1.0])
        val, grad = indefinite(x)
        trial, t_val, _, shortened = pgrad._face_trial(
            indefinite, lambda p: p, x, grad, np.ones(2, bool), 1e-8, val,
            PgradConfig())
        step = -grad * (grad @ grad) / (grad @ Q @ grad)
        np.testing.assert_allclose(trial, x + step, rtol=1e-6)
        assert t_val < val and not shortened

    def test_collapsed_search_accepts_its_last_trial(self):
        # the oracle reports -4 as the gradient of f(x) = x, which is no
        # descent direction, so every trial fails the Armijo test; from
        # alpha = 1/4 the 60th halving brings step * |grad|_inf to 1e-18 or
        # below, two halvings after step itself, and the search accepts the
        # trial of the 59th
        calls = []

        def lying(x):
            calls.append(x)
            return float(x.sum()), np.array([-4.0])

        x, stat, iters = solve_subproblem(lying, lambda p: p, np.zeros(1),
                                          1e-8, cfg=PgradConfig(max_iters=1))
        assert len(calls) == 1 + 60
        assert calls[-1][0] == 0.5 ** 59
        # the accepted step is no better, so the start is the best seen
        assert x.tolist() == [0.0] and stat == 4.0 and iters == 1

    @pytest.mark.parametrize("seed", [13, 22, 45])
    def test_face_phase_does_not_cycle_on_ill_conditioned_qps(self, seed):
        # with face candidates judged against the nonmonotone reference
        # instead of the current value, these QPs over D cycle through face
        # steps that raise the objective until the budget runs out
        rng = np.random.default_rng(seed)
        n, t = 12, 3
        pairs = PairPartition(np.arange(t), np.arange(t, 2 * t), np.zeros(t),
                              np.zeros(t), np.ones(t), np.ones(t))
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        Q = U @ np.diag(np.logspace(0.0, 4.5, n)) @ U.T
        c = rng.normal(size=n)
        x0 = rng.normal(size=n)
        _, stat, iters = solve_subproblem(
            lambda x: (float(0.5 * x @ Q @ x + c @ x), Q @ x + c),
            lambda x: pairs.project(x), x0, eps=1e-8,
            stationarity=lambda x, grad: pairs.stationarity(x, grad))
        assert stat <= 1e-8
        assert iters <= 300

    def test_defaults_are_pinned(self):
        cfg = PgradConfig()
        assert cfg.memory_length == 10
        assert cfg.step_bounds == (1e-10, 1e10)
        assert cfg.delta == 1e-4
        assert cfg.backtrack == 0.5
        assert cfg.max_iters == 50_000

    @pytest.mark.parametrize("field, value", [
        ("memory_length", 0), ("memory_length", 2.0), ("memory_length", True),
        ("step_bounds", (1.0, 0.5)), ("step_bounds", (0.0, 1.0)),
        ("step_bounds", (1e-10, np.inf)), ("step_bounds", (1e-10,)),
        ("step_bounds", 1.0), ("delta", 0.0), ("delta", np.nan),
        ("backtrack", 1.0), ("max_iters", -1), ("max_iters", False),
    ])
    def test_bad_value_is_rejected_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"PgradConfig.{field} must be"):
            PgradConfig(**{field: value})

    def test_values_at_the_edge_of_their_range_are_accepted(self):
        PgradConfig(memory_length=1, step_bounds=[1.0, 1.0], max_iters=0)

    def test_step_bounds_are_stored_as_a_tuple(self):
        bounds = PgradConfig(step_bounds=[1e-10, 1e10]).step_bounds
        assert type(bounds) is tuple and bounds == (1e-10, 1e10)
