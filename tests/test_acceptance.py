"""End-to-end acceptance checks, one test per shipped claim.

Each test pins the tolerances it enforces.  Expected values come from
independent sources: the branch-enumeration oracle, a bound-constrained QP
solved by scipy, central finite differences, or closed-form reasoning spelled
out next to the assertion.  The two observation datums for the inverse
problem (u_obs = 1 as stated, u_obs = 2 matching the reported objective of
2.00) are both exercised; see README.md for the discrepancy discussion.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from helpers_tiny import random_tiny_mpcc, point_in_D
from mpcckit import QuadraticMpcc
from mpcckit.alm import AlmConfig, solve_alm
from mpcckit.cli import ExperimentConfig, make_start, run_experiment
from mpcckit.compgeo import project_onto_C
from mpcckit.core import (MultiplierSet, check_mpcc_licq, check_mpcc_ssoc,
                          classify_stationarity, compute_index_sets)
from mpcckit.iocfem import IocParams, assemble_instance
from mpcckit.nsnewton import (FullPoint, NewtonConfig, merit_phi_fb, phi,
                              residual_F, solve_newton)
from mpcckit.oracle import enumerate_branch_nlps, finite_diff

SEEDS = tuple(range(1, 11))


def _obstacle_qp_value(instance):
    """Independent oracle for the obstacle runs: with the control at zero the
    coupled program splits and the w-block is a bound-constrained QP."""
    problem = instance.problem
    K = problem.dense_rows("Q", instance.w_idx)[:, instance.w_idx]
    qw = problem.q[instance.w_idx]
    w_a = instance.params.w_a
    res = minimize(lambda w: 0.5 * w @ (K @ w) + qw @ w, np.zeros(qw.size),
                   jac=lambda w: K @ w + qw, method="L-BFGS-B",
                   bounds=[(w_a, None)] * qw.size,
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 5000})
    assert res.success
    return problem.c0 + float(res.fun)


@pytest.fixture(scope="module")
def zero_obstacle_sweep():
    """Timed 10-seed ALM + Newton sweep on the default instance (w_a = 0)."""
    problem = assemble_instance(IocParams()).problem
    alm, nsn = {}, {}
    tic = time.perf_counter()
    for seed in SEEDS:
        x0, m0 = make_start(problem, seed)
        alm[seed] = solve_alm(problem, AlmConfig(), x0, m0)
        nsn[seed] = solve_newton(problem, z0=FullPoint.from_parts(x0, m0))
    elapsed = time.perf_counter() - tic
    return {"problem": problem, "alm": alm, "nsn": nsn, "elapsed": elapsed}


def test_criterion_1_zero_obstacle_defaults(zero_obstacle_sweep):
    sw = zero_obstacle_sweep
    problem = sw["problem"]
    for seed in SEEDS:
        a, n = sw["alm"][seed], sw["nsn"][seed]
        assert a.status == "converged"
        assert a.iterations <= 25
        assert a.final_V <= 1e-6
        assert n.status == "converged"
        assert n.iterations <= 15
        assert n.final_residual <= 1e-11
        fa, fn = a.objective, problem.f(n.z.x)
        assert abs(fa - fn) <= 1e-6 * max(1.0, abs(fa))
        # with u_obs = 1 the optimum sits at half the squared datum:
        # f(0) = 0.5 * sum(areas) * u_obs**2 = 0.50, and no feasible point
        # improves on parking the control at zero
        assert abs(fa - 0.50) <= 1e-2
    assert sw["elapsed"] < 120.0
    # doubled observation datum: same instance family, optimum scales by
    # u_obs**2 to the reported 2.00
    rec = assemble_instance(IocParams(u_obs=2.0)).problem
    for seed in (1, 2):
        x0, m0 = make_start(rec, seed)
        a = solve_alm(rec, AlmConfig(), x0, m0)
        n = solve_newton(rec, z0=FullPoint.from_parts(x0, m0))
        assert a.status == "converged" and n.status == "converged"
        assert abs(a.objective - 2.00) <= 1e-2
        assert abs(rec.f(n.z.x) - 2.00) <= 1e-2
    print("criterion 1: objective 0.50 with u_obs=1 (as stated), 2.00 with "
          "u_obs=2 (reported value); both datums verified")


def test_criterion_2_negative_obstacle():
    literal = assemble_instance(IocParams(w_a=-0.05))
    problem = literal.problem
    oracle_value = _obstacle_qp_value(literal)
    alm_values = {}
    for seed in (1, 2):
        x0, m0 = make_start(problem, seed)
        a = solve_alm(problem, AlmConfig(), x0, m0)
        assert a.status == "converged"
        assert a.iterations <= 25
        # reported objective 1.88 lives on the u_obs = 2 scale where the
        # zero-obstacle optimum is 2.00; on the stated datum (optimum 0.50)
        # the same relative drop puts the target at 1.88 * 0.50 / 2.00
        assert abs(a.objective - 0.94 * 0.50) <= 0.02
        assert abs(a.objective - oracle_value) <= 1e-3
        alm_values[seed] = a.objective
    for seed in (1, 2):
        x0, m0 = make_start(problem, seed)
        n = solve_newton(problem, z0=FullPoint.from_parts(x0, m0))
        assert n.status == "max_iters"
        assert n.iterations == 1000
        assert n.full_steps <= 3
        assert n.gradient_steps >= 0.8 * n.iterations
        assert abs(problem.f(n.z.x) - alm_values[seed]) <= 0.02
    # doubled datum: the w-block is unchanged, so every feasible point obeys
    # f >= c0 + min_w {0.5 w'Kw + qw'w : w >= w_a}; that bound already
    # exceeds 1.90, hence 1.88 +/- 0.02 is unattainable there
    rec = assemble_instance(IocParams(w_a=-0.05, u_obs=2.0))
    rec_oracle = _obstacle_qp_value(rec)
    assert rec_oracle - 1e-3 > 1.90
    x0, m0 = make_start(rec.problem, 1)
    a_rec = solve_alm(rec.problem, AlmConfig(), x0, m0)
    assert a_rec.status == "converged"
    assert abs(a_rec.objective - rec_oracle) <= 1e-3
    print(f"criterion 2: objective {alm_values[1]:.6f} (stated datum, target "
          f"0.47+/-0.02), {a_rec.objective:.6f} on the doubled datum where "
          f"the QP bound {rec_oracle:.6f} rules out 1.88")


def test_criterion_3_warm_start():
    cfg = ExperimentConfig(algorithm="warmstart", ioc=IocParams(w_a=-0.05),
                           seeds=(1, 2))
    rows = run_experiment(cfg)
    assert [row.seed for row in rows] == [1, 2]
    for row in rows:
        assert row.status == "converged"
        assert row.nsn_iterations <= 3
        assert row.nsn_full_steps >= 1


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(4001)
    tic = time.perf_counter()
    n_alm = n_nsn = 0
    stationary = {}
    for i in range(100):
        problem = random_tiny_mpcc(rng)
        candidates = [x for x, _, _ in enumerate_branch_nlps(problem)]
        x0 = rng.normal(size=problem.n)
        cfg = AlmConfig(slack_mode="slack_free", tau_alm=1e-8,
                        eps_schedule=lambda k: 1e-8)
        a = solve_alm(problem, cfg, x0=x0)
        if a.status == "converged":
            n_alm += 1
            dist = min(np.max(np.abs(a.x - c)) for c in candidates)
            assert dist <= 1e-6
            assert classify_stationarity(problem, a.x, a.multipliers,
                                         tol=1e-6).is_M
        z0 = FullPoint.from_parts(x0, MultiplierSet.zeros(problem))
        n = solve_newton(problem, z0=z0)
        if n.status == "stationary_merit":
            stationary[i] = n.iterations
        if n.status == "converged":
            n_nsn += 1
            dist = min(np.max(np.abs(n.z.x - c)) for c in candidates)
            assert dist <= 1e-6
            assert classify_stationarity(problem, n.z.x, n.z.multipliers(),
                                         tol=1e-6).is_M
    # the deterministic stream's counts, exactly: ALM converges on every
    # instance and Newton on 84; three of Newton's other 16 runs stop at a
    # stationary point of its merit with a nonzero residual
    assert n_alm == 100
    assert n_nsn == 84
    assert stationary == {24: 457, 32: 266, 84: 715}
    assert time.perf_counter() - tic < 60.0


def _quadratic_rate_instance():
    """Strictly convex two-pair program with a known interior-multiplier
    solution: x* = 0 with both pairs biactive and mu*, nu* < 0, so the point
    is M-stationary, satisfies LICQ and SSOC, and the small staggered
    multiplier magnitudes keep the residual system's pieces separated."""
    rng = np.random.default_rng(5007)
    basis = rng.normal(size=(4, 4))
    Q = basis.T @ basis + 0.5 * np.eye(4)
    A_G = np.zeros((2, 4))
    A_G[0, 0] = A_G[1, 1] = 1.0
    A_H = np.zeros((2, 4))
    A_H[0, 2] = A_H[1, 3] = 1.0
    mu_s = -np.exp(rng.uniform(np.log(2e-3), np.log(3e-2), size=2))
    nu_s = -np.exp(rng.uniform(np.log(2e-3), np.log(3e-2), size=2))
    q = -(A_G.T @ mu_s + A_H.T @ nu_s)  # makes grad L(x*, m*) vanish exactly
    problem = QuadraticMpcc.build(Q=Q, q=q, A_G=A_G, b_G=np.zeros(2),
                                  A_H=A_H, b_H=np.zeros(2),
                                  coordinate_selection=True)
    zstar = FullPoint.from_parts(np.zeros(4), MultiplierSet([], [], mu_s, nu_s))
    dirs = [rng.normal(size=8) for _ in range(2)]
    z0 = FullPoint.from_vector(
        problem, zstar.to_vector() + 1e-2 * dirs[1] / np.linalg.norm(dirs[1]))
    return problem, zstar, z0


def test_criterion_5_local_quadratic_convergence():
    problem, zstar, z0 = _quadratic_rate_instance()
    m = zstar.multipliers()
    assert np.linalg.norm(residual_F(problem, zstar)) == 0.0
    sets = compute_index_sets(problem, zstar.x, m)
    assert classify_stationarity(problem, zstar.x, m, tol=1e-8).is_M
    assert check_mpcc_licq(problem, sets)
    assert check_mpcc_ssoc(problem, sets)

    res = solve_newton(problem, z0=z0)
    assert res.status == "converged"
    assert res.iterations == 3
    assert res.full_steps == res.iterations  # every step a full Newton step
    errors = [1e-2]
    for j in range(1, res.iterations):
        partial = solve_newton(problem, NewtonConfig(max_iters=j), z0=z0)
        errors.append(np.linalg.norm(partial.z.to_vector() - zstar.to_vector()))
    errors.append(np.linalg.norm(res.z.to_vector() - zstar.to_vector()))
    assert errors[-1] <= 1e-12
    for e_k, e_next in zip(errors, errors[1:]):  # e_{k+1} <= K e_k^2, K = 100
        assert e_next <= 100.0 * e_k ** 2


def _m_branch_points(rng, count):
    """Points of the composite kink set's zero branches with margins >= 1e-3
    so a single affine piece of phi covers a 1e-4 perturbation ball."""
    points = []
    while len(points) < count:
        branch = int(rng.integers(3))
        m1 = float(rng.uniform(1e-3, 1.0))
        m2 = float(rng.uniform(1e-3, 1.0))
        sign = float(rng.choice([-1.0, 1.0]))
        if branch == 0:
            w = np.array([m1, 0.0, 0.0, sign * m2])
        elif branch == 1:
            w = np.array([0.0, m1, sign * m2, 0.0])
        else:
            w = np.array([0.0, 0.0, -m1, -m2])
        magnitudes = np.abs(w[np.abs(w) > 0])
        if abs(magnitudes[0] - magnitudes[1]) < 1e-3:
            continue  # near-tied magnitudes could flip the selected piece
        points.append(w)
    return points


def test_criterion_6_derivative_suite():
    # merit gradient against central finite differences (step 1e-6)
    rng = np.random.default_rng(606)
    for _ in range(10):
        problem = random_tiny_mpcc(rng)
        dim = problem.n + problem.r + problem.s + 2 * problem.t
        for _ in range(100):
            v = rng.normal(size=dim)
            _, grad = merit_phi_fb(problem, FullPoint.from_vector(problem, v))
            fd = finite_diff(
                lambda w: np.array(
                    [merit_phi_fb(problem, FullPoint.from_vector(problem, w))[0]]),
                v)[0]
            assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(fd))
    # phi is affine on each selection piece, so its linearization at a point
    # of the zero set is exact (not merely first-order) for perturbations
    # small enough to stay on the piece
    rng = np.random.default_rng(616)
    for w0 in _m_branch_points(rng, 200):
        vals0, _ = phi(*w0)
        assert np.all(vals0 == 0.0)
        w = w0 + rng.uniform(-1e-4, 1e-4, size=4)
        delta = w - w0
        vals, rows = phi(*w)
        np.testing.assert_array_equal(vals - rows @ delta, np.zeros(2))


def test_criterion_7_invariant_suite(zero_obstacle_sweep):
    # projection onto the complementarity cross: feasible, idempotent, and no
    # worse than either single-branch candidate (1e5 samples)
    rng = np.random.default_rng(700)
    z_g = rng.normal(scale=2.0, size=10 ** 5)
    z_h = rng.normal(scale=2.0, size=10 ** 5)
    p_g, p_h = project_onto_C(z_g, z_h)
    assert np.all(p_g >= 0) and np.all(p_h >= 0) and np.all(p_g * p_h == 0)
    again = project_onto_C(p_g, p_h)
    assert np.array_equal(again[0], p_g) and np.array_equal(again[1], p_h)
    d_self = (p_g - z_g) ** 2 + (p_h - z_h) ** 2
    d_keep_g = (np.maximum(z_g, 0.0) - z_g) ** 2 + z_h ** 2
    d_keep_h = z_g ** 2 + (np.maximum(z_h, 0.0) - z_h) ** 2
    assert np.all(d_self <= np.minimum(d_keep_g, d_keep_h))

    # zero sets of the nonsmooth residual, its smoothed counterpart, and the
    # M-classifier coincide on a constructed one-pair grid where grad L is
    # cancelled exactly
    eye2 = np.eye(2)
    n_inside = n_outside = 0
    for (a, b), mu, nu in itertools.product(
            [(0.0, 0.0), (0.75, 0.0), (0.0, 0.75)],
            [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]):
        x = np.array([a, b])
        q = -(eye2 @ x + mu * eye2[0] + nu * eye2[1])
        problem = QuadraticMpcc.build(Q=eye2, q=q, A_G=eye2[:1],
                                      b_G=np.zeros(1), A_H=eye2[1:],
                                      b_H=np.zeros(1),
                                      coordinate_selection=True)
        m = MultiplierSet([], [], [mu], [nu])
        z = FullPoint.from_parts(x, m)
        in_set = ((b == 0 and a >= 0 and mu == 0)
                  or (a == 0 and b >= 0 and nu == 0)
                  or (a == 0 and b == 0 and mu <= 0 and nu <= 0))
        assert (float(np.max(np.abs(residual_F(problem, z)))) == 0.0) == in_set
        assert (np.sqrt(2.0 * merit_phi_fb(problem, z)[0]) <= 1e-12) == in_set
        assert classify_stationarity(problem, x, m, tol=1e-8).is_M == in_set
        n_inside += in_set
        n_outside += not in_set
    assert n_inside > 0 and n_outside > 0

    # penalty monotonicity and the multiplier-update identity on every trace
    gamma = AlmConfig().gamma
    traces = [res.trace for res in zero_obstacle_sweep["alm"].values()]
    rng = np.random.default_rng(703)
    for _ in range(10):
        problem = random_tiny_mpcc(rng)
        traces.append(solve_alm(problem, AlmConfig(),
                                x0=rng.normal(size=problem.n)).trace)
    for trace in traces:
        rows = trace.rows
        assert rows[0].penalty_increased is False
        for row in rows:
            assert row.identity_gap <= 1e-10
        for prev, cur in zip(rows, rows[1:]):
            assert cur.rho >= prev.rho
            factor = gamma if prev.penalty_increased else 1.0
            assert cur.rho == pytest.approx(prev.rho * factor, rel=1e-12)

    # implication chain S => M => C => W, fuzzed plus one known-S anchor
    problem5, zstar5, _ = _quadratic_rate_instance()
    anchor = classify_stationarity(problem5, zstar5.x, zstar5.multipliers(),
                                   tol=1e-8)
    assert anchor.is_S and anchor.is_M and anchor.is_C and anchor.is_W
    rng = np.random.default_rng(704)
    checked = 0
    for _ in range(60):
        problem = random_tiny_mpcc(rng)
        for _ in range(5):
            if rng.random() < 0.5:
                x = point_in_D(problem, rng)
            else:
                x = rng.normal(size=problem.n)
            m = MultiplierSet(rng.normal(size=problem.r),
                              rng.normal(size=problem.s),
                              rng.normal(size=problem.t),
                              rng.normal(size=problem.t))
            tol = float(rng.choice([1e-8, 1e-2, 0.5]))
            report = classify_stationarity(problem, x, m, tol=tol)
            assert (not report.is_S) or report.is_M
            assert (not report.is_M) or report.is_C
            assert (not report.is_C) or report.is_W
            checked += 1
    assert checked == 300
