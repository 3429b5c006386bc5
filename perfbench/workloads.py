"""The benchmark workloads: their inputs, solves and correctness checks.

Each workload builds its inputs once (`setup`) and then solves and certifies
them one item at a time (`solve`), which returns one `Solve` record per
solver call. Only the public mpcckit API is called, with the configurations
the CLI and the acceptance tests use. The `det` field of a record holds the
deterministic outcome (status, counts, objective bits); everything timed is
kept apart from it.

With a `Tracer`, each call into a layer is wrapped in a span, and the ALM
subproblems go through `solve_alm`'s public `subsolver=` hook to a wrapper
around `pgrad.solve_subproblem` (same `PgradConfig`) that counts and times
the oracle, projection and stationarity callables it is handed.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from mpcckit import (AlmConfig, FullPoint, IocParams, MultiplierSet,
                     NewtonConfig, PgradConfig, QuadraticMpcc,
                     assemble_instance, classify_stationarity,
                     enumerate_branch_nlps, merit_phi_fb,
                     newton_derivative_DF, residual_F, solve_alm,
                     solve_newton, solve_subproblem)
from mpcckit.cli import make_start

# criterion 1: with u_obs = 1 the w_a = 0 optimum is f(0) = 0.5 * sum(areas)
IOC_OPTIMUM = 0.50
IOC_OBJECTIVE_TOL = 1e-2
IOC_CLASSIFY_TOL = 1e-4  # the CLI's default classify_tol
ALM_V_TOL = 1e-6
NEWTON_F_TOL = 1e-11
TINY_TOL = 1e-6  # criterion 4: distance to a branch candidate, and is_M


@dataclass
class Solve:
    id: str
    solver: str  # "alm" or "newton"
    seconds: float  # the solver call plus the certification of its result
    converged: bool
    check_ok: bool  # False only for a converged result that fails its check
    det: dict
    row_seconds: list = field(default_factory=list)  # Newton trace rows


@dataclass
class State:
    items: list  # solve items of one pass, in canonical order
    assemble_s: float | None  # None when the inputs are not FEM-assembled
    inputs: dict  # item -> (problem, x0, m0)


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _traced_subsolver(tracer, cfg: PgradConfig):
    def subsolver(oracle, projector, start, eps, stationarity):
        with tracer.span("pgrad.solve_subproblem"):
            return solve_subproblem(
                tracer.counted("alm.oracle", oracle),
                tracer.counted("compgeo.project", projector), start, eps,
                cfg=cfg,
                stationarity=tracer.counted("compgeo.stationarity",
                                            stationarity))
    return subsolver


def _run_alm(problem, cfg: AlmConfig, x0, m0, tracer):
    sub_cfg = PgradConfig()
    hook = {} if tracer is None else {
        "subsolver": _traced_subsolver(tracer, sub_cfg)}
    with _span(tracer, "alm.solve_alm"):
        res = solve_alm(problem, cfg, x0, m0, pgrad_cfg=sub_cfg, **hook)
    sub_iters = [row.sub_iters for row in res.trace.rows]
    det = {"status": res.status, "outer_iters": res.iterations,
           "penalty_increases": sum(bool(row.penalty_increased)
                                    for row in res.trace.rows),
           "pgrad_iters": sum(sub_iters),
           "pgrad_budget_hits": sum(k == sub_cfg.max_iters for k in sub_iters),
           "sub_iters": sub_iters,
           "objective": float(res.objective).hex(),
           "final_V": float(res.final_V).hex()}
    return res, det


def _backtracks(alpha: float | None, beta: float) -> int:
    """k with alpha = beta**k; the full Newton step has alpha = 1, k = 0."""
    return 0 if alpha is None else round(math.log(alpha) / math.log(beta))


def _run_newton(problem, z0: FullPoint, tracer):
    cfg = NewtonConfig()
    with _span(tracer, "nsnewton.solve_newton"):
        res = solve_newton(problem, cfg, z0)
    det = {"status": res.status, "iters": res.iterations,
           "full_steps": res.full_steps, "damped_steps": res.damped_steps,
           "gradient_steps": res.gradient_steps,
           "backtracks": sum(_backtracks(row.alpha, cfg.armijo_beta)
                             for row in res.trace.rows),
           "objective": float(problem.f(res.z.x)).hex(),
           "final_residual": float(res.final_residual).hex()}
    return res, det, [row.wall_time for row in res.trace.rows]


def _newton_starts(state: State):
    return [(p, FullPoint.from_parts(x0, m0))
            for p, x0, m0 in state.inputs.values()]


def _is_m(problem, x, m, tol, tracer) -> bool:
    with _span(tracer, "core.classify_stationarity"):
        return classify_stationarity(problem, x, m, tol=tol).is_M


class _IocWorkload:
    """Cold starts from `cli.make_start` on one assembled IOC instance."""

    params: IocParams
    start_seeds: tuple

    def setup(self, tracer) -> State:
        tic = time.perf_counter()
        with _span(tracer, "iocfem.assemble_instance"):
            problem = assemble_instance(self.params).problem
        assemble_s = time.perf_counter() - tic
        inputs = {}
        for seed in self.start_seeds:
            with _span(tracer, "cli.make_start"):
                x0, m0 = make_start(problem, seed)
            inputs[seed] = (problem, x0, m0)
        return State(list(self.start_seeds), assemble_s, inputs)

    def _certify(self, problem, x, m, residual_ok, objective, tracer):
        return bool(residual_ok
                    and abs(objective - IOC_OPTIMUM) <= IOC_OBJECTIVE_TOL
                    and _is_m(problem, x, m, IOC_CLASSIFY_TOL, tracer))


class IocAlm(_IocWorkload):
    # the paper's Table-1 instance; the first start seeds of its 10-seed sweep
    params = IocParams()
    start_seeds = (1, 2, 3)

    def solve(self, state: State, seed, tracer):
        problem, x0, m0 = state.inputs[seed]
        tic = time.perf_counter()
        res, det = _run_alm(problem, AlmConfig(), x0, m0, tracer)
        converged = res.status == "converged"
        ok = not converged or self._certify(
            problem, res.x, res.multipliers, res.final_V <= ALM_V_TOL,
            res.objective, tracer)
        return [Solve(f"alm/seed={seed}", "alm", time.perf_counter() - tic,
                      converged, ok, det)]

    def newton_starts(self, state: State):
        return []  # Newton never runs here


class IocNewton(_IocWorkload):
    # the mesh-refinement case: DF is 3010 x 3010
    params = IocParams(n_div=16)
    start_seeds = (1, 2)

    def solve(self, state: State, seed, tracer):
        problem, x0, m0 = state.inputs[seed]
        tic = time.perf_counter()
        res, det, rows = _run_newton(problem, FullPoint.from_parts(x0, m0),
                                     tracer)
        converged = res.status == "converged"
        ok = not converged or self._certify(
            problem, res.z.x, res.z.multipliers(),
            res.final_residual <= NEWTON_F_TOL, problem.f(res.z.x), tracer)
        return [Solve(f"newton/seed={seed}", "newton",
                      time.perf_counter() - tic, converged, ok, det, rows)]

    newton_starts = staticmethod(_newton_starts)


def tiny_mpcc(rng: np.random.Generator) -> QuadraticMpcc:
    """One random feasible instance with n <= 6, t <= 2, r <= 2, s <= 1, Q > 0.

    The recipe of tests/helpers_tiny.random_tiny_mpcc, draw for draw, kept
    here so that the benchmark's inputs cannot change when a test does.
    """
    t = int(rng.integers(1, 3))
    n = int(rng.integers(2 * t, 7))
    r = int(rng.integers(0, 3))
    s = int(rng.integers(0, 2))

    basis = rng.normal(size=(n, n))
    Q = basis.T @ basis + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    c0 = float(rng.normal())

    perm = rng.permutation(n)
    idx_g, idx_h = perm[:t], perm[t:2 * t]
    sign_g = rng.choice([-1.0, 1.0], size=t)
    sign_h = rng.choice([-1.0, 1.0], size=t)
    A_G = np.zeros((t, n))
    A_H = np.zeros((t, n))
    A_G[np.arange(t), idx_g] = sign_g
    A_H[np.arange(t), idx_h] = sign_h

    anchor = rng.normal(size=n)
    slack = rng.uniform(0.2, 1.0, size=t)
    g_side_zero = rng.random(t) < 0.5
    a_vals = np.where(g_side_zero, 0.0, slack)
    b_vals = np.where(g_side_zero, slack, 0.0)
    b_G = a_vals - sign_g * anchor[idx_g]
    b_H = b_vals - sign_h * anchor[idx_h]

    A_g = rng.normal(size=(r, n))
    b_g = -A_g @ anchor - rng.uniform(0.1, 1.0, size=r)
    A_h = rng.normal(size=(s, n))
    b_h = -A_h @ anchor

    return QuadraticMpcc.build(Q=Q, q=q, c0=c0, A_g=A_g, b_g=b_g,
                               A_h=A_h, b_h=b_h, A_G=A_G, b_G=b_G,
                               A_H=A_H, b_H=b_H, coordinate_selection=True)


def _tiny_eps(k):
    return 1e-8


class TinyRandom:
    """Criterion 4 on the first instances of its own random stream."""

    stream_seed = 4001  # criterion 4's generator seed
    n_instances = 30
    alm_cfg = AlmConfig(slack_mode="slack_free", tau_alm=1e-8,
                        eps_schedule=_tiny_eps)

    def setup(self, tracer) -> State:
        rng = np.random.default_rng(self.stream_seed)
        inputs = {}
        for i in range(self.n_instances):
            problem = tiny_mpcc(rng)
            x0 = rng.normal(size=problem.n)
            inputs[i] = (problem, x0, MultiplierSet.zeros(problem))
        return State(list(range(self.n_instances)), None, inputs)

    def _certify(self, problem, candidates, x, m, tracer) -> bool:
        dist = min((np.max(np.abs(x - c)) for c in candidates),
                   default=math.inf)
        return bool(dist <= TINY_TOL and _is_m(problem, x, m, TINY_TOL, tracer))

    def solve(self, state: State, i, tracer):
        problem, x0, m0 = state.inputs[i]
        with _span(tracer, "oracle.enumerate_branch_nlps"):
            candidates = [x for x, _, _ in enumerate_branch_nlps(problem)]

        tic = time.perf_counter()
        a, a_det = _run_alm(problem, self.alm_cfg, x0, None, tracer)
        a_conv = a.status == "converged"
        a_ok = not a_conv or self._certify(problem, candidates, a.x,
                                           a.multipliers, tracer)
        alm = Solve(f"alm/instance={i:03d}", "alm", time.perf_counter() - tic,
                    a_conv, a_ok, a_det)

        tic = time.perf_counter()
        n, n_det, rows = _run_newton(problem, FullPoint.from_parts(x0, m0),
                                     tracer)
        n_conv = n.status == "converged"
        n_ok = not n_conv or self._certify(problem, candidates, n.z.x,
                                           n.z.multipliers(), tracer)
        newton = Solve(f"newton/instance={i:03d}", "newton",
                       time.perf_counter() - tic, n_conv, n_ok, n_det, rows)
        return [alm, newton]

    newton_starts = staticmethod(_newton_starts)


def newton_kernels(problem, z0: FullPoint, tracer) -> dict:
    """Times of the Newton kernels at one start point, and the size of DF.

    `lu_factor` is the dense factorization `solve_newton` performs on DF.
    """
    out = {}

    def timed(key, name, call):
        tic = time.perf_counter()
        with tracer.span(name):
            result = call()
        out[key] = 1e3 * (time.perf_counter() - tic)
        return result

    timed("residual_ms", "nsnewton.residual_F", lambda: residual_F(problem, z0))
    df = timed("df_ms", "nsnewton.newton_derivative_DF",
               lambda: newton_derivative_DF(problem, z0))
    timed("merit_ms", "nsnewton.merit_phi_fb", lambda: merit_phi_fb(problem, z0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a singular DF is a valid input here
        timed("lu_ms", "nsnewton.lu_factor",
              lambda: scipy.linalg.lu_factor(df, check_finite=False))
    out["df_bytes"] = df.shape[0] * df.shape[1] * 8  # computed, not measured
    out["df_density"] = np.count_nonzero(df) / df.size
    return out


WORKLOADS = {"ioc-alm": IocAlm(), "ioc-newton": IocNewton(),
             "tiny-random": TinyRandom()}
