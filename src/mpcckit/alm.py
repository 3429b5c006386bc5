"""Safeguarded augmented Lagrangian method for complementarity-constrained QPs.

The g/h blocks are penalized with safeguarded multiplier shifts while the
complementarity geometry is kept as an explicit projectable constraint: each
subproblem is posed over D = {x : G(x) >= 0, H(x) >= 0, G(x)'H(x) = 0}, and
the pair multipliers are recovered from the pair components of the
subproblem gradient. Projecting onto D needs pair maps that select signed
coordinates. Any other problem, and every problem in slack mode, is solved
by the same method on `slack_problem(problem)`: the MPCC in (x, z_G, z_H)
whose coupling rows G(x) - z_G = 0 and H(x) - z_H = 0 join the penalized
equalities and whose pairs select the slacks, so that D is R^n x C.

Outer iteration k solves the subproblem to stationarity eps_{k+1}, updates the
multipliers with the classical shifted formulas, and enlarges the penalty by
gamma unless the feasibility measure V dropped by the factor q_alm (first
iteration always keeps it). The loop guard evaluates V with the previous raw
multipliers; the penalty test uses the safeguarded ones. The loop stops with
status "converged" once V <= tau_alm, "max_iters" after max_outer_iters,
"penalty_limit" when the next penalty would exceed safeguard_bound (V has
stalled, as at an infeasible limit point), and "subsolver_failure" when the
subproblem solver fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import pgrad
from .core import (COUNT, FRACTION, NONNEGATIVE, FullPoint, MultiplierSet,
                   QuadraticMpcc, SolverTrace, TraceRow, check_fields,
                   check_value, is_number, start_vector)

__all__ = [
    "AlmConfig",
    "AlmResult",
    "SolverTrace",
    "TraceRow",
    "safeguard_multipliers",
    "augmented_lagrangian",
    "feasibility_measure",
    "update_multipliers",
    "slack_problem",
    "solve_alm",
]


@dataclass(frozen=True)
class AlmConfig:
    rho0: float | None = None  # None -> scale from initial violation
    gamma: float = 10.0
    q_alm: float = 0.8
    safeguard_bound: float = 1e20
    eps_schedule: object = None  # callable k -> eps_k; default 1e-4*(k+1)**-0.5
    tau_alm: float = 1e-6
    max_outer_iters: int = 1000
    slack_mode: str = "auto"  # {"slack", "slack_free", "auto"}

    def __post_init__(self):
        check_fields(
            self,
            rho0=(lambda v: v is None or is_number(v) and 0 < v < math.inf,
                  "None or a finite number > 0"),
            gamma=(lambda v: is_number(v) and 1 < v < math.inf,
                   "a finite number > 1"),
            q_alm=FRACTION,
            safeguard_bound=(lambda v: is_number(v) and 0 < v < math.inf,
                             "a finite number > 0"),
            eps_schedule=(lambda v: v is None or callable(v),
                          "None or callable"),
            tau_alm=NONNEGATIVE, max_outer_iters=COUNT,
            slack_mode=(lambda v: v in ("auto", "slack", "slack_free"),
                        "'auto', 'slack' or 'slack_free'"))

    def eps(self, k: int) -> float:
        """eps_k, the stationarity the k-th subproblem is solved to; a value
        of eps_schedule that is not a finite number >= 0 is rejected."""
        if self.eps_schedule is not None:
            eps = self.eps_schedule(k)
            check_value(f"AlmConfig.eps_schedule({k})", eps, NONNEGATIVE)
            return float(eps)
        return 1e-4 / math.sqrt(k + 1)


@dataclass
class AlmResult:
    x: np.ndarray
    z_g: np.ndarray | None
    z_h: np.ndarray | None
    multipliers: MultiplierSet
    status: str  # {"converged", "max_iters", "penalty_limit", "subsolver_failure"}
    iterations: int
    objective: float
    final_V: float
    final_rho: float
    trace: SolverTrace


def _lifts(problem: QuadraticMpcc, cfg: AlmConfig) -> bool:
    """Whether solve_alm runs on slack_problem(problem)."""
    if cfg.slack_mode == "slack_free" and not problem.coordinate_selection:
        raise ValueError("slack_free mode requires coordinate-selection pair maps")
    return cfg.slack_mode == "slack" or not problem.coordinate_selection


def slack_problem(problem: QuadraticMpcc) -> QuadraticMpcc:
    """The MPCC in (x, z_G, z_H) with G(x) - z_G = 0 and H(x) - z_H = 0.

    The coupling rows follow the rows of h, and the pairs select z_G and z_H,
    so the multipliers of the lifted problem are (lambda, (eta, mu, nu), mu,
    nu). Each z column of the lifted A_h holds a single -1, so the pair
    multipliers that update_multipliers recovers equal the coupling ones.
    """
    n, r, t = problem.n, problem.r, problem.t
    eye, zero = sp.eye_array(t), sp.csr_array((t, t))

    def stack(blocks):
        return sp.block_array(blocks, format="csr")

    return QuadraticMpcc(
        Q=stack([[problem.Q, None], [None, sp.csr_array((2 * t, 2 * t))]]),
        q=np.pad(problem.q, (0, 2 * t)), c0=problem.c0,
        A_g=stack([[problem.A_g, sp.csr_array((r, 2 * t))]]), b_g=problem.b_g,
        A_h=stack([[problem.A_h, None, None], [problem.A_G, -eye, None],
                   [problem.A_H, None, -eye]]),
        b_h=np.concatenate([problem.b_h, problem.b_G, problem.b_H]),
        A_G=stack([[sp.csr_array((t, n)), eye, zero]]), b_G=np.zeros(t),
        A_H=stack([[sp.csr_array((t, n)), zero, eye]]), b_H=np.zeros(t))


def safeguard_multipliers(m: MultiplierSet, bound: float) -> MultiplierSet:
    """Clamp lambda to [0, bound] and the sign-free multipliers to [-bound, bound]."""
    return MultiplierSet(np.clip(m.lam, 0.0, bound),
                         np.clip(m.eta, -bound, bound),
                         np.clip(m.mu, -bound, bound),
                         np.clip(m.nu, -bound, bound))


def augmented_lagrangian(problem: QuadraticMpcc, x, rho: float,
                         safeguarded: MultiplierSet):
    """Value and gradient of the shifted quadratic penalty at x."""
    return _penalty_oracle(problem, rho, safeguarded)(
        np.asarray(x, dtype=float))


def _penalty_oracle(problem: QuadraticMpcc, rho: float, hat: MultiplierSet):
    """The penalty oracle of one outer iteration: the value and gradient of
    the shifted quadratic penalty at a point.

    The subproblem solver evaluates it hundreds of thousands of times, so
    the multiplier shifts are folded in once, and it multiplies through the
    problem's stored blocks and their .T views, which copy nothing.
    """
    Q, Ag, Ah, AgT, AhT = (problem.Q, problem.A_g, problem.A_h,
                           problem.A_g.T, problem.A_h.T)
    q, c0, b_g, b_h = problem.q, problem.c0, problem.b_g, problem.b_h
    shift_g = hat.lam / rho
    shift_h = hat.eta / rho

    def oracle(x):
        qx = Q @ x
        sg = np.maximum((Ag @ x + b_g) + shift_g, 0.0)
        sh = (Ah @ x + b_h) + shift_h
        squares = sg @ sg + sh @ sh
        pulled = AgT @ sg + AhT @ sh
        value = (0.5 * (x @ qx) + q @ x + c0) + 0.5 * rho * squares
        grad = qx + q + rho * pulled
        return float(value), grad
    return oracle


def feasibility_measure(problem: QuadraticMpcc, x, rho: float,
                        m: MultiplierSet) -> float:
    """V(x, m) = max of the blockwise constraint residual norms."""
    parts = [0.0]
    if problem.r:
        parts.append(np.linalg.norm(np.maximum(problem.g(x), -m.lam / rho)))
    if problem.s:
        parts.append(np.linalg.norm(problem.h(x)))
    return float(max(parts))


def update_multipliers(problem: QuadraticMpcc, x, rho: float,
                       safeguarded: MultiplierSet) -> MultiplierSet:
    """Shifted multiplier update at the new subproblem point x.

    lambda/eta follow the classical formulas, while (mu, nu) are read off the
    pair components of grad f + A_g' lambda+ + A_h' eta+ (sign-mapped), which
    makes the full Lagrangian gradient vanish exactly on the pair
    coordinates.
    """
    return _update(problem, x, rho, safeguarded)[0]


def _update(problem: QuadraticMpcc, x, rho: float,
            safeguarded: MultiplierSet):
    """update_multipliers, and the partial gradient
    grad f + A_g' lambda+ + A_h' eta+ that it reads (mu, nu) from."""
    lam = np.maximum(rho * problem.g(x) + safeguarded.lam, 0.0)
    eta = rho * problem.h(x) + safeguarded.eta
    pairs = problem.pair_partition()
    partial = problem.grad_f(x) + problem.A_g.T @ lam + problem.A_h.T @ eta
    mu = -pairs.sign_g * partial[pairs.idx_g]
    nu = -pairs.sign_h * partial[pairs.idx_h]
    return MultiplierSet(lam, eta, mu, nu), partial


def _identity_gap(x, oracle, partial) -> float:
    """|grad of the penalty - grad of the Lagrangian at the updated multipliers|,
    given the partial gradient of _update at x.

    The pair components cancel by construction of the recovered (mu, nu).
    """
    _, grad_rho = oracle(x)
    return float(np.max(np.abs(grad_rho - partial), initial=0.0))


def solve_alm(problem: QuadraticMpcc, config: AlmConfig | None = None,
              x0=None, m0: MultiplierSet | None = None, subsolver=None,
              pgrad_cfg: pgrad.PgradConfig | None = None) -> AlmResult:
    """Run the safeguarded outer loop from (x0, m0).

    In slack mode, and for pair maps that do not select coordinates, the
    loop runs on slack_problem(problem) from (x0, 0, 0), and the result
    carries the slacks z_g, z_h (None otherwise).
    """
    cfg = config or AlmConfig()
    n, s, t = problem.n, problem.s, problem.t
    start = FullPoint.from_vector(problem, start_vector(
        problem, FullPoint.from_parts(np.zeros(n) if x0 is None else x0,
                                      m0 or MultiplierSet.zeros(problem))))
    x0, m = start.x, start.multipliers()
    lifted = _lifts(problem, cfg)
    solved, point = problem, x0.copy()
    if lifted:
        solved = slack_problem(problem)
        point = np.concatenate([x0, np.zeros(2 * t)])
        m = MultiplierSet(m.lam, np.concatenate([m.eta, m.mu, m.nu]),
                          m.mu, m.nu)
    pairs = solved.pair_partition()

    if subsolver is None:
        sub_cfg = pgrad_cfg or pgrad.PgradConfig()

        def subsolver(oracle, proj, start, eps, stationarity):
            return pgrad.solve_subproblem(oracle, proj, start, eps,
                                          cfg=sub_cfg, stationarity=stationarity)

    if cfg.rho0 is not None:
        rho = float(cfg.rho0)
    else:
        v1 = feasibility_measure(solved, point, 1.0, m)
        rho = float(np.clip(10.0 * max(1.0, abs(problem.f(x0)))
                            / max(1.0, v1 * v1), 1e-3, 1e3))

    trace = SolverTrace()
    prev_v_hat = math.inf
    v_guard = math.inf
    k = 0
    status = None
    while True:
        if k > 0 and v_guard <= cfg.tau_alm:
            status = "converged"
            break
        if k >= cfg.max_outer_iters:
            status = "max_iters"
            break
        if rho > cfg.safeguard_bound:
            status = "penalty_limit"
            break
        tic = time.perf_counter()
        hat = safeguard_multipliers(m, cfg.safeguard_bound)
        eps_k = cfg.eps(k + 1)
        oracle = _penalty_oracle(solved, rho, hat)
        try:
            new_point, sub_stat, sub_iters = subsolver(
                oracle, pairs.project, point, eps_k, pairs.stationarity)
        except pgrad.PgradError:
            status = "subsolver_failure"
            break
        m_new, partial = _update(solved, new_point, rho, hat)
        v_hat = feasibility_measure(solved, new_point, rho, hat)
        v_guard = feasibility_measure(solved, new_point, rho, m)
        increased = not (k == 0 or v_hat <= cfg.q_alm * prev_v_hat)
        trace.append(TraceRow(
            k=k, objective=problem.f(new_point[:n]), residual=v_guard,
            wall_time=time.perf_counter() - tic, rho=rho,
            sub_iters=sub_iters, sub_stat=sub_stat,
            sub_converged=bool(sub_stat <= eps_k),
            identity_gap=_identity_gap(new_point, oracle, partial),
            penalty_increased=increased))
        point, m, prev_v_hat = new_point, m_new, v_hat
        rho = rho * cfg.gamma if increased else rho
        k += 1

    x, z_g, z_h = point[:n], None, None
    if lifted:
        z_g, z_h = point[n:n + t], point[n + t:]
        m = MultiplierSet(m.lam, m.eta[:s], m.mu, m.nu)
    final_rho = trace.rows[-1].rho if trace.rows else rho
    final_v = v_guard if math.isfinite(v_guard) else math.inf
    return AlmResult(x=x, z_g=z_g, z_h=z_h, multipliers=m, status=status,
                     iterations=k, objective=problem.f(x), final_V=final_v,
                     final_rho=final_rho, trace=trace)
