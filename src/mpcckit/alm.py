"""Safeguarded augmented Lagrangian method for complementarity-constrained QPs.

The g/h blocks are penalized with safeguarded multiplier shifts while the
complementarity geometry is kept as an explicit projectable constraint. Two
formulations are available:

* slack: slack pairs (z_G, z_H) with coupling equations G(x) - z_G = 0 and
  H(x) - z_H = 0 are appended, the coupling residuals join the penalty, and
  the subproblem domain is R^n x C;
* slack_free: for coordinate-selection pair maps the subproblem is posed
  directly over D = {x : G(x) >= 0, H(x) >= 0, G(x)'H(x) = 0}, and the pair
  multipliers are recovered from the pair components of the subproblem
  gradient.

Outer iteration k solves the subproblem to stationarity eps_{k+1}, updates the
multipliers with the classical shifted formulas, and enlarges the penalty by
gamma unless the feasibility measure V dropped by the factor q_alm (first
iteration always keeps it). The loop guard evaluates V with the previous raw
multipliers; the penalty test uses the safeguarded ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import scipy.sparse as sp

from . import pgrad
from .compgeo import _slack_pairs
from .core import MultiplierSet, QuadraticMpcc

__all__ = [
    "AlmConfig",
    "AlmResult",
    "SolverTrace",
    "TraceRow",
    "safeguard_multipliers",
    "augmented_lagrangian",
    "feasibility_measure",
    "update_multipliers",
    "solve_alm",
]


@dataclass
class AlmConfig:
    rho0: float | None = None  # None -> scale from initial violation
    gamma: float = 10.0
    q_alm: float = 0.8
    safeguard_bound: float = 1e20
    eps_schedule: object = None  # callable k -> eps_k; default 1e-4*(k+1)**-0.5
    tau_alm: float = 1e-6
    max_outer_iters: int = 1000
    slack_mode: str = "auto"  # {"slack", "slack_free", "auto"}

    def eps(self, k: int) -> float:
        if self.eps_schedule is not None:
            return float(self.eps_schedule(k))
        return 1e-4 / math.sqrt(k + 1)


@dataclass
class TraceRow:
    """One per-iteration record; fields unused by a solver stay None."""

    k: int
    objective: float
    residual: float  # feasibility measure V (outer ALM) or |F| (Newton)
    wall_time: float
    rho: float | None = None
    sub_iters: int | None = None
    sub_stat: float | None = None
    sub_converged: bool | None = None
    identity_gap: float | None = None
    penalty_increased: bool | None = None
    step_type: str | None = None
    alpha: float | None = None
    merit: float | None = None


@dataclass
class SolverTrace:
    rows: list = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class AlmResult:
    x: np.ndarray
    z_g: np.ndarray | None
    z_h: np.ndarray | None
    multipliers: MultiplierSet
    status: str  # {"converged", "max_iters", "subsolver_failure"}
    iterations: int
    objective: float
    final_V: float
    final_rho: float
    trace: SolverTrace


def _resolve_mode(problem: QuadraticMpcc, cfg: AlmConfig) -> str:
    mode = cfg.slack_mode
    if mode == "auto":
        mode = "slack_free" if (problem.coordinate_selection and problem.t > 0) \
            else "slack"
    if mode not in ("slack", "slack_free"):
        raise ValueError(f"unknown slack_mode {cfg.slack_mode!r}")
    if mode == "slack_free" and problem.t > 0 and not problem.coordinate_selection:
        raise ValueError("slack_free mode requires coordinate-selection pair maps")
    return mode


def _split_point(problem: QuadraticMpcc, point: np.ndarray):
    n, t = problem.n, problem.t
    point = np.asarray(point, dtype=float)
    if point.size == n:
        return point, None, None
    if point.size == n + 2 * t:
        return point[:n], point[n:n + t], point[n + t:]
    raise ValueError(f"point must have length {n} or {n + 2 * t}, got {point.size}")


def safeguard_multipliers(m: MultiplierSet, bound: float) -> MultiplierSet:
    """Clamp lambda to [0, bound] and the sign-free multipliers to [-bound, bound]."""
    return MultiplierSet(np.clip(m.lam, 0.0, bound),
                         np.clip(m.eta, -bound, bound),
                         np.clip(m.mu, -bound, bound),
                         np.clip(m.nu, -bound, bound))


def augmented_lagrangian(problem: QuadraticMpcc, point, rho: float,
                         safeguarded: MultiplierSet):
    """Value and gradient of the shifted quadratic penalty at `point`.

    `point` is x stacked with the slack pairs (length n + 2t, slack
    formulation) or plain x (length n, slack-free); the formulation is
    inferred from the length.
    """
    point = np.asarray(point, dtype=float)
    _, z_g, _ = _split_point(problem, point)  # rejects any other length
    build = _oracle_factory(problem, slack=z_g is not None)
    return build(rho, safeguarded)(point)


def _as_operator(mat: np.ndarray):
    """CSR when clearly sparse, else the dense array itself."""
    if mat.size >= 4096 and np.count_nonzero(mat) < 0.25 * mat.size:
        return sp.csr_array(mat)
    return mat


def _oracle_factory(problem: QuadraticMpcc, slack: bool):
    """build(rho, hat) -> penalty oracle, the value and gradient at a point.

    The subproblem solver evaluates the penalty hundreds of thousands of
    times, so the constraint matrices are bound once (CSR when sparse) and
    the multiplier shifts are folded in per outer iteration.
    """
    Q, q, c0 = _as_operator(problem.Q), problem.q, problem.c0
    Ag, Ah = _as_operator(problem.A_g), _as_operator(problem.A_h)
    AgT = _as_operator(np.ascontiguousarray(problem.A_g.T))
    AhT = _as_operator(np.ascontiguousarray(problem.A_h.T))
    b_g, b_h = problem.b_g, problem.b_h
    n, t = problem.n, problem.t
    if slack:
        AG, AH = _as_operator(problem.A_G), _as_operator(problem.A_H)
        AGT = _as_operator(np.ascontiguousarray(problem.A_G.T))
        AHT = _as_operator(np.ascontiguousarray(problem.A_H.T))
        b_G, b_H = problem.b_G, problem.b_H

    def build(rho, hat):
        shift_g = hat.lam / rho
        shift_h = hat.eta / rho
        shift_G = hat.mu / rho
        shift_H = hat.nu / rho

        def oracle(p):
            x = p[:n]
            qx = Q @ x
            sg = np.maximum((Ag @ x + b_g) + shift_g, 0.0)
            sh = (Ah @ x + b_h) + shift_h
            squares = sg @ sg + sh @ sh
            pulled = AgT @ sg + AhT @ sh
            if slack:  # couple G(x), H(x) to the slacks z_G, z_H
                r_g = ((AG @ x + b_G) - p[n:n + t]) + shift_G
                r_h = ((AH @ x + b_H) - p[n + t:]) + shift_H
                squares = squares + (r_g @ r_g + r_h @ r_h)
                pulled = pulled + (AGT @ r_g + AHT @ r_h)
            value = (0.5 * (x @ qx) + q @ x + c0) + 0.5 * rho * squares
            grad = qx + q + rho * pulled
            if slack:
                grad = np.concatenate([grad, -rho * r_g, -rho * r_h])
            return float(value), grad
        return oracle

    return build


def feasibility_measure(problem: QuadraticMpcc, point, rho: float,
                        m: MultiplierSet) -> float:
    """V(point, m) = max of the blockwise constraint residual norms."""
    x, z_g, z_h = _split_point(problem, point)
    parts = [0.0]
    if problem.r:
        parts.append(np.linalg.norm(np.maximum(problem.g(x), -m.lam / rho)))
    if problem.s:
        parts.append(np.linalg.norm(problem.h(x)))
    if z_g is not None and problem.t:
        parts.append(np.linalg.norm(problem.G(x) - z_g))
        parts.append(np.linalg.norm(problem.H(x) - z_h))
    return float(max(parts))


def update_multipliers(problem: QuadraticMpcc, new_point, rho: float,
                       safeguarded: MultiplierSet) -> MultiplierSet:
    """Shifted multiplier update at the new subproblem point.

    Slack formulation: the classical formulas for all four blocks. Slack-free:
    lambda/eta as usual, while (mu, nu) are read off the pair components of
    grad f + A_g' lambda+ + A_h' eta+ (sign-mapped), which makes the full
    Lagrangian gradient vanish exactly on the pair coordinates.
    """
    x, z_g, z_h = _split_point(problem, new_point)
    lam = np.maximum(rho * problem.g(x) + safeguarded.lam, 0.0)
    eta = rho * problem.h(x) + safeguarded.eta
    if z_g is not None:
        mu = rho * (problem.G(x) - z_g) + safeguarded.mu
        nu = rho * (problem.H(x) - z_h) + safeguarded.nu
        return MultiplierSet(lam, eta, mu, nu)
    if problem.t == 0:
        return MultiplierSet(lam, eta, np.zeros(0), np.zeros(0))
    pairs = problem.pair_partition()
    partial = problem.grad_f(x) + problem.A_g.T @ lam + problem.A_h.T @ eta
    mu = -pairs.sign_g * partial[pairs.idx_g]
    nu = -pairs.sign_h * partial[pairs.idx_h]
    return MultiplierSet(lam, eta, mu, nu)


def _identity_gap(problem, point, oracle, m_new) -> float:
    """|grad of the penalty - grad of the Lagrangian at the updated multipliers|."""
    _, grad_rho = oracle(point)
    x, z_g, _ = _split_point(problem, point)
    grad_x = (problem.grad_f(x) + problem.A_g.T @ m_new.lam
              + problem.A_h.T @ m_new.eta)
    if z_g is None:
        # pair components cancel by construction of the recovered (mu, nu)
        return float(np.max(np.abs(grad_rho - grad_x), initial=0.0))
    grad_x = grad_x + problem.A_G.T @ m_new.mu + problem.A_H.T @ m_new.nu
    grad_l = np.concatenate([grad_x, -m_new.mu, -m_new.nu])
    return float(np.max(np.abs(grad_rho - grad_l), initial=0.0))


def solve_alm(problem: QuadraticMpcc, config: AlmConfig | None = None,
              x0=None, m0: MultiplierSet | None = None, subsolver=None,
              pgrad_cfg: pgrad.PgradConfig | None = None) -> AlmResult:
    """Run the safeguarded outer loop from (x0, m0)."""
    cfg = config or AlmConfig()
    mode = _resolve_mode(problem, cfg)
    n, t = problem.n, problem.t
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    m = (m0 or MultiplierSet.zeros(problem)).copy()

    if mode == "slack":
        point = np.concatenate([x0, np.zeros(2 * t)])
        pairs = _slack_pairs(n, t) if t else None
    else:
        point = x0.copy()
        pairs = problem.pair_partition() if t else None
    if pairs:
        projector, stat_fn = pairs.project, pairs.stationarity
    else:
        def projector(p):
            return np.array(p, dtype=float)

        def stat_fn(p, grad):
            return float(np.linalg.norm(grad))

    if subsolver is None:
        sub_cfg = pgrad_cfg or pgrad.PgradConfig()

        def subsolver(oracle, proj, start, eps, stationarity):
            return pgrad.solve_subproblem(oracle, proj, start, eps,
                                          cfg=sub_cfg, stationarity=stationarity)

    if cfg.rho0 is not None:
        rho = float(cfg.rho0)
    else:
        v1 = feasibility_measure(problem, point, 1.0, m)
        rho = float(np.clip(10.0 * max(1.0, abs(problem.f(x0)))
                            / max(1.0, v1 * v1), 1e-3, 1e3))

    oracle_build = _oracle_factory(problem, slack=(mode == "slack"))
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
        tic = time.perf_counter()
        hat = safeguard_multipliers(m, cfg.safeguard_bound)
        eps_k = cfg.eps(k + 1)
        oracle = oracle_build(rho, hat)
        try:
            new_point, sub_stat, sub_iters = subsolver(
                oracle, projector, point, eps_k, stat_fn)
        except pgrad.PgradError:
            status = "subsolver_failure"
            break
        m_new = update_multipliers(problem, new_point, rho, hat)
        v_hat = feasibility_measure(problem, new_point, rho, hat)
        v_guard = feasibility_measure(problem, new_point, rho, m)
        increased = not (k == 0 or v_hat <= cfg.q_alm * prev_v_hat)
        x_new = new_point[:n]
        trace.append(TraceRow(
            k=k, objective=problem.f(x_new), residual=v_guard,
            wall_time=time.perf_counter() - tic, rho=rho,
            sub_iters=sub_iters, sub_stat=sub_stat,
            sub_converged=bool(sub_stat <= eps_k),
            identity_gap=_identity_gap(problem, new_point, oracle, m_new),
            penalty_increased=increased))
        point, m, prev_v_hat = new_point, m_new, v_hat
        rho = rho * cfg.gamma if increased else rho
        k += 1

    x, z_g, z_h = _split_point(problem, point)
    final_rho = trace.rows[-1].rho if trace.rows else rho
    final_v = v_guard if math.isfinite(v_guard) else math.inf
    return AlmResult(x=x, z_g=z_g, z_h=z_h, multipliers=m, status=status,
                     iterations=k, objective=problem.f(x), final_V=final_v,
                     final_rho=final_rho, trace=trace)
