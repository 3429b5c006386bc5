"""Globalized nonsmooth Newton method on the M-stationarity system.

The unknown is the full primal-dual point z = (x, lambda, eta, mu, nu). The
residual stacks

    F(z) = [ grad_x L(z);  min(-g_i(x), lambda_i);  h(x);  phi(pair_i) ]

where phi = (phi1, phi2) is a two-dimensional pairwise residual whose zero set
is exactly the pairwise M-stationarity set

    {(a,0,0,nu) : a >= 0} u {(0,b,mu,0) : b >= 0} u {(0,0,mu,nu) : mu,nu <= 0},

built from componentwise max/min compositions. On that set the selected
linearization is exact in a neighborhood (the Newton iteration terminates
finitely for piecewise linear residuals), but F is discontinuous elsewhere, so
globalization uses the continuously differentiable merit
Phi_FB = 1/2 |F_FB|^2 of a Fischer-Burmeister recast of the same system.
Steps: full Newton step if the linear system is well defined and the step
reduces Phi_FB by the factor q_nsn; otherwise the Newton direction is kept
when it passes an angle test against grad Phi_FB (damped Newton step) or
replaced by the steepest descent direction (gradient step), followed by an
Armijo backtracking line search.

Derivative selection rules (deterministic): min picks the smallest attaining
index, max the first attaining argument in written order, d|t| = sign(t) with
sign(0) := +1 inside F's derivative; inside grad Phi_FB the selections are
d|t| = 0 at t = 0 and the limit direction (-1, -1) for the Fischer-Burmeister
partials at the origin, which make the assembled gradient the exact C^1
gradient.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .alm import SolverTrace, TraceRow
from .core import MultiplierSet, QuadraticMpcc, _grad_lagrangian

__all__ = [
    "FullPoint",
    "NewtonConfig",
    "NewtonResult",
    "ncp_min",
    "ncp_fb",
    "phi",
    "theta",
    "residual_F",
    "newton_derivative_DF",
    "merit_phi_fb",
    "solve_newton",
]


@dataclass
class FullPoint:
    """Full primal-dual point (x, lambda, eta, mu, nu)."""

    x: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name in ("x", "lam", "eta", "mu", "nu"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def from_parts(cls, x, m: MultiplierSet) -> "FullPoint":
        return cls(x, m.lam, m.eta, m.mu, m.nu)

    @classmethod
    def zeros(cls, problem: QuadraticMpcc) -> "FullPoint":
        return cls.from_parts(np.zeros(problem.n), MultiplierSet.zeros(problem))

    @classmethod
    def from_vector(cls, problem: QuadraticMpcc, v) -> "FullPoint":
        x, lam, eta, mu, nu = _split(problem, np.asarray(v, dtype=float))
        return cls(x, lam, eta, mu, nu)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.lam, self.eta, self.mu, self.nu])

    def multipliers(self) -> MultiplierSet:
        return MultiplierSet(self.lam.copy(), self.eta.copy(),
                             self.mu.copy(), self.nu.copy())


@dataclass
class NewtonConfig:
    q_nsn: float = 0.999
    tau_nsn: float = 1e-11
    angle_rho: float = 1e-3
    armijo_sigma: float = 0.5
    armijo_beta: float = 0.5
    max_iters: int = 1000
    max_backtracks: int = 60
    pivot_tol: float = 1e-12
    merit_grad_tol: float = 1e-12


@dataclass
class NewtonResult:
    z: FullPoint
    status: str  # {"converged","max_iters","stationary_merit","line_search_failure"}
    iterations: int
    full_steps: int
    damped_steps: int
    gradient_steps: int
    final_residual: float
    final_merit: float
    trace: SolverTrace


def _split(problem: QuadraticMpcc, v: np.ndarray):
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    if v.size != n + r + s + 2 * t:
        raise ValueError(f"full point must have length {n + r + s + 2 * t}")
    return (v[:n], v[n:n + r], v[n + r:n + r + s],
            v[n + r + s:n + r + s + t], v[n + r + s + t:])


def _as_vec(problem: QuadraticMpcc, z) -> np.ndarray:
    if isinstance(z, FullPoint):
        return z.to_vector()
    return np.asarray(z, dtype=float)


def ncp_min(a, b):
    """Componentwise min complementarity function."""
    return np.minimum(a, b)


def ncp_fb(a, b):
    """Componentwise Fischer-Burmeister function sqrt(a^2+b^2) - a - b."""
    return np.sqrt(np.square(a) + np.square(b)) - a - b


# Candidate bank of the pair residual, one (value, axis, sign) triple a row:
# -a, -b, |a|, |b|, |mu|, |nu|, mu, nu, where axis indexes (a, b, mu, nu) and
# sign 0 stands for sign(value of that axis).
_BANK_AXIS = np.array([0, 1, 0, 1, 2, 3, 2, 3])
_BANK_SIGN = np.array([-1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
# psi1 = max(-a, |b|, |mu|), psi2 = max(-b, |a|, |nu|), psi3 = max(|a|, |b|,
# mu, nu); the short rows repeat their first candidate, which a tie keeps
_PSI = np.array([[0, 3, 4, 0], [1, 2, 5, 1], [2, 3, 6, 7]])
_PSI_ROW = np.arange(3)[:, None]
# phi2 = min of two candidates chosen by the axis of phi1's candidate:
# (|b|, |nu|), (|a|, |mu|), |b| alone, |a| alone
_PHI2 = np.array([[3, 2, 3, 2], [5, 4, 3, 2]])


def _phi_vec(a, b, mu, nu):
    """phi over all pairs: values (t, 2) and derivative rows (t, 2, 4).

    np.argmax / np.argmin return the first attaining candidate, which is the
    selection rule of the module docstring.
    """
    z = np.array([a, b, mu, nu])
    cols = np.arange(z.shape[1])
    vals = np.concatenate((-z[:2], np.abs(z), z[2:]))
    psi = _PSI[_PSI_ROW, vals[_PSI].argmax(axis=1)]
    k1 = psi[vals[psi, cols].argmin(axis=0), cols]
    cand = _PHI2[:, _BANK_AXIS[k1]]
    k2 = cand[vals[cand, cols].argmin(axis=0), cols]
    picked = np.stack((k1, k2), axis=1)
    pair = cols[:, None]
    axis = _BANK_AXIS[picked]
    sign = _BANK_SIGN[picked]
    sign = np.where(sign == 0.0, np.where(z[axis, pair] >= 0.0, 1.0, -1.0),
                    sign)  # sign(0) := +1
    rows = np.zeros((cols.size, 2, 4))
    rows[pair, (0, 1), axis] = sign
    return vals[picked, pair], rows


def phi(a: float, b: float, mu: float, nu: float):
    """Pairwise M-stationarity residual (phi1, phi2) and its 2x4 derivative."""
    vals, rows = _phi_vec(np.array([a], dtype=float), np.array([b], dtype=float),
                          np.array([mu], dtype=float), np.array([nu], dtype=float))
    return vals[0], rows[0]


def theta(a: float, b: float, mu: float, nu: float) -> np.ndarray:
    """Four-dimensional Fischer-Burmeister recast of the pairwise system."""
    vals = _theta_vec(np.array([a]), np.array([b]),
                      np.array([mu]), np.array([nu]))
    return vals[0]


def _theta_vec(a, b, mu, nu) -> np.ndarray:
    t1 = np.abs(ncp_fb(a, b))
    t2 = ncp_fb(np.abs(a), np.abs(mu))
    t3 = ncp_fb(np.abs(b), np.abs(nu))
    t4 = np.where((mu <= 0.0) & (nu <= 0.0), 0.0, ncp_fb(np.abs(mu), np.abs(nu)))
    return np.stack([t1, t2, t3, t4], axis=1)


def _fb_partials(u, v):
    """Partials of ncp_fb, with the limit selection (-1, -1) at the origin."""
    rn = np.hypot(u, v)
    safe = np.where(rn > 0.0, rn, 1.0)
    du = np.where(rn > 0.0, u / safe - 1.0, -1.0)
    dv = np.where(rn > 0.0, v / safe - 1.0, -1.0)
    return du, dv


def _top_template(problem: QuadraticMpcc, total_rows: int) -> np.ndarray:
    """Constant rows shared by DF and the merit Jacobian."""
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    width = n + r + s + 2 * t
    out = np.zeros((total_rows, width))
    out[:n, :n] = problem.Q
    out[:n, n:n + r] = problem.A_g.T
    out[:n, n + r:n + r + s] = problem.A_h.T
    out[:n, n + r + s:n + r + s + t] = problem.A_G.T
    out[:n, n + r + s + t:] = problem.A_H.T
    out[n + r:n + r + s, :n] = problem.A_h
    return out


def _residual(problem: QuadraticMpcc, v: np.ndarray) -> np.ndarray:
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    x, lam, eta, mu, nu = _split(problem, v)
    grad_l = _grad_lagrangian(problem, x, lam, eta, mu, nu)
    out = np.empty(n + r + s + 2 * t)
    out[:n] = grad_l
    out[n:n + r] = ncp_min(-problem.g(x), lam)
    out[n + r:n + r + s] = problem.h(x)
    out[n + r + s:] = _phi_vec(problem.G(x), problem.H(x), mu, nu)[0].ravel()
    return out


def _assemble_df(problem: QuadraticMpcc, v: np.ndarray,
                 template: np.ndarray) -> np.ndarray:
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    df = template.copy()
    x, lam, eta, mu, nu = _split(problem, v)
    # min(-g_i, lam_i): smallest attaining index wins ties
    g_side = -problem.g(x) <= lam
    df[n + np.flatnonzero(g_side), :n] = -problem.A_g[g_side]
    lam_side = n + np.flatnonzero(~g_side)
    df[lam_side, lam_side] = 1.0
    _, rows = _phi_vec(problem.G(x), problem.H(x), mu, nu)
    base = n + r + s
    pair = np.arange(t)
    for k in range(2):
        block = df[base + k:base + 2 * t:2]  # row k of every pair, a view
        np.multiply(rows[:, k, 0, None], problem.A_G, out=block[:, :n])
        block[:, :n] += rows[:, k, 1, None] * problem.A_H
        block[pair, base + pair] = rows[:, k, 2]
        block[pair, base + t + pair] = rows[:, k, 3]
    return df


def _fb_residual(problem: QuadraticMpcc, v: np.ndarray) -> np.ndarray:
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    x, lam, eta, mu, nu = _split(problem, v)
    grad_l = _grad_lagrangian(problem, x, lam, eta, mu, nu)
    out = np.empty(n + r + s + 4 * t)
    out[:n] = grad_l
    out[n:n + r] = ncp_fb(-problem.g(x), lam)
    out[n + r:n + r + s] = problem.h(x)
    if t:
        out[n + r + s:] = _theta_vec(problem.G(x), problem.H(x), mu, nu).ravel()
    return out


def _fb_value(problem: QuadraticMpcc, v: np.ndarray) -> float:
    res = _fb_residual(problem, v)
    return float(0.5 * res @ res)


def _fb_jacobian(problem: QuadraticMpcc, v: np.ndarray,
                 template: np.ndarray) -> np.ndarray:
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    jac = template.copy()
    x, lam, eta, mu, nu = _split(problem, v)
    if r:
        du, dv = _fb_partials(-problem.g(x), lam)
        jac[n:n + r, :n] = -du[:, None] * problem.A_g
        jac[np.arange(n, n + r), np.arange(n, n + r)] = dv
    a, b = problem.G(x), problem.H(x)
    base = n + r + s
    pair = np.arange(t)
    mu_col, nu_col = base + pair, base + t + pair
    # row k of the theta block of every pair, as views into jac
    r1, r2, r3, r4 = (jac[base + k:base + 4 * t:4] for k in range(4))
    d1a, d1b = _fb_partials(a, b)
    np.multiply(d1a[:, None], problem.A_G, out=r1[:, :n])
    r1[:, :n] += d1b[:, None] * problem.A_H
    r1[:, :n] *= np.sign(ncp_fb(a, b))[:, None]  # |t| in the merit: 0 at 0
    d2u, d2v = _fb_partials(np.abs(a), np.abs(mu))
    np.multiply((d2u * np.sign(a))[:, None], problem.A_G, out=r2[:, :n])
    r2[pair, mu_col] = d2v * np.sign(mu)
    d3u, d3v = _fb_partials(np.abs(b), np.abs(nu))
    np.multiply((d3u * np.sign(b))[:, None], problem.A_H, out=r3[:, :n])
    r3[pair, nu_col] = d3v * np.sign(nu)
    d4u, d4v = _fb_partials(np.abs(mu), np.abs(nu))
    both_nonpositive = (mu <= 0.0) & (nu <= 0.0)
    r4[pair, mu_col] = np.where(both_nonpositive, 0.0, d4u * np.sign(mu))
    r4[pair, nu_col] = np.where(both_nonpositive, 0.0, d4v * np.sign(nu))
    return jac


def _fb_template(problem: QuadraticMpcc) -> np.ndarray:
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    return _top_template(problem, n + r + s + 4 * t)


def residual_F(problem: QuadraticMpcc, z) -> np.ndarray:
    """Residual of the M-stationarity system at the full point z."""
    return _residual(problem, _as_vec(problem, z))


def newton_derivative_DF(problem: QuadraticMpcc, z) -> np.ndarray:
    """Selected Newton derivative of residual_F at z (square matrix)."""
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    template = _top_template(problem, n + r + s + 2 * t)
    return _assemble_df(problem, _as_vec(problem, z), template)


def merit_phi_fb(problem: QuadraticMpcc, z):
    """Value and exact gradient of the C^1 merit 1/2 |F_FB|^2."""
    v = _as_vec(problem, z)
    res = _fb_residual(problem, v)
    jac = _fb_jacobian(problem, v, _fb_template(problem))
    return float(0.5 * res @ res), jac.T @ res


def _solve_linear(df: np.ndarray, rhs: np.ndarray, pivot_tol: float):
    """LU with partial pivoting; the step is well defined iff every pivot
    exceeds pivot_tol times the largest row norm of DF."""
    row_scale = float(np.max(np.abs(df).sum(axis=1)))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lu, piv = scipy.linalg.lu_factor(df, check_finite=False)
    except Exception:
        return None
    pivots = np.abs(np.diag(lu))
    if not np.all(pivots > pivot_tol * row_scale):
        return None
    step = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    if not np.all(np.isfinite(step)):
        return None
    return step


def solve_newton(problem: QuadraticMpcc, config: NewtonConfig | None = None,
                 z0=None) -> NewtonResult:
    """Run the globalized iteration from z0 (defaults to the origin)."""
    cfg = config or NewtonConfig()
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    v = _as_vec(problem, z0) if z0 is not None else np.zeros(n + r + s + 2 * t)
    df_template = _top_template(problem, n + r + s + 2 * t)
    fb_template = _fb_template(problem)
    trace = SolverTrace()
    full = damped = grad_steps = 0
    it = 0
    status = None
    while True:
        f_res = _residual(problem, v)
        norm_f = float(np.linalg.norm(f_res))
        if norm_f <= cfg.tau_nsn:
            status = "converged"
            break
        if it >= cfg.max_iters:
            status = "max_iters"
            break
        tic = time.perf_counter()
        res_fb = _fb_residual(problem, v)
        merit_val = float(0.5 * res_fb @ res_fb)
        merit_grad = _fb_jacobian(problem, v, fb_template).T @ res_fb
        grad_norm = float(np.linalg.norm(merit_grad))
        if grad_norm <= cfg.merit_grad_tol:
            status = "stationary_merit"
            break

        df = _assemble_df(problem, v, df_template)
        direction = _solve_linear(df, -f_res, cfg.pivot_tol)
        step_type = None
        alpha = 1.0
        if direction is not None and \
                _fb_value(problem, v + direction) <= cfg.q_nsn * merit_val:
            v = v + direction
            step_type = "full_newton"
            full += 1
        else:
            if direction is None or float(merit_grad @ direction) > \
                    -cfg.angle_rho * float(np.linalg.norm(direction)) * grad_norm:
                direction = -merit_grad
                step_type = "gradient"
            else:
                step_type = "damped_newton"
            slope = float(merit_grad @ direction)
            alpha = 1.0
            backtracks = 0
            while _fb_value(problem, v + alpha * direction) > \
                    merit_val + cfg.armijo_sigma * alpha * slope:
                alpha *= cfg.armijo_beta
                backtracks += 1
                if backtracks > cfg.max_backtracks:
                    status = "line_search_failure"
                    break
            if status is not None:
                trace.append(TraceRow(k=it, objective=problem.f(v[:n]),
                                      residual=norm_f, merit=merit_val,
                                      step_type=step_type, alpha=alpha,
                                      wall_time=time.perf_counter() - tic))
                break
            v = v + alpha * direction
            if step_type == "gradient":
                grad_steps += 1
            else:
                damped += 1
        trace.append(TraceRow(k=it, objective=problem.f(v[:n]),
                              residual=norm_f, merit=merit_val,
                              step_type=step_type, alpha=alpha,
                              wall_time=time.perf_counter() - tic))
        it += 1

    return NewtonResult(
        z=FullPoint.from_vector(problem, v), status=status, iterations=it,
        full_steps=full, damped_steps=damped, gradient_steps=grad_steps,
        final_residual=norm_f, final_merit=_fb_value(problem, v), trace=trace)
