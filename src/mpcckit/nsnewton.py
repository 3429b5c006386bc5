"""Globalized nonsmooth Newton method on the M-stationarity system.

The unknown is the full primal-dual point v = (x, lambda, eta, mu, nu). Its
affine quantities are one map w = K v + k = (grad_x L, g, h, G, H), with the
block layout of v, where K = [[Q, A'], [A, 0]] is the symmetric KKT matrix of
the stacked rows A = (A_g; A_h; A_G; A_H), built once per problem on first
use. The residual stacks

    F(v) = [ w_x;  min(-w_g, lambda);  w_h;  phi(w_G, w_H, mu, nu) ]

where phi = (phi1, phi2) is a two-dimensional pairwise residual whose zero set
is exactly the pairwise M-stationarity set

    {(a,0,0,nu) : a >= 0} u {(0,b,mu,0) : b >= 0} u {(0,0,mu,nu) : mu,nu <= 0},

built from componentwise max/min compositions, so each row of the Newton
derivative DF is +-1 times a row of K or a unit row, and the same selection
gives F: F_i = +-w_j for the row j of K, or +-v_j for the unit row e_j. On
that set the selected linearization is exact in a neighborhood (the Newton
iteration terminates finitely for piecewise linear residuals), but F is
discontinuous elsewhere, so globalization uses the continuously
differentiable merit Phi_FB = 1/2 |F_FB|^2 of a Fischer-Burmeister recast of
the same system, whose gradient is the transposed product K y_w + y_v of the
partials y of F_FB in w and v; the merit Jacobian is never formed. Nor is DF
on the solver's path: its singleton rows (the unit rows, and the rows of K
with a single nonzero, such as coordinate selections in A_g, A_G and A_H) fix
the Newton step on their columns, and LU with partial pivoting factors only
the square block of the other rows on the other columns. DF is nonsingular iff
the singleton columns are distinct and that block is nonsingular; the linear
system counts as well defined iff the singleton columns are distinct and
every singleton value and every pivot of the block exceeds pivot_tol times
the largest row 1-norm of DF. Each trial point is evaluated once, and an
accepted trial's values serve the next iteration.
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
from .compgeo import singleton_columns
from .core import MultiplierSet, QuadraticMpcc

__all__ = [
    "FullPoint",
    "NewtonConfig",
    "NewtonResult",
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
    """The full point z as one vector of length n + r + s + 2t."""
    v = z.to_vector() if isinstance(z, FullPoint) else np.asarray(z, dtype=float)
    size = problem.n + problem.r + problem.s + 2 * problem.t
    if v.shape != (size,):
        raise ValueError(f"full point must have length n + r + s + 2t = {size}, "
                         f"got shape {v.shape}")
    return v


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
    """phi over all pairs: values (t, 2), and the axis (index into (a, b,
    mu, nu)) and sign (t, 2 each) of their derivative rows.

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
    return vals[picked, pair], axis, sign


def phi(a: float, b: float, mu: float, nu: float):
    """Pairwise M-stationarity residual (phi1, phi2) and its 2x4 derivative."""
    vals, axis, sign = _phi_vec(
        np.array([a], dtype=float), np.array([b], dtype=float),
        np.array([mu], dtype=float), np.array([nu], dtype=float))
    rows = np.zeros((2, 4))
    rows[(0, 1), axis[0]] = sign[0]
    return vals[0], rows


def theta(a: float, b: float, mu: float, nu: float) -> np.ndarray:
    """Four-dimensional Fischer-Burmeister recast of the pairwise system."""
    vals = _theta_vec(np.array([a]), np.array([b]),
                      np.array([mu]), np.array([nu]))
    return vals[0]


def _theta_vec(a, b, mu, nu) -> np.ndarray:
    out = np.empty((a.size, 4))
    out[:, 0] = np.abs(ncp_fb(a, b))
    out[:, 1] = ncp_fb(np.abs(a), np.abs(mu))
    out[:, 2] = ncp_fb(np.abs(b), np.abs(nu))
    out[:, 3] = np.where((mu <= 0.0) & (nu <= 0.0), 0.0,
                         ncp_fb(np.abs(mu), np.abs(nu)))
    return out


def _fb_partials(u, v):
    """Partials of ncp_fb, with the limit selection (-1, -1) at the origin."""
    rn = np.hypot(u, v)
    safe = np.where(rn > 0.0, rn, 1.0)
    du = np.where(rn > 0.0, u / safe - 1.0, -1.0)
    dv = np.where(rn > 0.0, v / safe - 1.0, -1.0)
    return du, dv


def _kkt(problem: QuadraticMpcc):
    """(K, k, row 1-norms of K, column of each row's single nonzero or -1)
    of w = K v + k, built on first use and kept with the problem."""
    kkt = vars(problem).get("_kkt")
    if kkt is None:
        n = problem.n
        rows = np.vstack([problem.A_g, problem.A_h, problem.A_G, problem.A_H])
        K = np.zeros((n + len(rows),) * 2)
        K[:n, :n] = problem.Q
        K[:n, n:] = rows.T
        K[n:, :n] = rows
        k = np.concatenate([problem.q, problem.b_g, problem.b_h,
                            problem.b_G, problem.b_H])
        kkt = (K, k, np.abs(K).sum(axis=1), singleton_columns(K))
        object.__setattr__(problem, "_kkt", kkt)  # the dataclass is frozen
    return kkt


def _kkt_times(problem: QuadraticMpcc, y: np.ndarray) -> np.ndarray:
    """K y, skipping the zero block K[n:, n:]. The rows of A are multiplied
    as in problem.g(x) and the others, which gives their bits (a stacked
    product can round differently), so a tie -g_i = lambda_i is one tie."""
    n, x = problem.n, y[:problem.n]
    return np.concatenate((_kkt(problem)[0][:n] @ y, problem.A_g @ x,
                           problem.A_h @ x, problem.A_G @ x, problem.A_H @ x))


def _affine(problem: QuadraticMpcc, v: np.ndarray) -> np.ndarray:
    """w = K v + k = (grad_x L, g, h, G, H) at v."""
    return _kkt_times(problem, v) + _kkt(problem)[1]


def _fb_residual(problem: QuadraticMpcc, w: np.ndarray,
                 v: np.ndarray) -> np.ndarray:
    """F_FB at v, given w = K v + k."""
    n, r, s = problem.n, problem.r, problem.s
    _, g, _, a, b = _split(problem, w)
    _, lam, _, mu, nu = _split(problem, v)
    return np.concatenate((w[:n], ncp_fb(-g, lam), w[n + r:n + r + s],
                           _theta_vec(a, b, mu, nu).ravel()))


def _evaluate(problem: QuadraticMpcc, v: np.ndarray):
    """(v, w, F_FB, merit) at v, the one evaluation of each point."""
    w = _affine(problem, v)
    res = _fb_residual(problem, w, v)
    return v, w, res, float(0.5 * res @ res)


def _rows(problem: QuadraticMpcc, w: np.ndarray, v: np.ndarray):
    """(src, sign, unit, row_scale) of DF at v: row i of DF is sign_i times
    row src_i of K, or the unit row sign_i e_{src_i} where unit_i, and
    row_scale is the largest row 1-norm of DF."""
    _, _, norms, _ = _kkt(problem)
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    _, g, _, a, b = _split(problem, w)
    _, lam, _, mu, nu = _split(problem, v)
    src = np.arange(v.size)
    sign = np.ones(v.size)
    unit = np.zeros(v.size, dtype=bool)
    # min(-g_i, lam_i): smallest attaining index wins ties
    g_side = -g <= lam
    sign[n:n + r][g_side] = -1.0
    unit[n:n + r] = ~g_side
    # phi rows pick a, b, mu or nu of pair i: the row of G_i or H_i in K, or
    # the column of mu_i or nu_i, which share the index base + i (+ t)
    _, axis, pair_sign = _phi_vec(a, b, mu, nu)
    base = n + r + s
    src[base:] = (base + np.arange(t)[:, None] + t * (axis % 2)).ravel()
    sign[base:] = pair_sign.ravel()
    unit[base:] = (axis >= 2).ravel()
    return src, sign, unit, float(np.where(unit, 1.0, norms[src]).max())


def _residual(w: np.ndarray, v: np.ndarray, rows) -> np.ndarray:
    """F at v from the row description of DF at v: F_i = sign_i w_{src_i},
    or sign_i v_{src_i} on a unit row, so F and DF share one selection. A
    selected |t| at t = -0.0 gives F_i = -0.0, by sign(0) := +1."""
    src, sign, unit, _ = rows
    return sign * np.where(unit, v[src], w[src])


def _merit_gradient(problem: QuadraticMpcc, w: np.ndarray, v: np.ndarray,
                    res: np.ndarray) -> np.ndarray:
    """Gradient of 1/2 |F_FB|^2 at v: K y_w + y_v, where y_w and y_v are the
    transposed partials of F_FB with respect to w and v applied to res."""
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    _, g, _, a, b = _split(problem, w)
    _, lam, _, mu, nu = _split(problem, v)
    base = n + r + s
    y_w = res[:w.size].copy()  # right for the identity rows w_x and w_h
    y_v = np.zeros_like(v)
    du, dv = _fb_partials(-g, lam)
    y_w[n:n + r] = -du * res[n:n + r]
    y_v[n:n + r] = dv * res[n:n + r]
    r1, r2, r3, r4 = res[base:].reshape(t, 4).T
    d1a, d1b = _fb_partials(a, b)
    d2u, d2v = _fb_partials(np.abs(a), np.abs(mu))
    d3u, d3v = _fb_partials(np.abs(b), np.abs(nu))
    d4u, d4v = _fb_partials(np.abs(mu), np.abs(nu))
    s1 = np.sign(ncp_fb(a, b)) * r1  # |t| in the merit: 0 at 0
    y_w[base:base + t] = d1a * s1 + d2u * np.sign(a) * r2
    y_w[base + t:] = d1b * s1 + d3u * np.sign(b) * r3
    # r4 is exactly 0 where mu, nu <= 0, which drops the fourth row there
    y_v[base:base + t] = np.sign(mu) * (d2v * r2 + d4u * r4)
    y_v[base + t:] = np.sign(nu) * (d3v * r3 + d4v * r4)
    return _kkt_times(problem, y_w) + y_v


def residual_F(problem: QuadraticMpcc, z) -> np.ndarray:
    """Residual of the M-stationarity system at the full point z."""
    v = _as_vec(problem, z)
    w = _affine(problem, v)
    return _residual(w, v, _rows(problem, w, v))


def newton_derivative_DF(problem: QuadraticMpcc, z) -> np.ndarray:
    """Selected Newton derivative of residual_F at z (square matrix)."""
    v = _as_vec(problem, z)
    src, sign, unit, _ = _rows(problem, _affine(problem, v), v)
    df = _kkt(problem)[0].take(src, axis=0)
    df *= sign[:, None]
    df[unit] = 0.0
    df[unit, src[unit]] = sign[unit]
    return df


def merit_phi_fb(problem: QuadraticMpcc, z):
    """Value and exact gradient of the C^1 merit 1/2 |F_FB|^2."""
    v, w, res, value = _evaluate(problem, _as_vec(problem, z))
    return value, _merit_gradient(problem, w, v, res)


def _newton_step(problem: QuadraticMpcc, rows, rhs: np.ndarray,
                 pivot_tol: float):
    """The solution d of DF d = rhs, or None where the step is not well
    defined, for DF given by its row description rows; DF itself is not
    formed.

    A singleton row of DF, a unit row or a row of K with one nonzero, fixes
    d at its column: d[col] = rhs / value. The other rows on the other
    columns form a square block, whose right-hand side takes the known part
    of d; it is factored by LU with partial pivoting. The step is well
    defined iff the singleton columns are distinct and every singleton value
    and every pivot of the block exceeds pivot_tol times the largest row
    1-norm of DF."""
    K, _, _, single = _kkt(problem)
    src, sign, unit, row_scale = rows
    col = np.where(unit, src, single[src])
    fixed = col >= 0
    cols = col[fixed]
    free = np.ones(src.size, dtype=bool)
    free[cols] = False
    if np.count_nonzero(free) != src.size - cols.size:
        return None  # two singleton rows on one column
    value = sign[fixed] * np.where(unit[fixed], 1.0, K[src[fixed], cols])
    if not (np.abs(value) > pivot_tol * row_scale).all():
        return None
    step = np.zeros(src.size)
    step[cols] = rhs[fixed] / value
    keep = ~fixed
    k_rows = K[src[keep]]
    block_rhs = rhs[keep] - sign[keep] * (k_rows @ step)
    block = k_rows[:, free]  # Fortran order, so LAPACK factors it in place
    block *= sign[keep, None]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lu, piv = scipy.linalg.lu_factor(block, overwrite_a=True,
                                              check_finite=False)
    except (ValueError, scipy.linalg.LinAlgError):
        return None
    if not (np.abs(lu.diagonal()) > pivot_tol * row_scale).all():
        return None
    step[free] = scipy.linalg.lu_solve((lu, piv), block_rhs,
                                       check_finite=False)
    if not np.isfinite(step).all():
        return None
    return step


def solve_newton(problem: QuadraticMpcc, config: NewtonConfig | None = None,
                 z0=None) -> NewtonResult:
    """Run the globalized iteration from z0 (defaults to the origin)."""
    cfg = config or NewtonConfig()
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    v = _as_vec(problem, z0) if z0 is not None else np.zeros(n + r + s + 2 * t)
    point = _evaluate(problem, v)
    trace = SolverTrace()
    steps = dict.fromkeys(("full_newton", "damped_newton", "gradient"), 0)
    it = 0
    status = None
    while True:
        v, w, res_fb, merit_val = point
        rows = _rows(problem, w, v)
        f_res = _residual(w, v, rows)
        norm_f = float(np.linalg.norm(f_res))
        if norm_f <= cfg.tau_nsn:
            status = "converged"
            break
        if it >= cfg.max_iters:
            status = "max_iters"
            break
        tic = time.perf_counter()
        merit_grad = _merit_gradient(problem, w, v, res_fb)
        grad_norm = float(np.linalg.norm(merit_grad))
        if grad_norm <= cfg.merit_grad_tol:
            status = "stationary_merit"
            break

        direction = _newton_step(problem, rows, -f_res, cfg.pivot_tol)
        alpha = 1.0
        trial = None if direction is None else _evaluate(problem, v + direction)
        if trial is not None and trial[3] <= cfg.q_nsn * merit_val:
            step_type = "full_newton"
        else:
            if direction is None or float(merit_grad @ direction) > \
                    -cfg.angle_rho * float(np.linalg.norm(direction)) * grad_norm:
                direction = -merit_grad
                step_type = "gradient"
                trial = _evaluate(problem, v + direction)
            else:
                step_type = "damped_newton"  # alpha = 1 is the full step's trial
            slope = float(merit_grad @ direction)
            backtracks = 0
            while trial[3] > merit_val + cfg.armijo_sigma * alpha * slope:
                alpha *= cfg.armijo_beta
                backtracks += 1
                if backtracks > cfg.max_backtracks:
                    status = "line_search_failure"
                    break
                trial = _evaluate(problem, v + alpha * direction)
        if status is None:
            point = trial
            steps[step_type] += 1
        trace.append(TraceRow(k=it, objective=problem.f(point[0][:n]),
                              residual=norm_f, merit=merit_val,
                              step_type=step_type, alpha=alpha,
                              wall_time=time.perf_counter() - tic))
        if status is not None:
            break
        it += 1

    return NewtonResult(
        z=FullPoint.from_vector(problem, point[0]), status=status,
        iterations=it, full_steps=steps["full_newton"],
        damped_steps=steps["damped_newton"],
        gradient_steps=steps["gradient"], final_residual=norm_f,
        final_merit=point[3], trace=trace)
