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
the singleton columns are distinct and that block is nonsingular. The block
is singular whatever its values when its rows from A, which are zero on the
multiplier columns since K[n:, n:] = 0, outnumber its x columns; that count
rejects the step before any factorization. The linear system counts as well
defined iff the singleton columns are distinct and every singleton value and
every pivot of the block exceeds pivot_tol times the largest row 1-norm of
DF. Each trial point is evaluated once, by one product with K and one
stacked Fischer-Burmeister pass: all r + 4t FB terms of F_FB from a single
ncp_fb call, whose arguments and values also give the merit gradient its
partials in one call. An accepted trial's values serve the next iteration.
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
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .alm import SolverTrace, TraceRow
from .compgeo import singleton_columns
from .core import MultiplierSet, QuadraticMpcc, as_operator

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
        ends = np.cumsum([problem.n, problem.r, problem.s, problem.t])
        return cls(*np.split(_as_vec(problem, v), ends))

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
    """Four-dimensional Fischer-Burmeister recast of the pairwise system:
    F_FB of one pair alone, with w = (a, b) and v = (mu, nu)."""
    return _fb_residual(_PAIR_LAYOUT, np.array([a, b], dtype=float),
                        np.array([mu, nu], dtype=float))[0]


class _FbLayout(NamedTuple):
    """Index maps of the stacked Fischer-Burmeister pass of _fb_residual for
    blocks of sizes dims = (n, r, s, t, n + r + s): args picks the arguments
    uv = (U, V) of the r + 4t terms from (w, v, |w|, |v|, -w), and order
    picks F_FB from (w[:n + r + s], the terms, theta_1)."""

    dims: tuple
    args: np.ndarray
    order: np.ndarray


def _fb_layout(n: int, r: int, s: int, t: int) -> _FbLayout:
    size, base = n + r + s + 2 * t, n + r + s
    g, pair = np.arange(n, n + r), np.arange(base, base + t)
    a, b, mu, nu = pair, pair + t, size + pair, size + pair + t
    absolute, negated = 2 * size, 4 * size  # offsets of |w| and -w
    U = (negated + g, a, absolute + a, absolute + b, absolute + mu)
    V = (size + g, b, absolute + mu, absolute + nu, absolute + nu)
    # the pair terms (FB(a, b), FB(|a|, |mu|), FB(|b|, |nu|), theta_4) and
    # theta_1 = |FB(a, b)|, t entries each
    term = base + r + t * np.arange(5)[:, None] + np.arange(t)
    pairs = term[[4, 1, 2, 3]].T.ravel()
    order = np.concatenate((np.arange(n), base + np.arange(r),
                            np.arange(n + r, base), pairs))
    return _FbLayout((n, r, s, t, base),
                     np.stack((np.concatenate(U), np.concatenate(V))), order)


_PAIR_LAYOUT = _fb_layout(0, 0, 0, 1)


def _fb_residual(layout: _FbLayout, w: np.ndarray, v: np.ndarray):
    """(F_FB, uv, terms) at v, given w = K v + k and the layout of the
    problem's blocks.

    Every Fischer-Burmeister term of F_FB comes from one ncp_fb call on the
    stacked arguments uv = (U, V), U = (-g, a, |a|, |b|, |mu|) and
    V = (lambda, b, |mu|, |nu|, |nu|), with (a, b) = (G, H). Pair i of F_FB
    is theta = (|FB(a, b)|, FB(|a|, |mu|), FB(|b|, |nu|), theta_4), where
    theta_4 is FB(|mu|, |nu|), or 0 where mu, nu <= 0. terms holds the r + 4t
    values in the order of uv, with theta_4 in place and FB(a, b) signed.
    """
    _, r, _, t, base = layout.dims
    uv = np.concatenate((w, v, np.abs(w), np.abs(v), -w)).take(layout.args)
    terms = ncp_fb(*uv)
    # mu, nu <= 0 iff max(mu, nu) <= 0
    terms[r + 3 * t:][np.maximum(v[base:base + t], v[base + t:]) <= 0.0] = 0.0
    res = np.concatenate((w[:base], terms, np.abs(terms[r:r + t])))
    return res.take(layout.order), uv, terms


def _fb_partials(uv):
    """Partials (d/du, d/dv) of ncp_fb at the stacked arguments uv = (u, v),
    with the limit selection (-1, -1) at the origin."""
    rn = np.hypot(*uv)
    safe = np.where(rn > 0.0, rn, 1.0)
    return np.where(rn > 0.0, uv / safe - 1.0, -1.0)


class _Kkt(NamedTuple):
    """w = K v + k, with the operators of K[:n] and of A's blocks, the row
    1-norms of K, the column of each row's single nonzero or -1, and the
    layout of the blocks."""

    K: np.ndarray
    ops: tuple
    k: np.ndarray
    norms: np.ndarray
    single: np.ndarray
    layout: _FbLayout


# rows of K per block of its row 1-norms, so |K| is never formed whole
_NORM_ROWS = 256


def _kkt(problem: QuadraticMpcc) -> _Kkt:
    """The _Kkt of the problem, built on first use and kept with it."""
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
        norms = np.empty(len(K))
        for i in range(0, len(K), _NORM_ROWS):
            norms[i:i + _NORM_ROWS] = np.abs(K[i:i + _NORM_ROWS]).sum(axis=1)
        ops = (as_operator(K[:n]),
               *map(problem.operator, ("A_g", "A_h", "A_G", "A_H")))
        kkt = _Kkt(K, ops, k, norms, singleton_columns(K),
                   _fb_layout(n, problem.r, problem.s, problem.t))
        object.__setattr__(problem, "_kkt", kkt)  # the dataclass is frozen
    return kkt


def _kkt_times(problem: QuadraticMpcc, y: np.ndarray) -> np.ndarray:
    """K y, skipping the zero block K[n:, n:]. The rows of A are multiplied
    one block at a time by the operators of problem.g(x) and the others,
    which gives their bits (a stacked product can round differently), so a
    tie -g_i = lambda_i is one tie; op.dot(x) runs the product op @ x with
    less call overhead."""
    top, a_g, a_h, a_G, a_H = _kkt(problem).ops
    x = y[:problem.n]
    return np.concatenate((top.dot(y), a_g.dot(x), a_h.dot(x), a_G.dot(x),
                           a_H.dot(x)))


def _affine(problem: QuadraticMpcc, v: np.ndarray) -> np.ndarray:
    """w = K v + k = (grad_x L, g, h, G, H) at v."""
    return _kkt_times(problem, v) + _kkt(problem).k


def _evaluate(problem: QuadraticMpcc, v: np.ndarray):
    """(v, w, F_FB, merit, uv, terms) at v, the one evaluation of each point
    (see _fb_residual)."""
    w = _affine(problem, v)
    res, uv, terms = _fb_residual(_kkt(problem).layout, w, v)
    return v, w, res, float((0.5 * res).dot(res)), uv, terms


def _rows(problem: QuadraticMpcc, w: np.ndarray, v: np.ndarray):
    """(src, sign, unit, row_scale) of DF at v: row i of DF is sign_i times
    row src_i of K, or the unit row sign_i e_{src_i} where unit_i, and
    row_scale is the largest row 1-norm of DF."""
    kkt = _kkt(problem)
    n, r, _, t, base = kkt.layout.dims
    src = np.arange(v.size)
    sign = np.ones(v.size)
    unit = np.zeros(v.size, dtype=bool)
    # min(-g_i, lam_i): smallest attaining index wins ties
    g_side = -w[n:n + r] <= v[n:n + r]
    sign[n:n + r][g_side] = -1.0
    unit[n:n + r] = ~g_side
    # phi rows pick a, b, mu or nu of pair i: the row of G_i or H_i in K, or
    # the column of mu_i or nu_i, which share the index base + i (+ t)
    _, axis, pair_sign = _phi_vec(w[base:base + t], w[base + t:],
                                  v[base:base + t], v[base + t:])
    src[base:] = (base + np.arange(t)[:, None] + t * (axis % 2)).ravel()
    sign[base:] = pair_sign.ravel()
    unit[base:] = (axis >= 2).ravel()
    return src, sign, unit, float(np.where(unit, 1.0, kkt.norms[src]).max())


def _residual(w: np.ndarray, v: np.ndarray, rows) -> np.ndarray:
    """F at v from the row description of DF at v: F_i = sign_i w_{src_i},
    or sign_i v_{src_i} on a unit row, so F and DF share one selection. A
    selected |t| at t = -0.0 gives F_i = -0.0, by sign(0) := +1."""
    src, sign, unit, _ = rows
    return sign * np.where(unit, v[src], w[src])


def _merit_gradient(problem: QuadraticMpcc, point) -> np.ndarray:
    """Gradient of 1/2 |F_FB|^2 at the evaluated point (see _evaluate):
    K y_w + y_v, where y_w and y_v are the transposed partials of F_FB with
    respect to w and v applied to F_FB."""
    v, w, res, _, uv, terms = point
    n, r, _, t, base = _kkt(problem).layout.dims
    # theta_1 = |FB(a, b)| enters as sign(FB) |FB| = FB, since inside the
    # merit d|t| = 0 at t = 0
    d = _fb_partials(uv)
    d_terms = d * terms
    y_w = res[:w.size].copy()  # right for the identity rows w_x and w_h
    y_v = np.zeros_like(v)
    y_w[n:n + r] = -d[0, :r] * terms[:r]
    y_v[n:n + r] = d_terms[1, :r]
    # d(a, b) of FB(a, b), then of FB(|a|, |mu|) and FB(|b|, |nu|)
    y_w[base:] = d_terms[:, r:r + t].ravel() + \
        d[0, r + t:r + 3 * t] * np.sign(w[base:]) * terms[r + t:r + 3 * t]
    # d(mu, nu) of FB(|a|, |mu|) and FB(|b|, |nu|), then of theta_4, which
    # is exactly 0 where mu, nu <= 0 and so drops its row there
    y_v[base:] = np.sign(v[base:]) * (d_terms[1, r + t:r + 3 * t]
                                      + d_terms[:, r + 3 * t:].ravel())
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
    df = _kkt(problem).K.take(src, axis=0)
    df *= sign[:, None]
    df[unit] = 0.0
    df[unit, src[unit]] = sign[unit]
    return df


def merit_phi_fb(problem: QuadraticMpcc, z):
    """Value and exact gradient of the C^1 merit 1/2 |F_FB|^2."""
    point = _evaluate(problem, _as_vec(problem, z))
    return point[3], _merit_gradient(problem, point)


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
    1-norm of DF. A kept row of A is zero on every multiplier column, as
    K[n:, n:] = 0, so it lives on the block's x columns alone: when such rows
    outnumber those columns, the block is singular exactly, and the step is
    rejected without the gather or the LU."""
    kkt = _kkt(problem)
    K, single = kkt.K, kkt.single
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
    keep = ~fixed
    n = problem.n
    if np.count_nonzero(src[keep] >= n) > np.count_nonzero(free[:n]):
        return None  # more kept rows of A than free x columns
    step = np.zeros(src.size)
    step[cols] = rhs[fixed] / value
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
        v, w, _, merit_val, _, _ = point
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
        merit_grad = _merit_gradient(problem, point)
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
