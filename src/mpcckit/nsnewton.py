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
on the solver's path. K is stored once per problem, stacked over the
identity as a CSR [K; I], and the Newton step peels DF's rows and columns
with one entry left: the unit rows and the rows of K with a single nonzero
(such as coordinate selections in A_g, A_G and A_H) fix the step on their
columns, which can leave further rows with one entry, round after round; a
column with one entry left then fixes its row, which is solved last. LU with
partial pivoting factors only the dense core of rows and columns left. DF is
nonsingular iff every peeled value is nonzero and the core is
nonsingular; a peel that leaves a row or column empty, or two rows on one
column, shows DF singular by its pattern. So does a count after the first
round: the live rows from A are zero on the multiplier columns since
K[n:, n:] = 0, and when they outnumber the live x columns the step is
rejected before any factorization. The linear system counts as well defined
iff DF passes these pattern checks and every peeled value and every pivot
of the core exceeds pivot_tol times the largest row 1-norm of DF. All of
this depends on the rows of [K; I] that DF selects, ext, alone: the signs of
DF's rows enter only the right-hand side. So the peel and the LU are one
factorization of DF, or the verdict that it is singular, and the iteration
keeps the previous step's; while consecutive steps select the same rows, a
step only replays the peel's arithmetic on its right-hand side. Each trial
point is evaluated once, by one product with K and one
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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack
import scipy.sparse as sp

from .alm import SolverTrace, TraceRow
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
    """w = K v + k, with the operators of K[:n] and of A's blocks. Row i of
    DF is sign_i times a row of K or of the identity, so K is stored stacked
    over I, as the CSR [K; I] (row N + j is the unit row e_j), with the row
    1-norms of [K; I] and the layout of the blocks."""

    KI: sp.csr_array
    ops: tuple
    k: np.ndarray
    norms: np.ndarray
    layout: _FbLayout


# rows of [K; I] per block of its row 1-norms, so |K| is never formed whole
_NORM_ROWS = 256


def _kkt(problem: QuadraticMpcc) -> _Kkt:
    """The _Kkt of the problem, built on first use and kept with it."""
    kkt = vars(problem).get("_kkt")
    if kkt is None:
        Q = sp.csr_array(problem.operator("Q"))
        a = sp.vstack([sp.csr_array(problem.operator(name))
                       for name in ("A_g", "A_h", "A_G", "A_H")], format="csr")
        m = a.shape[0]
        KI = sp.vstack((sp.hstack((Q, a.T), format="csr"),
                        sp.hstack((a, sp.coo_array((m, m))), format="csr"),
                        sp.eye_array(problem.n + m, format="csr")),
                       format="csr")
        # summed over dense blocks of rows as |[K; I]| row by row, whose
        # bits they keep; the rows of I have norm 1
        norms = np.concatenate([
            np.abs(KI[i:i + _NORM_ROWS].toarray()).sum(axis=1)
            for i in range(0, KI.shape[0], _NORM_ROWS)])
        ops = (as_operator(KI[:problem.n]),
               *map(problem.operator, ("A_g", "A_h", "A_G", "A_H")))
        k = np.concatenate([problem.q, problem.b_g, problem.b_h,
                            problem.b_G, problem.b_H])
        kkt = _Kkt(KI, ops, k, norms,
                   _fb_layout(problem.n, problem.r, problem.s, problem.t))
        object.__setattr__(problem, "_kkt", kkt)  # the dataclass is frozen
    return kkt


def _entries(KI: sp.csr_array, ext: np.ndarray):
    """(i, column, value) of every entry of the rows ext_i of the CSR KI,
    row by row, each row's columns ascending."""
    rows = KI[ext]
    return (np.repeat(np.arange(ext.size), np.diff(rows.indptr)),
            rows.indices.astype(np.intp), rows.data)


def _pick(mask: np.ndarray, *arrays):
    """The elements of each array where mask holds. One index array and a
    take per array cost less than boolean indexing on long, irregular
    masks."""
    at = np.flatnonzero(mask)
    return tuple(a.take(at) for a in arrays)


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
    """(ext, sign, row_scale) of DF at v: row i of DF is sign_i times row
    ext_i of [K; I], so a row of K for ext_i < N and the unit row
    e_{ext_i - N} past it, and row_scale is the largest row 1-norm of DF."""
    kkt = _kkt(problem)
    n, r, _, t, base = kkt.layout.dims
    size = v.size
    ext = np.arange(size)
    sign = np.ones(size)
    # min(-g_i, lam_i): smallest attaining index wins ties
    g_side = -w[n:n + r] <= v[n:n + r]
    sign[n:n + r][g_side] = -1.0
    ext[n:n + r][~g_side] += size
    # phi rows pick a, b, mu or nu of pair i: the row of G_i or H_i in K, or
    # the unit row of mu_i or nu_i, which share the index base + i (+ t)
    _, axis, pair_sign = _phi_vec(w[base:base + t], w[base + t:],
                                  v[base:base + t], v[base + t:])
    ext[base:] = (base + np.arange(t)[:, None] + t * (axis % 2)
                  + size * (axis >= 2)).ravel()
    sign[base:] = pair_sign.ravel()
    return ext, sign, float(kkt.norms[ext].max())


def _residual(w: np.ndarray, v: np.ndarray, rows) -> np.ndarray:
    """F at v from the row description of DF at v: F_i = sign_i (w, v)_{ext_i},
    so F and DF share one selection. A selected |t| at t = -0.0 gives
    F_i = -0.0, by sign(0) := +1."""
    ext, sign, _ = rows
    return sign * np.concatenate((w, v)).take(ext)


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
    ext, sign, _ = _rows(problem, _affine(problem, v), v)
    row, col, val = _entries(_kkt(problem).KI, ext)
    df = np.zeros((ext.size, ext.size))
    df[row, col] = sign[row] * val
    return df


def merit_phi_fb(problem: QuadraticMpcc, z):
    """Value and exact gradient of the C^1 merit 1/2 |F_FB|^2."""
    point = _evaluate(problem, _as_vec(problem, z))
    return point[3], _merit_gradient(problem, point)


class _Factor(NamedTuple):
    """DF factored by _factor, for any row signs. forward holds, per round
    of the forward peel, the rows it peels, their columns and values, and
    the entries (row, column, value) of the rows still live on those
    columns. The core is given by its rows, its columns and their LU (None
    for an empty core). back holds, per round of the column peel, the rows
    it peels, their columns and values, and the entries of those rows on
    the columns the forward peel left, each entry's row numbered by its
    place among the round's rows."""

    forward: list
    core_rows: np.ndarray
    core_cols: np.ndarray
    lu: np.ndarray | None
    piv: np.ndarray | None
    back: list


def _factor(problem: QuadraticMpcc, rows, pivot_tol: float):
    """DF of the row description rows, factored by peeling its singleton
    rows and columns and an LU of the dense core that is left, or None
    where DF is singular by its pattern or to within pivot_tol; DF itself is
    not formed.

    DF depends on ext alone (see _rows): its row signs only scale the
    right-hand side, as row i reads (row ext_i of [K; I]) d = sign_i rhs_i,
    and row_scale is the largest row 1-norm of the rows ext. So the
    factorization serves every step that selects the same ext, whatever its
    signs (see _solve). It has three parts:

    1. Forward peel, in rounds: a row with one live entry fixes d at that
       entry's column (round 0 holds the unit rows and the rows of K with
       one nonzero); its column dies, which moves its other rows' known part
       to their right-hand side and may leave them with one live entry.
    2. Column peel, in rounds: a live column with one live row fixes that
       row to it; both die, and the row is solved last, by back
       substitution in reverse round order.
    3. Core: LU with partial pivoting on the square block of the rows and
       columns still live.

    The factorization is None where two rows peel onto one column, or two
    columns onto one row, or a live row or column is left empty: DF is then
    singular by its pattern alone. It is None where any value divided by,
    a peeled entry or a pivot of the core, is at most pivot_tol times the
    largest row 1-norm of DF. So DF is nonsingular iff every peeled value
    is nonzero and the core is nonsingular. A live row of A after round 0
    is zero on every multiplier column, as K[n:, n:] = 0, so it lives on
    the live x columns alone: when such rows outnumber those columns, DF is
    singular whatever its values, and None is returned right after
    round 0."""
    KI = _kkt(problem).KI
    ext, _, row_scale = rows
    size = ext.size
    tol = pivot_tol * row_scale
    start = KI.indptr[ext]
    # round 0 of the forward peel, from the row lengths alone
    single = KI.indptr[ext + 1] - start == 1
    at = start[single]
    col_at = KI.indices[at].astype(np.intp)
    live_col = np.ones(size, bool)
    live_col[col_at] = False
    n_live = size - col_at.size
    if np.count_nonzero(live_col) != n_live:
        return None  # two rows on one column
    value = KI.data[at]
    if np.count_nonzero(np.abs(value) > tol) != value.size:
        return None
    peel = np.flatnonzero(single)
    live_row = ~single
    n = problem.n
    # round 0 peels every unit row, so the live rows past n are of A
    if np.count_nonzero(ext[live_row] >= n) > np.count_nonzero(live_col[:n]):
        return None  # more live rows of A than live x columns
    row, col, val = _entries(KI, ext)
    on = np.ones(row.size, bool)
    forward = []
    while True:
        # the entries of the live rows on the columns the round fixed; the
        # others would move zeros, or reach rows that are solved already
        now = live_col[col]
        moved = on & ~now & live_row[row]
        forward.append((peel, col_at, value, *_pick(moved, row, col, val)))
        on = now
        count = np.bincount(row, on, size)
        if np.count_nonzero(count < live_row):
            return None  # an empty row
        single = count == 1.0
        if not np.count_nonzero(single):
            break
        peel, col_at, value = _pick(single[row] & on, row, col, val)
        live_row[peel] = False
        live_col[col_at] = False
        n_live -= peel.size
        if np.count_nonzero(live_col) != n_live:
            return None  # two rows on one column
        if np.count_nonzero(np.abs(value) > tol) != value.size:
            return None
    row, col, val = _pick(on, row, col, val)
    back = []
    place = np.empty(size, np.intp)
    while True:
        on = live_row[row]
        count = np.bincount(col, on, size)
        if np.count_nonzero(count < live_col):
            return None  # an empty column
        single = count == 1.0
        if not np.count_nonzero(single):
            break
        peel, col_at, value = _pick(single[col] & on, row, col, val)
        live_row[peel] = False
        live_col[col_at] = False
        n_live -= peel.size
        if np.count_nonzero(live_row) != n_live:
            return None  # two columns on one row
        if np.count_nonzero(np.abs(value) > tol) != value.size:
            return None
        place.fill(-1)
        place[peel] = np.arange(peel.size)
        mine = place[row]
        back.append((peel, col_at, value, *_pick(mine >= 0, mine, col, val)))
    lu = piv = None
    if n_live:
        # the live rows and columns, numbered in order
        rank = np.zeros((2, size), np.intp)
        rank[0, live_row] = rank[1, live_col] = np.arange(n_live)
        core = np.zeros((n_live, n_live), order="F")
        row, col, val = _pick(on, row, col, val)
        core[rank[0, row], rank[1, col]] = val
        lu, piv, _ = scipy.linalg.lapack.dgetrf(core, overwrite_a=True)
        if np.count_nonzero(np.abs(lu.diagonal()) > tol) != n_live:
            return None
    return _Factor(forward, np.flatnonzero(live_row), np.flatnonzero(live_col),
                   lu, piv, back)


def _solve(factor: _Factor | None, sign: np.ndarray, rhs: np.ndarray):
    """The solution d of DF d = rhs for DF factored by _factor with the row
    signs sign, or None where factor is None or d is not finite.

    The peel's arithmetic runs on sign * rhs in _factor's order: each
    forward round divides by its peeled values and moves its columns to
    the right-hand side with one product, the core is solved by its LU, and
    the column rounds are solved back in reverse order. A row peeled onto a
    column has no entry on the columns peeled before it, so its step is
    known once the later rounds are solved."""
    if factor is None:
        return None
    res = sign * rhs
    size = res.size
    step = None
    for peel, col_at, value, row, col, val in factor.forward:
        new = np.zeros(size)
        new[col_at] = res[peel] / value
        if step is None:
            step = new
        else:
            step += new  # an add, not a store: it turns an earlier -0.0 to 0.0
        res -= np.bincount(row, val * new[col], size)
    if factor.lu is not None:
        step[factor.core_cols] = scipy.linalg.lapack.dgetrs(
            factor.lu, factor.piv, res[factor.core_rows])[0]
    for peel, col_at, value, mine, col, val in reversed(factor.back):
        dot = np.bincount(mine, val * step[col], peel.size)
        step[col_at] = (res[peel] - dot) / value
    if np.count_nonzero(np.isfinite(step)) != size:
        return None
    return step


def _newton_step(problem: QuadraticMpcc, rows, rhs: np.ndarray,
                 pivot_tol: float):
    """The solution d of DF d = rhs, or None where the step is not well
    defined, for DF given by its row description rows (see _factor)."""
    return _solve(_factor(problem, rows, pivot_tol), rows[1], rhs)


class _FactorSlot:
    """The factorization of the previous step's DF, or its None, with the
    ext it was built for. DF depends on ext alone, so while consecutive
    steps select the same rows no peel or LU runs again."""

    def __init__(self, problem: QuadraticMpcc, pivot_tol: float):
        self.problem, self.pivot_tol = problem, pivot_tol
        self.ext = self.factor = None

    def step(self, rows, rhs: np.ndarray):
        """_newton_step(problem, rows, rhs, pivot_tol), from the kept
        factorization where rows select its ext."""
        ext = rows[0]
        if self.ext is None or not np.array_equal(ext, self.ext):
            # emptied first, so that one factorization is alive at a time
            self.ext = self.factor = None
            self.factor = _factor(self.problem, rows, self.pivot_tol)
            self.ext = ext
        return _solve(self.factor, rows[1], rhs)


def solve_newton(problem: QuadraticMpcc, config: NewtonConfig | None = None,
                 z0=None) -> NewtonResult:
    """Run the globalized iteration from z0 (defaults to the origin)."""
    cfg = config or NewtonConfig()
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    v = _as_vec(problem, z0) if z0 is not None else np.zeros(n + r + s + 2 * t)
    point = _evaluate(problem, v)
    trace = SolverTrace()
    factors = _FactorSlot(problem, cfg.pivot_tol)
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

        direction = factors.step(rows, -f_res)
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
