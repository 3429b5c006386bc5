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

built from componentwise max/min compositions. So F is a selection from
the stacked source S = (w, v, |w|, |v|, -w) of the point: row i picks the
entry sel_i of S, and with ext = sel mod 2N, for the N entries of v,
F_i = sign_i (w, v)_{ext_i} and row i of the Newton derivative DF is sign_i
times row ext_i of [K; I], a row of K or a unit row. The sign is +1 in
(w, v), sign(t) in |t| and -1 in -w; only residual_F, newton_derivative_DF
and phi form it, as it cancels in the Newton equation DF d = -F, which is
the system [K; I]_ext d = -(w, v)_ext, read from S by its indices. On
that set the selected linearization is exact in a neighborhood (the Newton
iteration terminates finitely for piecewise linear residuals), but F is
discontinuous elsewhere, so globalization uses the continuously
differentiable merit Phi_FB = 1/2 |F_FB|^2 of a Fischer-Burmeister recast of
the same system, whose gradient is the transposed product K y_w + y_v of the
partials y of F_FB in w and v, the FB terms' share of y by the transpose
of the gather of their arguments; the merit Jacobian is never formed. Nor is
DF on the solver's path. K is stored once per problem, stacked over the
identity as a CSR [K; I], and the Newton step peels DF's rows and columns
with one entry left: the unit rows and the rows of K with a single nonzero
(such as coordinate selections in A_g, A_G and A_H) fix the step on their
columns, found from the row lengths of [K; I] alone. The rows still live
are then sliced from [K; I] once, as a CSR, and every later round is a few
of scipy's compiled row and column slices of it: the entries on the columns
just fixed move to the right-hand side, and the dead rows and columns are
dropped, which can leave further rows with one entry, round after round; a
column with one entry left then fixes its row, which is solved last. LU with
partial pivoting factors only the core of rows and columns left, the CSR
made dense. DF is nonsingular iff every peeled value is nonzero and the
core is nonsingular; a round that leaves a row or column empty, or live
rows and columns unequal in number, shows DF singular by its pattern. So
does a count after the first round: the live rows from A are zero on the
multiplier columns since K[n:, n:] = 0, and when they outnumber the live x
columns the step is rejected before any slice or factorization. The linear
system counts as well defined iff DF passes these pattern checks and every
peeled value and every pivot of the core exceeds pivot_tol times the
largest row 1-norm of DF. All of
this depends on ext alone, as does the right-hand side -(w, v)_ext. So the
peel and the LU are one factorization of [K; I]_ext, or the verdict that it
is singular, and the iteration keeps the previous step's; while consecutive
steps select the same rows, a step only replays the peel's arithmetic on
its right-hand side. A point is evaluated by one product with K and one
stacked Fischer-Burmeister pass: all r + 4t FB terms of F_FB from a single
ncp_fb call on arguments gathered from S, the S that F selects from, whose
arguments and values also give the merit gradient its partials in one call.
An accepted trial's values serve the next iteration.
Steps: full Newton step if the linear system is well defined and the step
reduces Phi_FB by the factor q_nsn; otherwise the Newton direction is kept
when it passes an angle test against grad Phi_FB (damped Newton step) or
replaced by the steepest descent direction (gradient step), followed by an
Armijo backtracking line search over alpha = beta^k, k <= max_backtracks.
The search screens its lengths before it evaluates any: w at v + alpha d is
modelled as w + alpha K d, with K d from one product, and one stacked FB
pass over many lengths at once bounds each trial merit from below, by the
model's merit less a forward-error margin. A length whose bound exceeds
its Armijo bound cannot pass and is skipped; the others are evaluated, in
order, and the first that passes the exact test is accepted. So the search
takes the step that trying every length in order takes, bit for bit, with
about one evaluation per search in place of one per length.
Exits, tested in this order before each step: "converged" where |F| <=
tau_nsn; "max_iters" after max_iters steps; "stationary_merit" where
|grad Phi_FB| <= merit_grad_tol |F_FB|, near a stationary point of the
merit with a nonzero residual, which a method that descends on the merit
cannot leave (De Luca, Facchinei and Kanzow, Math. Program. 75, 1996); and
"line_search_failure" where no step length passes the Armijo test.

Derivative selection rules (deterministic): min picks the smallest attaining
index, max the first attaining argument in written order, d|t| = sign(t) with
sign(0) := +1 inside F's derivative; inside grad Phi_FB the selections are
d|t| = 0 at t = 0 and the limit direction (-1, -1) for the Fischer-Burmeister
partials at the origin, which make the assembled gradient the exact C^1
gradient.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack
import scipy.sparse as sp

from .core import (COUNT, FRACTION, NONNEGATIVE, FullPoint, QuadraticMpcc,
                   SolverTrace, TraceRow, as_operator, check_fields,
                   full_vector, is_number, start_vector)

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


@dataclass(frozen=True)
class NewtonConfig:
    q_nsn: float = 0.999
    tau_nsn: float = 1e-11
    angle_rho: float = 1e-3
    armijo_sigma: float = 0.5
    armijo_beta: float = 0.5
    max_iters: int = 1000
    max_backtracks: int = 60
    pivot_tol: float = 1e-12
    # relative: the run stops where |grad Phi_FB| <= merit_grad_tol |F_FB|
    merit_grad_tol: float = 1e-5

    def __post_init__(self):
        check_fields(
            self, q_nsn=FRACTION, tau_nsn=NONNEGATIVE, angle_rho=NONNEGATIVE,
            armijo_sigma=FRACTION, armijo_beta=FRACTION, max_iters=COUNT,
            max_backtracks=COUNT, pivot_tol=NONNEGATIVE,
            merit_grad_tol=(lambda v: is_number(v) and v >= 0,
                            "a number >= 0, inf included"))


@dataclass
class NewtonResult:
    z: FullPoint
    # "converged" (|F| <= tau_nsn), "max_iters", "stationary_merit"
    # (|grad Phi_FB| <= merit_grad_tol |F_FB|) or "line_search_failure"
    status: str
    iterations: int
    full_steps: int
    damped_steps: int
    gradient_steps: int
    final_residual: float
    final_merit: float
    trace: SolverTrace


def ncp_fb(a, b):
    """Componentwise Fischer-Burmeister function sqrt(a^2+b^2) - a - b."""
    return np.sqrt(np.square(a) + np.square(b)) - a - b


# Candidates of the pair bank -a, -b, |a|, |b|, |mu|, |nu|, mu, nu (see
# _Layout), 0 to 7:
# psi1 = max(-a, |b|, |mu|), psi2 = max(-b, |a|, |nu|), psi3 = max(|a|, |b|,
# mu, nu); the short rows repeat their first candidate, which a tie keeps
_PSI = np.array([[0, 3, 4, 0], [1, 2, 5, 1], [2, 3, 6, 7]])
# phi2 = min of two candidates chosen by phi1's, one column per candidate:
# (|b|, |nu|) after -a or |a|, (|a|, |mu|) after -b or |b|, |b| alone after
# |mu| or mu, and |a| alone after |nu| or nu
_PHI2 = np.array([[3, 2, 3, 2, 3, 2, 3, 2], [5, 4, 5, 4, 3, 2, 3, 2]])


class _Layout(NamedTuple):
    """Index maps into the stacked source S = (w, v, |w|, |v|, -w) of a
    point, 5N entries, for blocks of sizes dims = (n, r, s, t, n + r + s).
    args picks the arguments uv = (U, V) of the r + 4t Fischer-Burmeister
    terms of _fb_residual from S, and order picks F_FB from (w[:n + r + s],
    the terms, theta_1). bank holds the 8t entries of S at -a, -b, |a|,
    |b|, |mu|, |nu|, mu and nu, candidate k of pair i at k t + i, from which
    _rows selects the pair rows: psi (3, 4, t) holds the candidates of psi1,
    psi2 and psi3, phi2 (2, 8t) the two candidates of phi2 for each
    candidate phi1 may pick, both numbered in the bank, and cols is
    arange(t)."""

    dims: tuple
    args: np.ndarray
    order: np.ndarray
    bank: np.ndarray
    psi: np.ndarray
    phi2: np.ndarray
    cols: np.ndarray


def _layout(n: int, r: int, s: int, t: int) -> _Layout:
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
    bank = np.concatenate((negated + a, negated + b, absolute + a,
                           absolute + b, absolute + mu, absolute + nu, mu, nu))
    cols = np.arange(t)
    return _Layout((n, r, s, t, base),
                   np.stack((np.concatenate(U), np.concatenate(V))), order,
                   bank, _PSI[:, :, None] * t + cols,
                   (_PHI2[:, :, None] * t + cols).reshape(2, -1),
                   cols)


_PAIR_LAYOUT = _layout(0, 0, 0, 1)


def _stacked(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The stacked source S = (w, v, |w|, |v|, -w) of a point (see
    _Layout), stacked along the first axis."""
    return np.concatenate((w, v, np.abs(w), np.abs(v), -w))


def _rows(layout: _Layout, S: np.ndarray) -> np.ndarray:
    """sel, the entry of the stacked source S that each row of F selects:
    w_i for the rows of x and h, -g_i or lambda_i for the rows of g, and
    phi's picks among the bank for the pair rows. For ext = sel mod 2N,
    F_i = sign_i (w, v)_{ext_i} and row i of DF is sign_i times row ext_i
    of [K; I], with the signs of _signs.

    min and argmin pick the smallest attaining index, max and argmax the
    first attaining argument in written order, which is the selection rule
    of the module docstring; a NaN attains both. A psi is compared by its
    maximum, which only the sign of a zero tells apart from the candidate
    attaining it."""
    n, r, _, _, base = layout.dims
    sel = np.arange(S.size // 5)
    # min(-g_i, lam_i), the g term's arguments: a tie picks -g_i
    neg_g, lam = layout.args[:, :r]
    sel[n:n + r] = np.where(S.take(neg_g) <= S.take(lam), neg_g, lam)
    bank = S.take(layout.bank)
    group = bank.take(layout.psi)
    top = group.argmax(axis=1)
    cols = layout.cols
    first = group.max(axis=1).argmin(axis=0)  # phi1 = min(psi1, psi2, psi3)
    picked = np.empty(2 * cols.size, np.intp)
    picked[::2] = layout.psi[first, top[first, cols], cols]
    cand = layout.phi2.take(picked[::2], axis=1)
    picked[1::2] = cand[bank.take(cand).argmin(axis=0), cols]
    sel[base:] = layout.bank.take(picked)
    return sel


def _signs(S: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """The sign of each row of F and DF that selects S_sel (see _rows), by
    the part of S it selects: +1 in (w, v), sign(t) with sign(0) := +1 in
    |t|, and -1 in -w."""
    twice = 2 * (S.size // 5)
    part = sel // twice  # 0, 1 or 2
    return np.where(part == 1,
                    np.where(S.take(sel % twice) >= 0.0, 1.0, -1.0),
                    1.0 - part)


def phi(a: float, b: float, mu: float, nu: float):
    """Pairwise M-stationarity residual (phi1, phi2) and its 2x4 derivative:
    the selection of _rows for one pair alone, with w = (a, b) and
    v = (mu, nu), whose values are the selected entries of S."""
    S = _stacked(np.array([a, b], dtype=float),
                 np.array([mu, nu], dtype=float))
    sel = _rows(_PAIR_LAYOUT, S)
    rows = np.zeros((2, 4))
    rows[(0, 1), sel % 4] = _signs(S, sel)
    return S.take(sel), rows


def theta(a: float, b: float, mu: float, nu: float) -> np.ndarray:
    """Four-dimensional Fischer-Burmeister recast of the pairwise system:
    F_FB of one pair alone, with w = (a, b) and v = (mu, nu)."""
    return _fb_residual(_PAIR_LAYOUT, np.array([a, b], dtype=float),
                        np.array([mu, nu], dtype=float))[0]


def _fb_residual(layout: _Layout, w: np.ndarray, v: np.ndarray):
    """(F_FB, S, terms) at v, given w = K v + k and the layout of the
    problem's blocks, where S is the stacked source of the point.

    Every Fischer-Burmeister term of F_FB comes from one ncp_fb call on the
    stacked arguments uv = (U, V) = S.take(layout.args),
    U = (-g, a, |a|, |b|, |mu|) and V = (lambda, b, |mu|, |nu|, |nu|), with
    (a, b) = (G, H). Pair i of F_FB is theta = (|FB(a, b)|, FB(|a|, |mu|),
    FB(|b|, |nu|), theta_4), where theta_4 is FB(|mu|, |nu|), or 0 where
    mu, nu <= 0. terms holds the r + 4t values in the order of uv, with
    theta_4 in place and FB(a, b) signed. w and v may hold k points as the
    columns of (N, k) arrays, and every value is then the column of its
    point, with the bits of that point alone.
    """
    _, r, _, t, base = layout.dims
    S = _stacked(w, v)
    terms = ncp_fb(*S.take(layout.args, axis=0))
    # mu, nu <= 0 iff max(mu, nu) <= 0
    terms[r + 3 * t:][np.maximum(v[base:base + t], v[base + t:]) <= 0.0] = 0.0
    res = np.concatenate((w[:base], terms, np.abs(terms[r:r + t])))
    return res.take(layout.order, axis=0), S, terms


def _fb_partials(uv):
    """Partials (d/du, d/dv) of ncp_fb at the stacked arguments uv = (u, v),
    with the limit selection (-1, -1) at the origin."""
    rn = np.hypot(*uv)
    safe = np.where(rn > 0.0, rn, 1.0)
    return np.where(rn > 0.0, uv / safe - 1.0, -1.0)


class _Kkt(NamedTuple):
    """w = K v + k, with ops the operators of K[:n] and of the blocks of A
    that have rows. Row i of DF is sign_i times the row ext_i = sel_i mod 2N
    of [K; I], for the entry sel_i of the stacked source S = (w, v, |w|,
    |v|, -w) that row i of F selects (see _rows), so K is stored stacked
    over I, as the CSR [K; I] (row N + j is the unit row e_j), with the row
    1-norms of [K; I] and the layout, the index maps into S. w_error =
    (a, b) bounds the rounding of w in the 2-norm by a |v|_inf + b: w_i
    rounds by at most gamma_{m_i + 1} (|K_i|_1 |v|_inf + |k_i|) for the m_i
    entries of row i of K, where gamma_m = m u / (1 - m u) and u is the unit
    roundoff."""

    KI: sp.csr_array
    ops: tuple
    k: np.ndarray
    norms: np.ndarray
    layout: _Layout
    w_error: tuple


# rows of [K; I] per block of its row 1-norms, so |K| is never formed whole
_NORM_ROWS = 256
# entries of one point times the step lengths per stacked pass of _screen:
# every length of the default 61 at once for N <= 33, one at a time at
# N = 3010
_SCREEN_ENTRIES = 2048
_U = 2.0 ** -53  # unit roundoff of float64


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u), the relative rounding of a sum of
    m terms."""
    return m * _U / (1.0 - m * _U)


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a 1-D float array, with the bits of np.linalg.norm,
    which computes sqrt(x.dot(x)) too, without its call overhead."""
    return math.sqrt(x.dot(x))


def _build_kkt(problem: QuadraticMpcc) -> _Kkt:
    Q = sp.csr_array(problem.Q)
    a = sp.vstack([sp.csr_array(block) for block in (
        problem.A_g, problem.A_h, problem.A_G, problem.A_H)], format="csr")
    # both parts CSR, so that no COO copy of [K; I] is made
    KI = sp.vstack((sp.block_array([[Q, a.T], [a, None]], format="csr"),
                    sp.eye_array(sum(a.shape), format="csr")), format="csr")
    # summed over dense blocks of rows as |[K; I]| row by row, whose bits
    # they keep; the rows of I have norm 1, and a problem without unknowns
    # has no block
    norms = np.concatenate([np.zeros(0), *[
        np.abs(KI[i:i + _NORM_ROWS].toarray()).sum(axis=1)
        for i in range(0, KI.shape[0], _NORM_ROWS)]])
    ops = (as_operator(KI[:problem.n]), *[
        block for block in (problem.A_g, problem.A_h, problem.A_G,
                            problem.A_H) if block.shape[0]])
    k = np.concatenate([problem.q, problem.b_g, problem.b_h,
                        problem.b_G, problem.b_H])
    gamma = _gamma(np.diff(KI.indptr[:k.size + 1]) + 1.0)
    return _Kkt(KI, ops, k, norms,
                _layout(problem.n, problem.r, problem.s, problem.t),
                (_norm(gamma * norms[:k.size]), _norm(gamma * k)))


def _kkt(problem: QuadraticMpcc) -> _Kkt:
    """The _Kkt of the problem, built on first use and kept in its cache."""
    return problem.cached(_build_kkt)


def _kkt_times(problem: QuadraticMpcc, y: np.ndarray) -> np.ndarray:
    """K y, skipping the zero block K[n:, n:]. The rows of A are multiplied
    one block at a time by the operators of problem.g(x) and the others,
    which gives their bits (a stacked product can round differently), so a
    tie -g_i = lambda_i is one tie; a block without rows adds nothing, and
    op.dot(x) runs the product op @ x with less call overhead."""
    top, *blocks = _kkt(problem).ops
    x = y[:problem.n]
    return np.concatenate([top.dot(y), *[op.dot(x) for op in blocks]])


def _affine(problem: QuadraticMpcc, v: np.ndarray) -> np.ndarray:
    """w = K v + k = (grad_x L, g, h, G, H) at v."""
    return _kkt_times(problem, v) + _kkt(problem).k


def _evaluate(problem: QuadraticMpcc, v: np.ndarray):
    """(v, w, F_FB, merit, S, terms) at v, the one evaluation of each point,
    with S its stacked source, from which F selects (see _rows) and F_FB
    gathers (see _fb_residual)."""
    w = _affine(problem, v)
    res, S, terms = _fb_residual(_kkt(problem).layout, w, v)
    return v, w, res, float((0.5 * res).dot(res)), S, terms


def _screen(problem: QuadraticMpcc, v: np.ndarray, w: np.ndarray,
            d: np.ndarray, kd: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Lower bounds on the merit that _evaluate gives at v + alpha d, one
    for each step length alpha of alphas, from one stacked Fischer-Burmeister
    pass over the model w + alpha kd of its w, where w is the w at v and kd
    is K d up to rounding. A bound of -inf or NaN bounds nothing.

    The stacked points v + alpha d have the bits of _evaluate's, so the two
    passes differ in w alone. With (a, b) = w_error of _Kkt, |.| the 2-norm
    of a vector of length N, |.|_inf its largest entry in magnitude and u
    the unit roundoff, the model is within

        E = 7 (a (|v|_inf + alpha |d|_inf) + b)
            + 4 u sqrt(N) (|w|_inf + alpha |kd|_inf)

    of _evaluate's w: the w at v, the w at v + alpha d and kd each round by
    one w_error, the point v + alpha d rounds by 2 u (|v|_inf +
    alpha |d|_inf), which K turns into at most one more, and the model's own
    sum and product round by 2 u (|w| + alpha |kd|). That is 4 w_error,
    where E counts 7. Each FB term is 2-Lipschitz in each argument, so F_FB
    moves by at most sqrt(12) E. Each
    FB term rounds by at most 8 u (|U| + |V|) in either pass, and by 2^-536
    where its squares underflow; over all terms and both passes, at most
    33 u sqrt(N) (|w|_inf + |v|_inf + alpha (|kd|_inf + |d|_inf)) + 16 u E.
    With D the sum, below 5 E + 33 u sqrt(N) (...) + 2^-535 sqrt(M) for the
    M entries of F_FB, the two merits differ by at most D (|F_FB| + D / 2)
    plus their sums' rounding, gamma_M relative. The margin is twice that,
    which also covers the rounding of the margin and of the difference.
    Overflow makes the margin inf or NaN, never a finite underestimate, and
    raises no warning."""
    kkt = _kkt(problem)
    a, b = kkt.w_error
    with np.errstate(all="ignore"):
        size = v.size
        wv = (np.concatenate((w, v))[:, None]
              + alphas * np.concatenate((kd, d))[:, None])
        res = _fb_residual(kkt.layout, wv[:size], wv[size:])[0]
        twice = np.einsum("ij,ij->j", res, res)  # 2 merit
        vm, dm, wm, kdm = np.abs((v, d, w, kd)).max(axis=1).tolist()
        ulps = 60.0 * _U * size ** 0.5
        spread = (35.0 * (a * vm + b) + ulps * (wm + vm)
                  + 2.0 ** -535 * res.shape[0] ** 0.5
                  + alphas * (35.0 * a * dm + ulps * (kdm + dm)))  # D
        spread *= np.sqrt(twice) + spread
        gamma = _gamma(res.shape[0] + 4)
        return (0.5 - 2.0 * gamma) * twice - (2.0 + 4.0 * gamma) * spread


def _merit_gradient(problem: QuadraticMpcc, point) -> np.ndarray:
    """Gradient of 1/2 |F_FB|^2 at the evaluated point (see _evaluate):
    K y_w + y_v, where y_w and y_v are the transposed partials of F_FB with
    respect to w and v applied to F_FB. The FB terms' share is the transpose
    of _fb_residual's gather onto (w, v, |w|, |v|, -w), which d|t| = sign(t)
    folds onto w and v; the identity rows w_x and w_h, where F_FB is w
    itself, are assigned F_FB, which keeps a -0.0."""
    v, w, res, _, S, terms = point
    layout = _kkt(problem).layout
    size = v.size
    # theta_1 = |FB(a, b)| enters as sign(FB) |FB| = FB, since inside the
    # merit d|t| = 0 at t = 0; theta_4 is exactly 0 where mu, nu <= 0 and so
    # drops its row there
    partials = _fb_partials(S.take(layout.args))
    src = np.bincount(layout.args.ravel(), (partials * terms).ravel(),
                      5 * size).reshape(5, size)
    y_w = np.where(layout.order[:size] < layout.dims[4], res[:size],
                   src[0] + np.sign(w) * src[2] - src[4])
    return _kkt_times(problem, y_w) + (src[1] + np.sign(v) * src[3])


def _selection(problem: QuadraticMpcc, z):
    """(S, sel, ext) at the full point z: its stacked source, F's entries of
    S and DF's rows of [K; I] (see _rows)."""
    v = full_vector(problem, z)
    S = _stacked(_affine(problem, v), v)
    sel = _rows(_kkt(problem).layout, S)
    return S, sel, sel % (2 * v.size)


def residual_F(problem: QuadraticMpcc, z) -> np.ndarray:
    """Residual of the M-stationarity system at the full point z:
    F_i = sign_i (w, v)_{ext_i}, in the selection DF shares (see _rows). A
    selected |t| at t = -0.0 gives F_i = -0.0, by sign(0) := +1."""
    S, sel, ext = _selection(problem, z)
    return _signs(S, sel) * S.take(ext)


def newton_derivative_DF(problem: QuadraticMpcc, z) -> np.ndarray:
    """Selected Newton derivative of residual_F at z (square matrix): row i
    is sign_i times row ext_i of [K; I], and +0.0 off its entries."""
    S, sel, ext = _selection(problem, z)
    return _kkt(problem).KI[ext].multiply(_signs(S, sel)[:, None]).toarray()


def merit_phi_fb(problem: QuadraticMpcc, z):
    """Value and exact gradient of the C^1 merit 1/2 |F_FB|^2."""
    point = _evaluate(problem, full_vector(problem, z))
    return point[3], _merit_gradient(problem, point)


class _Factor(NamedTuple):
    """The rows ext of [K; I] factored by _factor. forward holds, per round
    of the forward peel, the rows it peels, their columns and values, and
    the entries (row, column, value) of the rows still live on those
    columns. The core is given by its rows, its columns and their LU (None
    for an empty core). back holds, per round of the column peel, the rows
    it peels, their columns and values, and the entries of those rows on
    the columns the forward peel left, each entry's row numbered by its
    place among the round's rows. Entries are listed row by row, rows
    ascending and each row's columns ascending, the order in which _solve
    sums them; their rows and columns are in the index type of [K; I]."""

    forward: list
    core_rows: np.ndarray
    core_cols: np.ndarray
    lu: np.ndarray | None
    piv: np.ndarray | None
    back: list


def _factor(problem: QuadraticMpcc, ext: np.ndarray, pivot_tol: float):
    """The matrix [K; I]_ext of the rows ext of [K; I], which is DF up to
    its row signs (see _rows), factored by peeling its singleton rows and
    columns and an LU of the dense core that is left, or None where it is
    singular by its pattern or to within pivot_tol; it is not formed. The
    factorization serves every step that selects the same ext (see _solve).
    It has three parts:

    1. Forward peel, in rounds: a row with one live entry fixes d at that
       entry's column; its column dies, which moves its other rows' known
       part to their right-hand side and may leave them with one live
       entry. Round 0 holds the unit rows and the rows of K with one
       nonzero, read from the row lengths of [K; I]. The rows it leaves are
       then sliced from [K; I] once, as a CSR L, and each round takes the
       entries that move as the slice of L on the columns just fixed, then
       drops those columns and the rows it peels from L, so that a live
       row's live entries are its entries in L; all by scipy's compiled
       indexing.
    2. Column peel, in rounds: a live column with one live row fixes that
       row to it; both die, and the row is solved last, by back
       substitution in reverse round order. A round reads L on the single
       columns, and the peeled rows of L whole.
    3. Core: LU with partial pivoting on the square block of the rows and
       columns still live, L made dense in the F order of dgetrf.

    [K; I] is canonical, so a slice of L by ascending rows and columns
    lists its entries row by row, each row's columns ascending: the order
    that _Factor keeps.

    The factorization is None where a live row or column is left empty, or
    where a round leaves live rows and live columns unequal in number: the
    rows a forward round peels are distinct, so are the columns a column
    round peels, and the two counts part only where two rows peel onto one
    column or two columns onto one row. DF is then singular by its pattern.
    It is None where any value divided by, a peeled entry or a pivot of the
    core, is at most pivot_tol times the largest row 1-norm of the rows
    ext. So DF is nonsingular iff every peeled value is nonzero and the
    core is nonsingular. A live row of A after round 0 is zero on every
    multiplier column, as K[n:, n:] = 0, so it lives on the live x columns
    alone: when such rows outnumber those columns, DF is singular whatever
    its values, and None is returned right after round 0."""
    kkt = _kkt(problem)
    KI = kkt.KI
    size = ext.size
    tol = pivot_tol * float(kkt.norms.take(ext).max())
    live_row, live_col = np.ones((2, size), bool)

    def peel(peeled, col_at, value):
        """Kill rows and columns; False where DF is then seen singular."""
        live_row[peeled] = live_col[col_at] = False
        return (np.count_nonzero(live_row) == np.count_nonzero(live_col)
                and np.count_nonzero(np.abs(value) > tol) == value.size)

    start = KI.indptr[ext]
    # round 0 of the forward peel, from the row lengths alone
    peeled = np.flatnonzero(KI.indptr[ext + 1] - start == 1)
    at = start[peeled]
    col_at, value = KI.indices[at].astype(np.intp), KI.data[at]
    if not peel(peeled, col_at, value):
        return None
    n = problem.n
    # round 0 peels every unit row, so the live rows past n are of A
    if np.count_nonzero(ext[live_row] >= n) > np.count_nonzero(live_col[:n]):
        return None  # more live rows of A than live x columns
    # L is the CSR of the live rows, rows in DF, on the columns cols in DF
    index = KI.indices.dtype
    rows = np.flatnonzero(live_row).astype(index)
    cols = np.arange(size, dtype=index)
    L = KI[ext.take(rows)]
    forward = []
    while True:
        # the entries on the columns the round fixed move; L holds no row
        # solved already, and the columns fixed before are gone
        fixed = ~live_col.take(cols)
        moved = L[:, np.flatnonzero(fixed)]
        forward.append((peeled, col_at, value,
                        rows.repeat(np.diff(moved.indptr)),
                        cols[fixed].take(moved.indices), moved.data))
        cols = cols[~fixed]
        L = L[:, np.flatnonzero(~fixed)]
        count = np.diff(L.indptr)
        if np.count_nonzero(count == 0):
            return None  # an empty row
        single = count == 1
        if not np.count_nonzero(single):
            break
        at = L.indptr[:-1][single]  # the one entry of each single row
        peeled = rows[single]
        col_at, value = cols.take(L.indices[at]), L.data[at]
        if not peel(peeled, col_at, value):
            return None
        rows = rows[~single]
        L = L[np.flatnonzero(~single)]
    # L now holds the live rows on the columns the forward peel left, which
    # the column peel keeps: a column it kills has no entry in a live row
    count = np.bincount(L.indices, minlength=cols.size)
    back = []
    while True:
        if np.count_nonzero(count < live_col.take(cols)):
            return None  # an empty column
        single = np.flatnonzero(count == 1)  # a column with one entry is live
        if not single.size:
            break
        one = L[:, single]
        at = np.arange(rows.size).repeat(np.diff(one.indptr))  # rows of L
        peeled = rows.take(at)
        col_at, value = cols.take(single.take(one.indices)), one.data
        if not peel(peeled, col_at, value):
            return None
        mine = L[at]
        back.append((peeled, col_at, value,
                     np.arange(at.size, dtype=index).repeat(
                         np.diff(mine.indptr)),
                     cols.take(mine.indices), mine.data))
        count -= np.bincount(mine.indices, minlength=cols.size)
        stay = np.flatnonzero(live_row.take(rows))
        rows = rows.take(stay)
        L = L[stay]
    core_rows, core_cols = np.flatnonzero(live_row), np.flatnonzero(live_col)
    lu = piv = None
    if core_rows.size:
        # the live rows on the live columns, in the F order of dgetrf; the
        # slice replaces L, so that it is freed before the core is made
        L = L[:, np.flatnonzero(live_col.take(cols))]
        core = L.toarray(order="F")
        lu, piv, _ = scipy.linalg.lapack.dgetrf(core, overwrite_a=True)
        if np.count_nonzero(np.abs(lu.diagonal()) > tol) != core_rows.size:
            return None
    return _Factor(forward, core_rows, core_cols, lu, piv, back)


def _solve(factor: _Factor | None, rhs: np.ndarray):
    """The solution d of [K; I]_ext d = rhs for the rows ext factored by
    _factor, or None where factor is None or d is not finite.

    The peel's arithmetic runs on a copy of rhs in _factor's order: each
    forward round divides by its peeled values and moves its columns to
    the right-hand side with one product, the core is solved by its LU, and
    the column rounds are solved back in reverse order. A row peeled onto a
    column has no entry on the columns peeled before it, so its step is
    known once the later rounds are solved."""
    if factor is None:
        return None
    res = rhs.copy()
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


class _FactorSlot:
    """The factorization of the previous step's rows ext, or its None, with
    that ext: while consecutive steps select the same rows no peel or LU
    runs again."""

    def __init__(self, problem: QuadraticMpcc, pivot_tol: float):
        self.problem, self.pivot_tol = problem, pivot_tol
        self.ext = self.factor = None

    def step(self, ext: np.ndarray, rhs: np.ndarray):
        """The solution d of [K; I]_ext d = rhs, or None where the step is
        not well defined, solved by the kept factorization where ext is
        its ext."""
        # ext is an index array of DF's order, so equal bytes are equal rows
        if self.ext is None or ext.tobytes() != self.ext.tobytes():
            # emptied first, so that one factorization is alive at a time
            self.ext = self.factor = None
            self.factor = _factor(self.problem, ext, self.pivot_tol)
            self.ext = ext
        return _solve(self.factor, rhs)


class _Armijo:
    """Armijo backtracking along a direction d from an evaluated point: the
    first alpha = beta^k, k = 0, ..., max_backtracks, whose trial merit,
    from _evaluate at v + alpha d, is at most merit + sigma alpha slope, for
    slope = grad Phi_FB' d.

    The lengths are screened first (see _screen), as many per stacked pass
    as _SCREEN_ENTRIES entries hold. A length whose lower bound exceeds its
    Armijo bound cannot pass and is not evaluated; the others are evaluated
    in order, and the first that passes the exact test is accepted. So the
    search takes the length and trial, bit for bit, of trying every length
    in order."""

    def __init__(self, problem: QuadraticMpcc, cfg: NewtonConfig):
        self.problem = problem
        self.last = cfg.max_backtracks + 1
        alphas = [1.0]
        for _ in range(self.last):
            alphas.append(alphas[-1] * cfg.armijo_beta)
        self.alphas = np.array(alphas)
        self.steps = cfg.armijo_sigma * self.alphas
        # N = 0 for a problem without unknowns
        self.width = max(1, _SCREEN_ENTRIES // max(1, _kkt(problem).k.size))

    def search(self, point, d: np.ndarray, slope: float):
        """(alpha, trial) of the accepted length, or
        (beta^(max_backtracks + 1), None) where no length passes."""
        v, w, _, merit_val, _, _ = point
        with np.errstate(all="ignore"):
            # the bits of merit_val + sigma * alpha * slope in floats
            bounds = merit_val + self.steps * slope
            kd = _kkt_times(self.problem, d)
        for lo in range(0, self.last, self.width):
            hi = min(lo + self.width, self.last)
            low = _screen(self.problem, v, w, d, kd, self.alphas[lo:hi])
            for k in lo + np.flatnonzero(~(low > bounds[lo:hi])):
                trial = _evaluate(self.problem, v + self.alphas[k] * d)
                if not trial[3] > bounds[k]:
                    return float(self.alphas[k]), trial
        return float(self.alphas[self.last]), None


def solve_newton(problem: QuadraticMpcc, config: NewtonConfig | None = None,
                 z0=None) -> NewtonResult:
    """Run the globalized iteration from z0 (defaults to the origin)."""
    cfg = config or NewtonConfig()
    n = problem.n
    layout = _kkt(problem).layout
    v = start_vector(problem, FullPoint.zeros(problem) if z0 is None else z0)
    point = _evaluate(problem, v)
    trace = SolverTrace()
    factors = _FactorSlot(problem, cfg.pivot_tol)
    armijo = _Armijo(problem, cfg)
    steps = dict.fromkeys(("full_newton", "damped_newton", "gradient"), 0)
    it = 0
    status = None
    while True:
        v, _, _, merit_val, S, _ = point
        # F = sign (w, v)_ext, and DF d = -F is [K; I]_ext d = -(w, v)_ext,
        # the first 2N entries of S
        ext = _rows(layout, S) % (2 * v.size)
        selected = S.take(ext)
        norm_f = _norm(selected)
        if norm_f <= cfg.tau_nsn:
            status = "converged"
            break
        if it >= cfg.max_iters:
            status = "max_iters"
            break
        tic = time.perf_counter()
        merit_grad = _merit_gradient(problem, point)
        grad_norm = _norm(merit_grad)
        if grad_norm <= cfg.merit_grad_tol * _norm(point[2]):
            status = "stationary_merit"
            break

        direction = factors.step(ext, -selected)
        alpha = 1.0
        trial = None if direction is None else _evaluate(problem, v + direction)
        if trial is not None and trial[3] <= cfg.q_nsn * merit_val:
            step_type = "full_newton"
        else:
            if direction is None or float(merit_grad @ direction) > \
                    -cfg.angle_rho * _norm(direction) * grad_norm:
                direction = -merit_grad
                step_type = "gradient"
            else:
                step_type = "damped_newton"
            alpha, trial = armijo.search(point, direction,
                                         float(merit_grad @ direction))
            if trial is None:
                status = "line_search_failure"
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
