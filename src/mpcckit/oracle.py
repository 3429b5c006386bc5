"""Brute-force reference oracles used to validate the solvers.

``enumerate_branch_nlps`` resolves each complementarity pair into one of the
three branches {G_i = 0, H_i >= 0}, {H_i = 0, G_i >= 0}, {G_i = H_i = 0},
sub-enumerates the active set of the plain inequality rows, solves each
resulting equality-constrained QP's KKT system directly, and keeps the
feasible, sign-consistent solutions. Every returned point is a stationary
point of its branch program (hence at least weakly stationary for the MPCC);
points where only one side of a pair is fixed appear with the other side
strictly handled by the {both zero} branch, so the enumeration is exhaustive
for problems with unique branch solutions (e.g. positive-definite Q).

``finite_diff`` is a plain central-difference Jacobian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import MultiplierSet, QuadraticMpcc

__all__ = ["BranchAssignment", "enumerate_branch_nlps", "finite_diff"]

_TAGS = ("G_zero", "H_zero", "both_zero")
_MAX_PAIRS = 12  # 3**t branches
_MAX_INEQ = 10  # 2**r active sets per branch
_FEAS_TOL = 1e-9  # slack of the sign and feasibility tests
_DEDUP_TOL = 1e-9  # max-norm distance under which two points are one


@dataclass(frozen=True)
class BranchAssignment:
    """Per-pair branch tags, in pair order."""

    tags: tuple

    def __post_init__(self):
        if any(tag not in _TAGS for tag in self.tags):
            raise ValueError(f"branch tags must be in {_TAGS}")


def enumerate_branch_nlps(problem: QuadraticMpcc):
    """All branch-KKT points as (x, MultiplierSet, BranchAssignment) triples.

    Raises ValueError for more than 12 pairs or 10 inequality rows.
    """
    if problem.t > _MAX_PAIRS:
        raise ValueError(f"too many complementarity pairs ({problem.t} > {_MAX_PAIRS})")
    if problem.r > _MAX_INEQ:
        raise ValueError(f"too many inequality rows ({problem.r} > {_MAX_INEQ})")
    n, r, s, t = problem.n, problem.r, problem.s, problem.t
    Q, A_g, A_h, A_G, A_H = map(problem.dense_rows,
                                ("Q", "A_g", "A_h", "A_G", "A_H"))
    results = []
    kept = []  # concatenated (x, lam, eta, mu, nu) vectors for de-duplication

    for tags in itertools.product(_TAGS, repeat=t):
        fix_g = [i for i, tag in enumerate(tags) if tag in ("G_zero", "both_zero")]
        fix_h = [i for i, tag in enumerate(tags) if tag in ("H_zero", "both_zero")]
        for k_active in range(r + 1):
            for active_g in itertools.combinations(range(r), k_active):
                rows = [A_h, A_G[fix_g], A_H[fix_h], A_g[list(active_g)]]
                offs = [problem.b_h, problem.b_G[fix_g], problem.b_H[fix_h],
                        problem.b_g[list(active_g)]]
                cons = np.vstack(rows)
                rhs_c = np.concatenate(offs)
                m_rows = cons.shape[0]
                kkt = np.zeros((n + m_rows, n + m_rows))
                kkt[:n, :n] = Q
                kkt[:n, n:] = cons.T
                kkt[n:, :n] = cons
                rhs = np.concatenate([-problem.q, -rhs_c])
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
                resid = kkt @ sol - rhs
                if np.max(np.abs(resid), initial=0.0) > \
                        1e-8 * max(1.0, np.max(np.abs(rhs), initial=0.0)):
                    continue  # singular or inconsistent branch system
                x = sol[:n]
                mult = sol[n:]
                eta = mult[:s]
                mu = np.zeros(t)
                mu[fix_g] = mult[s:s + len(fix_g)]
                nu = np.zeros(t)
                nu[fix_h] = mult[s + len(fix_g):s + len(fix_g) + len(fix_h)]
                lam = np.zeros(r)
                lam[list(active_g)] = mult[s + len(fix_g) + len(fix_h):]
                if np.any(lam < -_FEAS_TOL):
                    continue
                g = problem.g(x)
                big_g = problem.G(x)
                big_h = problem.H(x)
                if np.max(g, initial=0.0) > _FEAS_TOL:
                    continue
                if np.min(big_g, initial=0.0) < -_FEAS_TOL or \
                        np.min(big_h, initial=0.0) < -_FEAS_TOL:
                    continue
                key = np.concatenate([x, lam, eta, mu, nu])
                if any(np.max(np.abs(key - old), initial=0.0) <= _DEDUP_TOL
                       for old in kept):
                    continue
                kept.append(key)
                results.append((x, MultiplierSet(lam, eta, mu, nu),
                                BranchAssignment(tags)))
    return results


def finite_diff(fn, z, h: float = 1e-6) -> np.ndarray:
    """Central-difference derivative of fn at z.

    Returns the gradient (shape (n,)) for scalar fn and the Jacobian
    (shape (m, n)) for vector-valued fn.
    """
    z = np.asarray(z, dtype=float)
    cols = []
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        hi = np.asarray(fn(z + e), dtype=float)
        lo = np.asarray(fn(z - e), dtype=float)
        cols.append((hi - lo) / (2.0 * h))
    return np.stack(cols, axis=-1)
