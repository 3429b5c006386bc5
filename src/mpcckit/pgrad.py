"""Nonmonotone spectral projected gradient method over a projectable set.

Solves min f(x) s.t. x in Omega, where Omega is available only through a
(possibly nonconvex) nearest-point projection. Trial points are generated on
the projection arc trial(step) = P(x - step * grad) — for nonconvex targets
such as the complementarity set the projection arc, unlike the segment
search, still yields descent directions, since grad'(trial - x) <=
-|trial - x|^2 / (2 step) for any nearest-point projection. Step sizes
alternate the two Barzilai-Borwein formulas, and acceptance is the
nonmonotone Armijo test against the largest of the last few objective
values.

Face phase: once the active pattern has settled, the method can crawl for
tens of thousands of iterations on an ill-conditioned face. When the last
_FACE_SETTLE accepted steps all moved exactly the same set of coordinates,
that set is taken as the free variables of a face, and conjugate gradients
minimize the objective's quadratic model over it, with Hessian-vector
products from gradient differences at a small probe (gradient projection plus
a face solve, after More-Toraldo's GPCG). A projected search shrinks the CG
step d until P(x + d) passes the Armijo test against the current value (face
steps judged against the nonmonotone reference can cycle); that candidate
replaces the iteration's projected-gradient step. A rejected candidate, or
one that needed a shorter step than d (the face's minimizer lies outside the
set), makes the next attempt wait 1, 2, 4, ... iterations; a full CG step
ends the wait. The phase calls nothing but the given oracle and projector,
counts as one iteration of the budget, and leaves termination to the
unchanged stationarity test.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import COUNT, FRACTION, check_fields, is_count, is_number

__all__ = ["PgradConfig", "PgradError", "solve_subproblem"]

_FACE_SETTLE = 3  # accepted steps in a row on one free set before a face phase
_FACE_CG_STEPS = 250  # conjugate-gradient step cap of one face phase
_FACE_SEARCH = 5  # trial points of the projected search along one face step


class PgradError(RuntimeError):
    """Objective oracle produced a non-finite value or gradient."""


@dataclass(frozen=True)
class PgradConfig:
    memory_length: int = 10
    step_bounds: tuple = (1e-10, 1e10)
    delta: float = 1e-4
    backtrack: float = 0.5
    max_iters: int = 50_000

    def __post_init__(self):
        check_fields(
            self,
            memory_length=(lambda v: is_count(v) and v >= 1,
                           "an integer >= 1"),
            step_bounds=(_step_bounds, "a pair (lo, hi), 0 < lo <= hi < inf"),
            delta=FRACTION, backtrack=FRACTION, max_iters=COUNT)
        object.__setattr__(self, "step_bounds", tuple(self.step_bounds))


def _step_bounds(value) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == 2 and \
        all(map(is_number, value)) and 0 < value[0] <= value[1] < math.inf


def _check_finite(value, grad, point):
    if math.isfinite(value) and np.isfinite(grad).all():
        return
    bad = point[~np.isfinite(point)] if not np.all(np.isfinite(point)) else None
    raise PgradError(
        f"non-finite subproblem oracle output: value={value!r}, "
        f"|grad|_inf={np.max(np.abs(grad)) if np.size(grad) else 0.0!r}, "
        f"non-finite point entries={bad!r}")


def _face_trial(objective_oracle, projector, x, grad, free, eps, val, cfg):
    """Face-phase candidate (trial, value, gradient, shortened), or None.

    CG minimizes the quadratic model over the coordinates in free, the others
    fixed. Hessian-vector products are gradient differences at a probe of
    1e-6 * max(1, |x|); CG stops once the model's reduced gradient is at most
    0.1 * eps, on non-positive curvature, or after _FACE_CG_STEPS steps. The
    CG step d is shrunk by cfg.backtrack for at most _FACE_SEARCH points
    P(x + d) until one passes the Armijo test against val, the value at x;
    shortened tells whether the accepted point needed a shorter step than d.
    """
    g = grad[free]
    r = -g
    p = r.copy()
    d = np.zeros_like(g)
    rr = float(r @ r)
    tol = (0.1 * eps) ** 2
    probe = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    v = np.zeros_like(x)
    for _ in range(_FACE_CG_STEPS):
        if rr <= tol:
            break
        p_norm = math.sqrt(float(p @ p))
        v[free] = p * (probe / p_norm)
        _, g_probe = objective_oracle(x + v)
        hp = (g_probe[free] - g) * (p_norm / probe)
        curv = float(p @ hp)
        if not 0.0 < curv < math.inf:
            break
        a = rr / curv
        d += a * p
        r -= a * hp
        rr, rr_old = float(r @ r), rr
        p = r + (rr / rr_old) * p
    if not (d.any() and np.isfinite(d).all()):
        return None
    step = np.zeros_like(x)
    step[free] = d
    for k in range(_FACE_SEARCH):
        trial = projector(x + step)
        t_val, t_grad = objective_oracle(trial)
        # a candidate that does not move would end the run as stalled
        if ((trial != x).any() and math.isfinite(t_val)
                and np.isfinite(t_grad).all()
                and t_val <= val + cfg.delta * float(grad @ (trial - x))):
            return trial, t_val, t_grad, k > 0
        step *= cfg.backtrack
    return None


def solve_subproblem(objective_oracle, projector, x0, eps,
                     cfg: PgradConfig | None = None, stationarity=None):
    """Run the method until the stationarity measure drops to eps.

    objective_oracle maps a point to (value, gradient); projector maps a point
    to a nearest feasible point; stationarity maps (point, gradient) to the
    termination measure, defaulting to |P(x - grad) - x|. Returns
    (point, achieved_stationarity, iterations); when the iteration budget runs
    out, the best (lowest-measure) accepted iterate is returned.
    """
    cfg = cfg or PgradConfig()
    lo, hi = cfg.step_bounds
    if stationarity is None:
        stationarity = lambda p, gr: float(np.linalg.norm(projector(p - gr) - p))

    x = projector(np.asarray(x0, dtype=float))
    val, grad = objective_oracle(x)
    _check_finite(val, grad, x)
    stat = stationarity(x, grad)
    best_x, best_stat = x, stat
    if stat <= eps:
        return x, stat, 0

    history = deque([val], maxlen=cfg.memory_length)
    grad_inf = np.max(np.abs(grad), initial=0.0)
    alpha = min(max(1.0 / max(grad_inf, 1e-16), lo), hi)

    free, settled = None, 0  # free set of the last accepted step, run length
    wait, next_face = 1, 0  # back-off of face phases
    for it in range(1, cfg.max_iters + 1):
        ref = max(history)
        face = None
        if settled >= _FACE_SETTLE and it >= next_face:
            face = _face_trial(objective_oracle, projector, x, grad, free,
                               eps, val, cfg)
            if face is None or face[3]:  # rejected or shortened
                next_face, wait = it + wait, 2 * wait
            else:
                wait = 1
        if face is not None:
            trial, t_val, t_grad, _ = face
        else:
            step = alpha
            while True:
                trial = projector(x - step * grad)
                d = trial - x
                t_val, t_grad = objective_oracle(trial)
                _check_finite(t_val, t_grad, trial)
                if t_val <= ref + cfg.delta * float(grad @ d):
                    break
                step *= cfg.backtrack
                if step <= 1e-18 and step * max(
                        np.max(np.abs(grad), initial=0.0), 1.0) <= 1e-18:
                    break  # arc collapsed onto x; accept, let stat decide

        s = trial - x
        y = t_grad - grad
        if it % 2 == 1:
            num, den = float(s @ s), float(s @ y)
        else:
            num, den = float(s @ y), float(y @ y)
        if den > 1e-16:  # otherwise keep the previous step size
            alpha = min(max(num / den, lo), hi)

        moved = s != 0.0
        stalled = not moved.any()
        settled = settled + 1 if np.array_equal(moved, free) else 1
        free = moved
        x, val, grad = trial, t_val, t_grad
        history.append(val)
        stat = stationarity(x, grad)
        if stat < best_stat:
            best_x, best_stat = x, stat
        if stat <= eps:
            return x, stat, it
        if stalled:
            return best_x, best_stat, it

    return best_x, best_stat, cfg.max_iters
