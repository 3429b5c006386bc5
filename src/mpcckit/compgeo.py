"""Geometry of the complementarity set.

The planar complementarity set is ``C2 = {(a, b) : a >= 0, b >= 0, ab = 0}``;
stacked pair values live in its componentwise product C. For problems whose
pair maps select (signed, offset) coordinates of x, the feasible set

    D = {x : G(x) >= 0, H(x) >= 0, G(x)' H(x) = 0}

decouples into independent planar pairs, so nearest-point projection onto D
is closed-form as well. `PairPartition` is the one representation of that
geometry: its `project` is the projection onto D and its `stationarity` the
measure dist(-grad, N_D(point)) that terminates the augmented-Lagrangian
subproblems. A partition with no pairs is the whole space, where projection
is a copy and the measure is the gradient norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["PairPartition", "project_onto_C", "singleton_columns"]


@dataclass(frozen=True)
class PairPartition:
    """Coordinate-selection structure of the pair maps G and H.

    Pair i reads ``a_i = sign_g[i] * x[idx_g[i]] + off_g[i]`` and
    ``b_i = sign_h[i] * x[idx_h[i]] + off_h[i]``. All selected coordinate
    indices are pairwise distinct, so the pairs decouple under projection and
    normal-cone computations.
    """

    idx_g: np.ndarray
    idx_h: np.ndarray
    off_g: np.ndarray
    off_h: np.ndarray
    sign_g: np.ndarray
    sign_h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "idx_g", np.asarray(self.idx_g, dtype=int))
        object.__setattr__(self, "idx_h", np.asarray(self.idx_h, dtype=int))
        for name in ("off_g", "off_h", "sign_g", "sign_h"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        used = np.concatenate([self.idx_g, self.idx_h])
        if used.size != np.unique(used).size:
            raise ValueError("pair coordinate indices must be pairwise distinct")
        if not np.all(np.abs(np.concatenate([self.sign_g, self.sign_h])) == 1.0):
            raise ValueError("pair signs must be +-1")
        object.__setattr__(self, "_free", {})  # point length -> free indices

    @property
    def t(self) -> int:
        return int(self.idx_g.size)

    @classmethod
    def from_rows(cls, A_G, b_G, A_H, b_H) -> "PairPartition":
        """Extract the partition from signed unit constraint rows; any other
        rows, or a coordinate selected twice, raise ValueError."""

        def split(A):
            if not sp.issparse(A):
                A = np.asarray(A, dtype=float)
            idx = singleton_columns(A)
            if np.any(idx < 0):
                raise ValueError(
                    "coordinate-selection rows must be signed unit vectors"
                )
            if sp.issparse(A):
                return idx, A.data[A.indptr[:-1]]
            return idx, A[np.arange(idx.size), idx]

        idx_g, sign_g = split(A_G)
        idx_h, sign_h = split(A_H)
        return cls(idx_g, idx_h, b_G, b_H, sign_g, sign_h)

    def values(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pair values (a, b) = (G(x), H(x)) read off the coordinates."""
        x = np.asarray(x, dtype=float)
        a = self.sign_g * x[self.idx_g] + self.off_g
        b = self.sign_h * x[self.idx_h] + self.off_h
        return a, b

    def project(self, x) -> np.ndarray:
        """Nearest point of D.

        Coordinates outside the pairs are untouched; each selected coordinate
        is moved by the planar projection mapped through the (isometric)
        signed, offset coordinate change.
        """
        out = np.array(x, dtype=float)
        a, b = self.values(out)
        pa, pb = project_onto_C(a, b)
        out[self.idx_g] = self.sign_g * (pa - self.off_g)
        out[self.idx_h] = self.sign_h * (pb - self.off_h)
        return out

    def stationarity(self, point: np.ndarray, grad: np.ndarray,
                     tol: float = 1e-6) -> float:
        """dist(-grad, N_D(point)) for float arrays.

        Pair components of -grad are tested against the planar cone in (a, b)
        coordinates and the remaining components against {0}. Pair values
        more than tol from C2 raise ValueError. The subproblem solver calls
        this hundreds of thousands of times, so the indices of the coordinates
        outside the pairs are computed once per point length.
        """
        idx_free = self._free.get(point.size)
        if idx_free is None:
            free = np.ones(point.size, dtype=bool)
            free[self.idx_g] = False
            free[self.idx_h] = False
            idx_free = self._free[point.size] = np.flatnonzero(free)
        a, b = self.values(point)
        p = self.sign_g * -grad[self.idx_g]
        q = self.sign_h * -grad[self.idx_h]
        pair_d = _pair_cone_distances(a, b, p, q, tol)
        gf = grad[idx_free]
        return float(np.sqrt(np.sum(gf ** 2) + np.sum(pair_d ** 2)))


def singleton_columns(A) -> np.ndarray:
    """For each row of A, the column of its single nonzero, or -1. A is a
    dense array or a CSR array with no stored zeros."""
    if sp.issparse(A):
        cols = np.full(A.shape[0], -1)
        one = np.diff(A.indptr) == 1
        cols[one] = A.indices[A.indptr[:-1][one]]
        return cols
    nonzero = np.asarray(A) != 0.0
    if nonzero.shape[1] == 0:
        return np.full(len(nonzero), -1)
    return np.where(nonzero.sum(axis=1) == 1, nonzero.argmax(axis=1), -1)


def project_onto_C(z_g, z_h) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise nearest point of the complementarity set."""
    a = np.asarray(z_g, dtype=float)
    b = np.asarray(z_h, dtype=float)
    d_first = np.minimum(a, 0.0) ** 2 + b * b
    d_second = a * a + np.minimum(b, 0.0) ** 2
    first = d_first <= d_second
    return (np.where(first, np.maximum(a, 0.0), 0.0),
            np.where(first, 0.0, np.maximum(b, 0.0)))


def _pair_cone_distances(a, b, p, q, tol):
    """Distances of (p_i, q_i) to the limiting normal cone of C2 at (a_i, b_i).

    Pair values within tol of a boundary pattern are snapped to it; pairs that
    remain infeasible after snapping are a hard error.
    """
    a = np.where(np.abs(a) <= tol, 0.0, np.asarray(a, dtype=float))
    b = np.where(np.abs(b) <= tol, 0.0, np.asarray(b, dtype=float))
    if np.any(a < 0.0) or np.any(b < 0.0) or np.any((a > 0.0) & (b > 0.0)):
        raise ValueError("pair values are not complementarity-feasible within tol")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    # branches of the cone at a biactive pair: R_- x R_-, {0} x R, R x {0}
    d_quad = np.hypot(np.maximum(p, 0.0), np.maximum(q, 0.0))
    d_p_axis = np.abs(p)
    d_q_axis = np.abs(q)
    d_biactive = np.minimum(d_quad, np.minimum(d_p_axis, d_q_axis))
    return np.where(a > 0.0, d_p_axis, np.where(b > 0.0, d_q_axis, d_biactive))
