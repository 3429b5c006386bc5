"""Finite-element benchmark: inverse optimal control of an obstacle-type problem.

The lower-level control problem on the unit square Omega = (0, 1)^2,

    OC(w):  min_u  1/2 |S u - y_d|^2 + alpha/2 |u - w|^2_{L2}
            s.t.   u >= u_a  a.e.,

with the integral observation S u = <1, u>_{L2} (scalar-valued), has the
first-order system  S*(S u - y_d) + alpha (u - w) - xi = 0,
0 <= u - u_a  perp  xi >= 0. Replacing "u solves OC(w)" by that system turns
the inverse problem

    min  1/2 |u - u_o|^2_{L2} + 1/2 |w|^2_{H01} + <zeta, w>_{L2}
    s.t. w >= w_a,  u solves OC(w)

into an MPCC. Discretization: a uniform criss mesh (each of n_div^2 squares
split along the same diagonal), piecewise-constant elements for u and xi,
piecewise-linear interior-node elements for w (zero boundary values). The
optimality system is tested against the piecewise-constant basis and each row
divided by the element area, so per element T:

    sum_T' a_T' u_T'  +  alpha u_T  -  alpha mean_T(w)  -  xi_T  =  y_d,

with mean_T(w) the vertex average (boundary vertices contribute zero). The
unknown is x = (u, xi, w); the pair maps G = u - u_a, H = xi are
coordinate selections. The mesh numbering is stated once, in build_mesh, and
the operators and blocks follow from it by index arithmetic, without a
Python loop over triangles or vertices.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (FullPoint, QuadraticMpcc, check_fields, is_count, is_number,
                   save_instance)

__all__ = [
    "IocParams",
    "FemMesh",
    "FemInstance",
    "build_mesh",
    "assemble_instance",
    "reference_point",
    "write_instance",
    "read_params_sidecar",
]


@dataclass(frozen=True)
class IocParams:
    n_div: int = 8
    alpha: float = 1e-3
    u_a: float = 0.0
    w_a: float = 0.0
    zeta: float = 1.0
    u_obs: float = 1.0
    y_d: float = 0.0

    def __post_init__(self):
        finite = (lambda v: is_number(v) and math.isfinite(v),
                  "a finite number")
        check_fields(
            self,
            n_div=(lambda v: is_count(v) and v >= 1, "an integer >= 1"),
            alpha=(lambda v: is_number(v) and 0 < v < math.inf,
                   "a finite number > 0"),
            u_a=finite, w_a=finite, zeta=finite, u_obs=finite, y_d=finite)


@dataclass(frozen=True)
class FemMesh:
    vertices: np.ndarray  # (V, 2)
    triangles: np.ndarray  # (T, 3) vertex indices, positively oriented
    interior: np.ndarray  # vertex indices of interior nodes
    areas: np.ndarray  # (T,)
    n_div: int


@dataclass(frozen=True)
class FemInstance:
    problem: QuadraticMpcc
    mesh: FemMesh
    params: IocParams
    u_idx: np.ndarray
    xi_idx: np.ndarray
    w_idx: np.ndarray


def build_mesh(n_div: int) -> FemMesh:
    """Uniform criss triangulation of the unit square: vertex (ix, iy), at
    (ix, iy) / n_div, is number iy k + ix for k = n_div + 1, and square
    (ix, iy), taken in the same order, is split along its diagonal v00-v11
    into the triangles (v00, v10, v11) and (v00, v11, v01), where vab is
    vertex (ix + a, iy + b)."""
    if n_div < 1:
        raise ValueError("n_div must be >= 1")
    k = n_div + 1
    grid = np.arange(k * k).reshape(k, k)  # grid[iy, ix] = iy k + ix
    iy, ix = np.divmod(grid.ravel(), k)
    vertices = np.stack((ix, iy), axis=1) / n_div
    v00, v10, v11, v01 = (grid[b:b + n_div, a:a + n_div].ravel()
                          for a, b in ((0, 0), (1, 0), (1, 1), (0, 1)))
    triangles = np.stack((v00, v10, v11, v00, v11, v01), axis=1).reshape(-1, 3)
    interior = grid[1:-1, 1:-1].ravel()
    p = vertices[triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    if np.any(cross <= 0):
        raise AssertionError("triangulation must be positively oriented")
    areas = 0.5 * cross
    return FemMesh(vertices=vertices, triangles=triangles, interior=interior,
                   areas=areas, n_div=n_div)


def _p1_interior_operators(mesh: FemMesh, zeta: float):
    """The stiffness matrix's nonzeros (i, j, value), the load vector, and
    the element means of the interior basis (element, interior node, 1/3),
    with both sums in element order, then local vertex order."""
    n_int = mesh.interior.size
    local = np.full(len(mesh.vertices), -1)
    local[mesh.interior] = np.arange(n_int)
    tri = local[mesh.triangles]  # interior number of each vertex, or -1
    # local basis gradients (y_{a+1} - y_{a+2}, x_{a+2} - x_{a+1}) / 2 area
    p = mesh.vertices[mesh.triangles]
    nxt, prv = p[:, [1, 2, 0]], p[:, [2, 0, 1]]
    area = mesh.areas[:, None, None]
    grads = np.stack((nxt[..., 1] - prv[..., 1], prv[..., 0] - nxt[..., 0]),
                     axis=-1) / (2.0 * area)
    k_loc = area * grads @ grads.transpose(0, 2, 1)
    e, a = np.nonzero(tri >= 0)
    load = np.zeros(n_int)
    np.add.at(load, tri[e, a], zeta * mesh.areas[e] / 3.0)
    means = e, tri[e, a], np.full(e.size, 1.0 / 3.0)
    e, a, b = np.nonzero((tri[:, :, None] >= 0) & (tri[:, None, :] >= 0))
    stiffness = np.zeros((n_int, n_int))
    np.add.at(stiffness, (tri[e, a], tri[e, b]), k_loc[e, a, b])
    si, sj = np.nonzero(stiffness)
    return (si, sj, stiffness[si, sj]), load, means


def _csr(rows: int, cols: int, i, j, values) -> sp.csr_array:
    """The canonical CSR array of the entries (i, j, values), no two in one
    place, with 32-bit indices: the problem takes it without a conversion."""
    return sp.coo_array((values, (i.astype(np.int32, copy=False),
                                  j.astype(np.int32, copy=False))),
                        shape=(rows, cols)).tocsr()


def assemble_instance(params: IocParams | None = None) -> FemInstance:
    """Build the discrete MPCC for the given parameters."""
    params = params or IocParams()
    mesh = build_mesh(params.n_div)
    n_el = len(mesh.triangles)
    n_int = mesh.interior.size
    areas = mesh.areas
    (si, sj, k_values), load, (e, j, means) = _p1_interior_operators(
        mesh, params.zeta)

    n = 2 * n_el + n_int
    u_idx = np.arange(n_el)
    xi_idx = n_el + np.arange(n_el)
    w_idx = 2 * n_el + np.arange(n_int)

    # Q: the element areas on u, the stiffness on w
    big_q = _csr(n, n, np.concatenate((u_idx, w_idx[si])),
                 np.concatenate((u_idx, w_idx[sj])),
                 np.concatenate((areas, k_values)))
    lin = np.zeros(n)
    lin[u_idx] = -params.u_obs * areas
    lin[w_idx] = load
    c0 = 0.5 * params.u_obs ** 2 * float(areas.sum())

    # w >= w_a at every interior node: w_a - w_i <= 0
    a_g = _csr(n_int, n, np.arange(n_int), w_idx, np.full(n_int, -1.0))
    b_g = np.full(n_int, params.w_a)

    # optimality system of OC(w), tested per element and scaled by 1/area:
    # the S*S coupling sum_T' a_T' u_T' (the first n_el^2 entries, row by
    # row) with alpha added on its diagonal, then -xi_T and -alpha mean_T(w)
    values = np.concatenate((np.tile(areas, n_el), np.full(n_el, -1.0),
                             -params.alpha * means))
    values[:n_el * n_el:n_el + 1] += params.alpha
    a_h = _csr(n_el, n,
               np.concatenate((np.repeat(u_idx, n_el), u_idx, e),
                              dtype=np.int32),
               np.concatenate((np.tile(u_idx, n_el), xi_idx, w_idx[j]),
                              dtype=np.int32),
               values)
    del values, si, sj, k_values, e, j, means  # freed before A_h densifies
    b_h = np.full(n_el, -params.y_d)

    a_big_g = sp.eye_array(n_el, n, format="csr")  # G = u - u_a
    b_big_g = np.full(n_el, -params.u_a)
    a_big_h = sp.eye_array(n_el, n, k=n_el, format="csr")  # H = xi
    b_big_h = np.zeros(n_el)

    problem = QuadraticMpcc(Q=big_q, q=lin, c0=c0, A_g=a_g, b_g=b_g,
                            A_h=a_h, b_h=b_h, A_G=a_big_g, b_G=b_big_g,
                            A_H=a_big_h, b_H=b_big_h)
    return FemInstance(problem=problem, mesh=mesh, params=params,
                       u_idx=u_idx, xi_idx=xi_idx, w_idx=w_idx)


def reference_point(params: IocParams | None = None) -> FullPoint:
    """The known solution (u, xi, w) = (0, 0, 0) of the w_a = 0 instance,
    with zero multipliers, as a feasibility anchor."""
    params = params or IocParams()
    if params.w_a != 0.0:
        raise ValueError("reference point is only valid for w_a = 0")
    return FullPoint.zeros(assemble_instance(params).problem)


def write_instance(instance: FemInstance, path) -> None:
    """Write the portable instance file plus a parameter sidecar."""
    save_instance(instance.problem, path)
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(dataclasses.asdict(instance.params), fh, indent=1)


def read_params_sidecar(path) -> IocParams:
    with open(f"{path}.meta.json") as fh:
        return IocParams(**json.load(fh))
