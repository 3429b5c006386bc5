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
coordinate selections.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .core import QuadraticMpcc, save_instance
from .nsnewton import FullPoint

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
    stiffness: np.ndarray  # interior-node P1 stiffness matrix
    load: np.ndarray  # interior-node loads int(zeta * basis)
    mean_w: np.ndarray  # (T, n_int) element means of the interior P1 basis
    u_idx: np.ndarray
    xi_idx: np.ndarray
    w_idx: np.ndarray


def build_mesh(n_div: int) -> FemMesh:
    """Uniform criss triangulation of the unit square."""
    if n_div < 1:
        raise ValueError("n_div must be >= 1")
    k = n_div + 1
    vertices = np.array([[ix / n_div, iy / n_div]
                         for iy in range(k) for ix in range(k)])

    def node(ix, iy):
        return iy * k + ix

    tris = []
    for iy in range(n_div):
        for ix in range(n_div):
            v00 = node(ix, iy)
            v10 = node(ix + 1, iy)
            v11 = node(ix + 1, iy + 1)
            v01 = node(ix, iy + 1)
            tris.append((v00, v10, v11))  # below the diagonal v00-v11
            tris.append((v00, v11, v01))  # above it
    triangles = np.array(tris, dtype=int)
    interior = np.array([node(ix, iy)
                         for iy in range(1, n_div) for ix in range(1, n_div)],
                        dtype=int)
    p = vertices[triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    if np.any(cross <= 0):
        raise AssertionError("triangulation must be positively oriented")
    areas = 0.5 * cross
    return FemMesh(vertices=vertices, triangles=triangles, interior=interior,
                   areas=areas, n_div=n_div)


def _p1_interior_operators(mesh: FemMesh, zeta: float):
    """Stiffness matrix, load vector, and element means of the interior basis."""
    n_int = mesh.interior.size
    vmap = {int(v): i for i, v in enumerate(mesh.interior)}
    stiffness = np.zeros((n_int, n_int))
    load = np.zeros(n_int)
    mean_w = np.zeros((len(mesh.triangles), n_int))
    for e, (tri, area) in enumerate(zip(mesh.triangles, mesh.areas)):
        (x1, y1), (x2, y2), (x3, y3) = mesh.vertices[tri]
        grads = np.array([[y2 - y3, x3 - x2],
                          [y3 - y1, x1 - x3],
                          [y1 - y2, x2 - x1]]) / (2.0 * area)
        k_loc = area * grads @ grads.T
        for a_loc, va in enumerate(tri):
            ia = vmap.get(int(va))
            if ia is None:
                continue  # boundary node: basis function eliminated
            load[ia] += zeta * area / 3.0
            mean_w[e, ia] += 1.0 / 3.0
            for b_loc, vb in enumerate(tri):
                ib = vmap.get(int(vb))
                if ib is not None:
                    stiffness[ia, ib] += k_loc[a_loc, b_loc]
    return stiffness, load, mean_w


def assemble_instance(params: IocParams | None = None) -> FemInstance:
    """Build the discrete MPCC for the given parameters."""
    params = params or IocParams()
    mesh = build_mesh(params.n_div)
    n_el = len(mesh.triangles)
    n_int = mesh.interior.size
    areas = mesh.areas
    stiffness, load, mean_w = _p1_interior_operators(mesh, params.zeta)

    n = 2 * n_el + n_int
    u_idx = np.arange(n_el)
    xi_idx = n_el + np.arange(n_el)
    w_idx = 2 * n_el + np.arange(n_int)

    big_q = np.zeros((n, n))
    big_q[np.ix_(u_idx, u_idx)] = np.diag(areas)
    big_q[np.ix_(w_idx, w_idx)] = stiffness
    lin = np.zeros(n)
    lin[u_idx] = -params.u_obs * areas
    lin[w_idx] = load
    c0 = 0.5 * params.u_obs ** 2 * float(areas.sum())

    # w >= w_a at every interior node: w_a - w_i <= 0
    a_g = np.zeros((n_int, n))
    a_g[np.arange(n_int), w_idx] = -1.0
    b_g = np.full(n_int, params.w_a)

    # optimality system of OC(w), tested per element and scaled by 1/area
    a_h = np.zeros((n_el, n))
    a_h[:, u_idx] = np.tile(areas, (n_el, 1))  # the S*S coupling sum_T' a_T' u_T'
    a_h[np.arange(n_el), u_idx] += params.alpha
    a_h[:, w_idx] = -params.alpha * mean_w
    a_h[np.arange(n_el), xi_idx] = -1.0
    b_h = np.full(n_el, -params.y_d)

    a_big_g = np.zeros((n_el, n))
    a_big_g[np.arange(n_el), u_idx] = 1.0
    b_big_g = np.full(n_el, -params.u_a)
    a_big_h = np.zeros((n_el, n))
    a_big_h[np.arange(n_el), xi_idx] = 1.0
    b_big_h = np.zeros(n_el)

    problem = QuadraticMpcc(
        Q=big_q, q=lin, c0=c0, A_g=a_g, b_g=b_g, A_h=a_h, b_h=b_h,
        A_G=a_big_g, b_G=b_big_g, A_H=a_big_h, b_H=b_big_h)
    return FemInstance(problem=problem, mesh=mesh, params=params,
                       stiffness=stiffness, load=load, mean_w=mean_w,
                       u_idx=u_idx, xi_idx=xi_idx, w_idx=w_idx)


def reference_point(params: IocParams | None = None) -> FullPoint:
    """The known solution (u, xi, w) = (0, 0, 0) of the w_a = 0 instance,
    with zero multipliers, as a feasibility anchor."""
    params = params or IocParams()
    if params.w_a != 0.0:
        raise ValueError("reference point is only valid for w_a = 0")
    n_el = 2 * params.n_div ** 2
    n_int = (params.n_div - 1) ** 2
    return FullPoint(x=np.zeros(2 * n_el + n_int), lam=np.zeros(n_int),
                     eta=np.zeros(n_el), mu=np.zeros(n_el), nu=np.zeros(n_el))


def write_instance(instance: FemInstance, path) -> None:
    """Write the portable instance file plus a parameter sidecar."""
    save_instance(instance.problem, path)
    with open(f"{path}.meta.json", "w") as fh:
        json.dump(dataclasses.asdict(instance.params), fh, indent=1)


def read_params_sidecar(path) -> IocParams:
    with open(f"{path}.meta.json") as fh:
        return IocParams(**json.load(fh))
