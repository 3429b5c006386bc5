"""Problem data, Lagrangian machinery, index sets, and stationarity tests.

A problem instance is the finite-dimensional complementarity-constrained
quadratic program

    min  1/2 x'Qx + q'x + c0
    s.t. g(x) = A_g x + b_g <= 0
         h(x) = A_h x + b_h  = 0
         G(x) = A_G x + b_G >= 0,  H(x) = A_H x + b_H >= 0,  G(x)'H(x) = 0.

Multipliers m = (lambda, eta, mu, nu) enter the Lagrangian

    L(x, m) = f(x) + lambda'g(x) + eta'h(x) + mu'G(x) + nu'H(x),

and a primal-dual pair is graded along the stationarity chain S => M => C => W
by sign conditions on (mu_i, nu_i) over the biactive pairs: every flavor
requires grad_x L = 0, lambda >= 0 supported on active g rows, mu_i = 0 where
G_i > 0 and nu_i = 0 where H_i > 0; C additionally requires mu_i nu_i >= 0 on
biactive pairs, M requires (mu_i < 0 and nu_i < 0) or mu_i nu_i = 0, and S
requires mu_i <= 0 and nu_i <= 0.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
from scipy.linalg import null_space

from .compgeo import PairPartition

__all__ = [
    "QuadraticMpcc",
    "MultiplierSet",
    "FullPoint",
    "TraceRow",
    "SolverTrace",
    "IndexSets",
    "StationarityReport",
    "eval_lagrangian",
    "compute_index_sets",
    "classify_stationarity",
    "check_mpcc_licq",
    "check_mpcc_ssoc",
    "save_instance",
    "load_instance",
]


@dataclass(frozen=True)
class QuadraticMpcc:
    """Immutable data of one linear-quadratic MPCC instance.

    Every dimension comes from the blocks: r, s and t are the row counts of
    A_g, A_h and A_G, and n is the length of q or the order of Q unless it is
    given. Absent blocks are empty or zero. A matrix block may be given
    dense or as any scipy sparse matrix, and each of Q, A_g, A_h, A_G and
    A_H is stored once, as the operator the solvers multiply with (see
    as_operator): a dense array, or a canonical CSR array, with sorted
    indices, duplicates summed and no stored zeros, equal entry for entry to
    the CSR of the dense block. Every block is stored read-only, in memory
    of its own that no array the caller passed shares. A block or a c0 that
    holds a NaN or an infinite value is rejected. The pair structure of D
    is detected on construction (see pair_partition), the transposed blocks
    (see transposed) and the data a solver caches with the problem (see
    cached) on first use.
    """

    Q: np.ndarray | None = None
    q: np.ndarray | None = None
    c0: float = 0.0
    A_g: np.ndarray | None = None
    b_g: np.ndarray | None = None
    A_h: np.ndarray | None = None
    b_h: np.ndarray | None = None
    A_G: np.ndarray | None = None
    b_G: np.ndarray | None = None
    A_H: np.ndarray | None = None
    b_H: np.ndarray | None = None
    n: int | None = None
    _pairs: PairPartition | None = field(default=None, init=False,
                                         repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if n is None:
            given = self.q if self.q is not None else self.Q
            if given is None:
                raise ValueError("cannot infer n: provide Q, q, or n")
            n = (np.shape(given) or (0,))[-1]  # a 0-d block fails its shape
        r, s, t = ((np.shape(a) or (0,))[0]
                   for a in (self.A_g, self.A_h, self.A_G))
        shapes = {"Q": (n, n), "q": (n,), "A_g": (r, n), "b_g": (r,),
                  "A_h": (s, n), "b_h": (s,), "A_G": (t, n), "b_G": (t,),
                  "A_H": (t, n), "b_H": (t,)}
        for name, shape in shapes.items():
            given = getattr(self, name)
            if given is None:
                arr = np.zeros(shape)
            elif sp.issparse(given) and len(shape) == 2:
                arr = given
            else:
                arr = np.asarray(given, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name,
                               _stored(arr, len(shape) == 2, name))
        if _asymmetry(self.Q) > 1e-12 * _frobenius(self.Q):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "c0", _scalar(self.c0, "c0"))
        try:
            pairs = PairPartition.from_rows(self.A_G, self.b_G,
                                            self.A_H, self.b_H)
        except ValueError:
            pairs = None  # the pair maps do not select coordinates
        object.__setattr__(self, "_pairs", pairs)

    @classmethod
    def build(cls, Q=None, q=None, c0=0.0, A_g=None, b_g=None, A_h=None, b_h=None,
              A_G=None, b_G=None, A_H=None, b_H=None,
              coordinate_selection=False, n=None) -> "QuadraticMpcc":
        """QuadraticMpcc(...); a true coordinate_selection requires pair maps
        that select coordinates."""
        problem = cls(Q=Q, q=q, c0=c0, A_g=A_g, b_g=b_g, A_h=A_h, b_h=b_h,
                      A_G=A_G, b_G=b_G, A_H=A_H, b_H=b_H, n=n)
        if coordinate_selection and not problem.coordinate_selection:
            raise ValueError("coordinate_selection requires the rows of A_G "
                             "and A_H to be signed unit vectors on pairwise "
                             "distinct coordinates")
        return problem

    @property
    def r(self) -> int:
        return self.A_g.shape[0]

    @property
    def s(self) -> int:
        return self.A_h.shape[0]

    @property
    def t(self) -> int:
        return self.A_G.shape[0]

    @property
    def coordinate_selection(self) -> bool:
        """Whether the pair maps were detected to select coordinates."""
        return self._pairs is not None

    def transposed(self, name: str):
        """The transpose of the block name (Q, A_g, A_h, A_G or A_H), bound
        by as_operator on first use, once per problem."""
        if name not in self._cache:
            mat = getattr(self, name)
            self._cache[name] = as_operator(
                sp.csr_array(mat.T) if sp.issparse(mat)
                else np.ascontiguousarray(mat.T))
        return self._cache[name]

    def dense_rows(self, name: str, rows=slice(None)) -> np.ndarray:
        """The rows of the block name, a slice or an index array, as a dense
        array; all of it by default."""
        part = getattr(self, name)[rows]
        return part.toarray() if sp.issparse(part) else part

    def cached(self, build):
        """build(self), built on first use and kept with the problem, whose
        blocks never change; a dataclasses.replace copy starts afresh."""
        if build not in self._cache:
            self._cache[build] = build(self)
        return self._cache[build]

    # pointwise evaluations
    def f(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ (self.Q @ x) + self.q @ x + self.c0)

    def grad_f(self, x) -> np.ndarray:
        return self.Q @ np.asarray(x, dtype=float) + self.q

    def g(self, x) -> np.ndarray:
        return self.A_g @ np.asarray(x, dtype=float) + self.b_g

    def h(self, x) -> np.ndarray:
        return self.A_h @ np.asarray(x, dtype=float) + self.b_h

    def G(self, x) -> np.ndarray:
        return self.A_G @ np.asarray(x, dtype=float) + self.b_G

    def H(self, x) -> np.ndarray:
        return self.A_H @ np.asarray(x, dtype=float) + self.b_H

    def pair_partition(self) -> PairPartition:
        """Pair structure of D, built once with the problem.

        Available when the rows of A_G and A_H are signed unit vectors on
        pairwise distinct coordinates, which they are vacuously when there
        are no pairs.
        """
        if self._pairs is None:
            raise ValueError("the pair maps do not select coordinates")
        return self._pairs


def as_operator(mat):
    """CSR when clearly sparse, else a dense array: the one rule by which
    the solvers multiply with the problem's blocks. mat is a dense array,
    returned itself when dense, or a CSR array, returned itself when
    sparse."""
    size = mat.shape[0] * mat.shape[1]
    sparse = sp.issparse(mat)
    if size >= 4096 and (mat.nnz if sparse else np.count_nonzero(mat)) < \
            0.25 * size:
        return mat if sparse else sp.csr_array(mat)
    return mat.toarray() if sparse else mat


def _asymmetry(Q) -> float:
    """|Q - Q'|_F of a dense or a CSR Q."""
    return _frobenius(Q - Q.T)


def _frobenius(mat) -> float:
    """|mat|_F of a dense or a sparse matrix."""
    return float(np.linalg.norm(mat.data if sp.issparse(mat) else mat))


def _stored(arr, matrix: bool, name: str):
    """arr, a block as given or as np.asarray made it, as the problem
    stores it: a vector, or a matrix as its operator (see as_operator),
    read-only and copied unless _canonical_csr or as_operator made it.
    Its entries are checked finite before as_operator may densify them: a
    CSR block's stored values, a dense block's min and max, which a NaN or
    an infinite entry shows in, so no temporary of the block's size is
    formed."""
    block = _canonical_csr(arr) if sp.issparse(arr) else arr
    values = block.data if sp.issparse(block) else block
    if values.size and not (math.isfinite(values.min()) and
                            math.isfinite(values.max())):
        raise ValueError(f"{name} holds a NaN or infinite value")
    op = as_operator(block) if matrix else block
    if op is arr:
        op = arr.copy()
    for part in (op.data, op.indices, op.indptr) if sp.issparse(op) else (op,):
        part.setflags(write=False)
    return op


def _canonical_csr(mat) -> sp.csr_array:
    """mat as a canonical CSR array of floats, with sorted indices,
    duplicates summed, no stored zeros and the index type of the CSR of the
    dense block, 32-bit where the shape and the entries fit: mat itself
    where it is one already, else a new one."""
    if isinstance(mat, sp.csr_array) and mat.dtype == float and \
            mat.has_canonical_format and \
            np.count_nonzero(mat.data) == mat.nnz and \
            (mat.indices.dtype == mat.indptr.dtype == np.int32 or
             max(*mat.shape, mat.nnz) >= 2 ** 31):
        return mat
    mat = sp.csr_array(mat, dtype=float, copy=True)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    if max(*mat.shape, mat.nnz) < 2 ** 31:
        mat.indices = mat.indices.astype(np.int32, copy=False)
        mat.indptr = mat.indptr.astype(np.int32, copy=False)
    return mat


class _FloatBlocks:
    """Base of a dataclass of float arrays, one per field, converted on
    construction and copied block by block."""

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    def copy(self):
        return type(self)(*(getattr(self, f.name).copy() for f in fields(self)))


@dataclass
class MultiplierSet(_FloatBlocks):
    """Multipliers (lambda, eta, mu, nu) for the four constraint blocks."""

    lam: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    @classmethod
    def zeros(cls, problem: QuadraticMpcc) -> "MultiplierSet":
        return cls(np.zeros(problem.r), np.zeros(problem.s),
                   np.zeros(problem.t), np.zeros(problem.t))


@dataclass
class FullPoint(_FloatBlocks):
    """Full primal-dual point (x, lambda, eta, mu, nu)."""

    x: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    @classmethod
    def from_parts(cls, x, m: MultiplierSet) -> "FullPoint":
        return cls(x, m.lam, m.eta, m.mu, m.nu)

    @classmethod
    def zeros(cls, problem: QuadraticMpcc) -> "FullPoint":
        return cls.from_parts(np.zeros(problem.n), MultiplierSet.zeros(problem))

    @classmethod
    def from_vector(cls, problem: QuadraticMpcc, v) -> "FullPoint":
        """v, a vector or a FullPoint, split by the blocks full_vector checks."""
        ends = np.cumsum([problem.n, problem.r, problem.s, problem.t])
        return cls(*np.split(full_vector(problem, v), ends))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.lam, self.eta, self.mu, self.nu])

    def multipliers(self) -> MultiplierSet:
        return MultiplierSet(self.lam, self.eta, self.mu, self.nu).copy()


def start_vector(problem: QuadraticMpcc, z) -> np.ndarray:
    """full_vector(problem, z), checked to be finite: the start of a solve."""
    return _finite(full_vector(problem, z), "the start")


def full_vector(problem: QuadraticMpcc, z) -> np.ndarray:
    """The full point z, a FullPoint or a vector, as one float vector of
    length n + r + s + 2t: the one check of a point's lengths, a
    FullPoint's blocks (x, lam, eta, mu, nu) against (n, r, s, t, t)."""
    sizes = (problem.n, problem.r, problem.s, problem.t, problem.t)
    if isinstance(z, FullPoint):
        shape = tuple(getattr(z, f.name).shape for f in fields(z))
        want = tuple((k,) for k in sizes)
    else:
        z = np.asarray(z, dtype=float)
        shape, want = z.shape, (sum(sizes),)
    if shape != want:
        raise ValueError(f"a full point's x must have length n = {sizes[0]} "
                         f"and (lam, eta, mu, nu) lengths (r, s, t, t) = "
                         f"{sizes[1:]}, so n + r + s + 2t = {sum(sizes)}; got {shape}")
    return z.to_vector() if isinstance(z, FullPoint) else z


@dataclass
class TraceRow:
    """One per-iteration record; fields unused by a solver stay None."""

    k: int
    objective: float
    residual: float  # feasibility measure V (outer ALM) or |F| (Newton)
    wall_time: float
    rho: float | None = None
    sub_iters: int | None = None
    sub_stat: float | None = None
    sub_converged: bool | None = None
    identity_gap: float | None = None
    penalty_increased: bool | None = None
    step_type: str | None = None
    alpha: float | None = None
    merit: float | None = None


@dataclass
class SolverTrace:
    rows: list = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)


def check_fields(cfg, **rules) -> None:
    """Raise a ValueError naming the first field of cfg whose value fails
    its rule, a pair (test, what the value must be): the configs' check on
    construction."""
    for name, (test, wording) in rules.items():
        value = getattr(cfg, name)
        if not test(value):
            raise ValueError(f"{type(cfg).__name__}.{name} must be {wording}, "
                             f"got {value!r}")


def is_number(value) -> bool:
    """Whether value is a real number, NaN included, and not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_count(value) -> bool:
    """Whether value is an integer >= 0 and not a boolean."""
    return isinstance(value, numbers.Integral) and \
        not isinstance(value, bool) and value >= 0


# rules of check_fields that several configs use; NaN fails every one
FRACTION = (lambda v: is_number(v) and 0 < v < 1, "a number in (0, 1)")
NONNEGATIVE = (lambda v: is_number(v) and 0 <= v < math.inf,
               "a finite number >= 0")
COUNT = (is_count, "an integer >= 0")


@dataclass(frozen=True)
class IndexSets:
    """Active-set partition at (x, m) and its multiplier refinements.

    i_g collects active inequality rows; i_plus0 / i_0plus / i_00 partition the
    feasible pairs by (G_i > 0, H_i = 0), (G_i = 0, H_i > 0), (G_i = H_i = 0).
    Refinements: i_g_plus are active rows with lambda_i > tol, i_00_pmR /
    i_00_Rpm the biactive pairs with mu_i != 0 / nu_i != 0, and i_00_00 the
    biactive pairs with both multipliers zero (all within tol).
    """

    i_g: np.ndarray
    i_plus0: np.ndarray
    i_0plus: np.ndarray
    i_00: np.ndarray
    i_g_plus: np.ndarray
    i_00_pmR: np.ndarray
    i_00_Rpm: np.ndarray
    i_00_00: np.ndarray
    tol: float


@dataclass(frozen=True)
class StationarityReport:
    is_feasible: bool
    is_W: bool
    is_C: bool
    is_M: bool
    is_S: bool
    worst_violation: dict = field(default_factory=dict)


def eval_lagrangian(problem: QuadraticMpcc, x, m: MultiplierSet):
    """Value, gradient, and (constant) Hessian of the MPCC Lagrangian; the
    Hessian is Q as the problem stores it, dense or CSR."""
    x = full_vector(problem, FullPoint.from_parts(x, m))[:problem.n]
    value = (problem.f(x) + m.lam @ problem.g(x) + m.eta @ problem.h(x)
             + m.mu @ problem.G(x) + m.nu @ problem.H(x))
    grad = (problem.grad_f(x) + m.lam @ problem.A_g + m.eta @ problem.A_h
            + m.mu @ problem.A_G + m.nu @ problem.A_H)
    return float(value), grad, problem.Q


def compute_index_sets(problem: QuadraticMpcc, x, m: MultiplierSet,
                       tol: float = 1e-6) -> IndexSets:
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    x = full_vector(problem, FullPoint.from_parts(x, m))[:problem.n]
    g = problem.g(x)
    G = problem.G(x)
    H = problem.H(x)
    i_g = np.flatnonzero(g >= -tol)
    g_zero = np.abs(G) <= tol
    h_zero = np.abs(H) <= tol
    i_plus0 = np.flatnonzero((G > tol) & h_zero)
    i_0plus = np.flatnonzero(g_zero & (H > tol))
    i_00 = np.flatnonzero(g_zero & h_zero)
    i_g_plus = i_g[m.lam[i_g] > tol] if i_g.size else i_g
    mu_nz = np.abs(m.mu[i_00]) > tol
    nu_nz = np.abs(m.nu[i_00]) > tol
    return IndexSets(i_g=i_g, i_plus0=i_plus0, i_0plus=i_0plus, i_00=i_00,
                     i_g_plus=i_g_plus,
                     i_00_pmR=i_00[mu_nz], i_00_Rpm=i_00[nu_nz],
                     i_00_00=i_00[~mu_nz & ~nu_nz], tol=tol)


def classify_stationarity(problem: QuadraticMpcc, x, m: MultiplierSet,
                          tol: float = 1e-6) -> StationarityReport:
    """Grade (x, m) along the chain S => M => C => W, enforced structurally;
    compute_index_sets checks tol first."""
    sets = compute_index_sets(problem, x, m, tol)
    x = full_vector(problem, FullPoint.from_parts(x, m))[:problem.n]
    g, h = problem.g(x), problem.h(x)
    G, H = problem.G(x), problem.H(x)

    def vmax(*vals):
        parts = [np.max(v) if np.size(v) else 0.0 for v in vals]
        return float(max([0.0, *parts]))

    feas_viol = vmax(g, np.abs(h), -G, -H,
                     np.minimum(G, H) if problem.t else 0.0)
    is_feasible = feas_viol <= tol

    _, grad_l, _ = eval_lagrangian(problem, x, m)
    off_g = np.setdiff1d(np.arange(problem.r), sets.i_g)
    w_viol = vmax(np.abs(grad_l),
                  -m.lam[sets.i_g], np.abs(m.lam[off_g]),
                  np.abs(m.mu[sets.i_plus0]), np.abs(m.nu[sets.i_0plus]))
    is_w = w_viol <= tol

    mu00, nu00 = m.mu[sets.i_00], m.nu[sets.i_00]
    prod = mu00 * nu00
    c_viol = vmax(-prod)
    is_c = is_w and c_viol <= tol

    # M on biactive pairs: strictly negative branch, or vanishing product
    # (product test scaled so large opposite-sign multipliers cannot pass)
    strict = (mu00 < -tol) & (nu00 < -tol)
    prod_scale = np.maximum(1.0, np.maximum(np.abs(mu00), np.abs(nu00)))
    prod_ok = np.abs(prod) <= tol * prod_scale
    m_viol = vmax(np.where(strict | prod_ok, 0.0,
                           np.minimum(np.abs(prod) / prod_scale,
                                      np.maximum(np.maximum(mu00, nu00), 0.0))))
    is_m = is_c and bool(np.all(strict | prod_ok))

    s_viol = vmax(mu00, nu00)
    is_s = is_m and s_viol <= tol

    return StationarityReport(
        is_feasible=bool(is_feasible), is_W=bool(is_w), is_C=bool(is_c),
        is_M=bool(is_m), is_S=bool(is_s),
        worst_violation={"feasibility": feas_viol, "W": w_viol, "C": c_viol,
                         "M": m_viol, "S": s_viol})


def _licq_rows(problem: QuadraticMpcc, sets: IndexSets) -> np.ndarray:
    idx_G = np.union1d(sets.i_0plus, sets.i_00).astype(int)
    idx_H = np.union1d(sets.i_plus0, sets.i_00).astype(int)
    dense = problem.dense_rows
    return np.vstack([dense("A_g", sets.i_g), dense("A_h"),
                      dense("A_G", idx_G), dense("A_H", idx_H)])


def check_mpcc_licq(problem: QuadraticMpcc, sets: IndexSets) -> bool:
    """Linear independence of active g rows, all h rows, and the active pair
    rows, at the point whose compute_index_sets gave sets."""
    rows = _licq_rows(problem, sets)
    if rows.shape[0] == 0:
        return True
    if rows.shape[0] > rows.shape[1]:
        return False
    sv = np.linalg.svd(rows, compute_uv=False)
    return bool(sv[-1] > 1e-10 * sv[0])


def check_mpcc_ssoc(problem: QuadraticMpcc, sets: IndexSets):
    """Second-order sufficiency over the critical directions, at the point
    and multipliers whose compute_index_sets gave sets.

    Enumerates the 2^k branch subspaces induced by the biactive pairs with
    vanishing multipliers (the union whose branches fix G_i'd = 0 or
    H_i'd = 0) and requires the reduced Lagrangian Hessian to be positive
    definite on every branch nullspace. Returns True / False, or None when
    k > 20 and the check is skipped.
    """
    free = sets.i_00_00
    if free.size > 20:
        return None
    idx_G = np.union1d(sets.i_0plus, sets.i_00_pmR).astype(int)
    idx_H = np.union1d(sets.i_plus0, sets.i_00_Rpm).astype(int)
    dense = problem.dense_rows
    base = np.vstack([dense("A_g", sets.i_g_plus), dense("A_h"),
                      dense("A_G", idx_G), dense("A_H", idx_H)])
    hess = problem.Q  # affine constraints leave the Hessian equal to Q
    for choice in itertools.product((0, 1), repeat=free.size):
        extra = [dense("A_H" if c else "A_G", slice(i, i + 1))
                 for i, c in zip(free, choice)]
        rows = np.vstack([base, *extra]) if extra else base
        if rows.shape[0] == 0:
            basis = np.eye(problem.n)
        else:
            basis = null_space(rows)
        if basis.shape[1] == 0:
            continue
        reduced = basis.T @ hess @ basis
        if np.min(np.linalg.eigvalsh(reduced)) <= 1e-10:
            return False
    return True


# ---------------------------------------------------------------------------
# portable instance files: JSON with dense or coordinate-list matrix blocks

_FORMAT_NAME = "mpcc-instance"
_SECTIONS = (("ineq", "A_g", "b_g"), ("eq", "A_h", "b_h"),
             ("comp_G", "A_G", "b_G"), ("comp_H", "A_H", "b_H"))


def _encode_matrix(mat):
    """A block as rows of numbers, or as a coordinate list of [i, j, v] in
    row-major order when it has more than 64 entries and under a quarter
    of them nonzero; a CSR block is encoded from its entries."""
    size = mat.shape[0] * mat.shape[1]
    if size > 64 and (mat.nnz if sp.issparse(mat) else
                      np.count_nonzero(mat)) < 0.25 * size:
        csr = mat if sp.issparse(mat) else sp.csr_array(mat)
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(csr.indptr))
        return {"shape": list(mat.shape),
                "entries": list(zip(rows.tolist(), csr.indices.tolist(),
                                    csr.data.tolist()))}
    return (mat.toarray() if sp.issparse(mat) else mat).tolist()


def _finite(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not a number or an array of numbers") \
            from None
    except OverflowError:
        raise ValueError(f"{name} holds a number beyond the float range") \
            from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} holds a NaN or infinite value")
    return arr


def _json_numbers(value, name: str) -> np.ndarray:
    """_finite of a number or nested lists of numbers read from JSON, in
    which true and false are not numbers."""
    if _holds_bool(value):
        raise ValueError(f"{name} holds a boolean where a number is expected")
    return _finite(value, name)


def _holds_bool(value) -> bool:
    if not isinstance(value, list):
        return isinstance(value, bool)
    kinds = set(map(type, value))
    return bool in kinds or (list in kinds and any(map(_holds_bool, value)))


def _scalar(value, name: str) -> float:
    arr = _finite(value, name)
    if arr.ndim:
        raise ValueError(f"{name} is not a number")
    return float(arr)


def _decode_matrix(obj, rows: int, cols: int, name: str):
    if not isinstance(obj, dict):
        mat = _json_numbers(obj, name)  # save_instance writes [] for no rows
        if mat.shape != (rows, cols) and (rows or mat.shape != (0,)):
            raise ValueError(f"{name}: dense shape {mat.shape} "
                             f"does not match {(rows, cols)}")
        return mat.reshape(rows, cols)
    _known_keys(obj, ("shape", "entries"), f"{name}: coordinate list")
    shape = obj["shape"]
    if not (isinstance(shape, list) and all(type(k) is int for k in shape)
            and tuple(shape) == (rows, cols)):
        raise ValueError(f"{name}: coordinate-list shape {shape} "
                         f"does not match {(rows, cols)}")
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ValueError(f"{name}: coordinate-list 'entries' is not a list")
    return _coordinate_list(entries, shape, name)


def _coordinate_list(entries: list, shape: list, name: str) -> sp.csr_array:
    """The CSR array of the [i, j, v] triples of a coordinate list, each
    checked to be a triple of integer indices in range and a number within
    the float range; the first entry that fails raises its first failed
    check's message. As in a dense block written entry by entry, a repeated
    [i, j] takes its last value, and a zero value is not stored."""
    rows, cols = shape
    last = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"{name}: coordinate-list 'entries' item "
                             f"{entry!r} is not an [i, j, v] triple")
        i, j, v = entry
        if not (type(i) is type(j) is int and 0 <= i < rows
                and 0 <= j < cols):
            raise ValueError(f"{name}: coordinate-list index ({i!r}, {j!r}) "
                             f"is not an integer or out of range for shape "
                             f"{shape}")
        if type(v) not in (int, float):
            raise ValueError(f"{name}: coordinate-list value {v!r} at "
                             f"({i}, {j}) is not a number")
        try:
            last[i, j] = float(v)
        except OverflowError:
            raise ValueError(f"{name}: coordinate-list value at ({i}, {j}) "
                             "is beyond the float range") from None
    kept = {ij: v for ij, v in last.items() if v != 0.0}
    values = _finite(list(kept.values()), name)
    ij = np.array(list(kept), dtype=np.int64).reshape(-1, 2)
    return sp.csr_array((values, (ij[:, 0], ij[:, 1])), shape=tuple(shape))


def _known_keys(obj: dict, known, where: str) -> None:
    """Reject a key of obj that is not in known, so that a misspelt key
    fails instead of being read as absent."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {unknown}")


def _section(doc: dict, key: str, known) -> dict:
    section = doc[key]
    if not isinstance(section, dict):
        raise ValueError(f"section '{key}' is not a JSON object")
    _known_keys(section, known, f"section '{key}'")
    return section


def save_instance(problem: QuadraticMpcc, path) -> None:
    doc = {
        "format": _FORMAT_NAME,
        "version": 1,
        "n": problem.n, "r": problem.r, "s": problem.s, "t": problem.t,
        "coordinate_selection": problem.coordinate_selection,
        "objective": {"Q": _encode_matrix(problem.Q),
                      "q": [float(v) for v in problem.q],
                      "c0": problem.c0},
    }
    for key, a_name, b_name in _SECTIONS:
        doc[key] = {"A": _encode_matrix(getattr(problem, a_name)),
                    "b": [float(v) for v in getattr(problem, b_name)]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_instance(path) -> QuadraticMpcc:
    """Read a save_instance file. A stored "coordinate_selection": true is
    a requirement on the pair rows; the dimensions come from the blocks,
    which a stored n, r, s or t must equal, and a stored version is 1. A
    key that save_instance does not write is rejected, at the top level,
    in a section or in a coordinate list."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_NAME:
        raise ValueError(f"not an {_FORMAT_NAME} file: {path}")
    _known_keys(doc, ("format", "version", *"nrst", "coordinate_selection",
                      "objective", *[key for key, *_ in _SECTIONS]), str(path))
    try:
        obj = _section(doc, "objective", ("Q", "q", "c0"))
        q = _json_numbers(obj["q"], "q")
        blocks = {"Q": _decode_matrix(obj["Q"], q.size, q.size, "Q"), "q": q,
                  "c0": _json_numbers(obj["c0"], "c0")}
        for key, a_name, b_name in _SECTIONS:
            section = _section(doc, key, ("A", "b"))
            b = blocks[b_name] = _json_numbers(section["b"], b_name)
            blocks[a_name] = _decode_matrix(section["A"], b.size, q.size, a_name)
    except KeyError as err:
        raise ValueError(f"{path}: missing section or key {err}") from None
    selection = doc.get("coordinate_selection", False)
    if not isinstance(selection, bool):
        raise ValueError("'coordinate_selection' is not a JSON boolean")
    problem = QuadraticMpcc.build(**blocks, coordinate_selection=selection)
    stored = {"version": 1, **{key: getattr(problem, key) for key in "nrst"}}
    for key, want in stored.items():
        if key in doc and not (type(doc[key]) is int and doc[key] == want):
            raise ValueError(f"{path}: '{key}' is {doc[key]!r}, not {want}")
    return problem
