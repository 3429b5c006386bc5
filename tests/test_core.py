"""Problem container, Lagrangian, index sets, and stationarity grading."""

import ast
import json
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from helpers_tiny import random_tiny_mpcc, without_flag
from mpcckit.alm import solve_alm
from mpcckit.cli import make_start
from mpcckit.compgeo import PairPartition, singleton_columns
from mpcckit.core import (
    FullPoint,
    MultiplierSet,
    QuadraticMpcc,
    SolverTrace,
    TraceRow,
    _asymmetry,
    _coordinate_list,
    _licq_rows,
    as_operator,
    check_mpcc_licq,
    check_mpcc_ssoc,
    classify_stationarity,
    compute_index_sets,
    eval_lagrangian,
    load_instance,
    save_instance,
)
from mpcckit.iocfem import IocParams, assemble_instance
from mpcckit.nsnewton import _kkt, solve_newton
from mpcckit.oracle import enumerate_branch_nlps, finite_diff


def _pair_problem(Q=None, q=None):
    """n=2 with the single pair G = x1, H = x2."""
    return QuadraticMpcc.build(Q=Q, q=q, n=2,
                               A_G=[[1.0, 0.0]], b_G=[0.0],
                               A_H=[[0.0, 1.0]], b_H=[0.0],
                               coordinate_selection=True)


class TestProblemContainer:
    def test_rejects_asymmetric_Q(self):
        with pytest.raises(ValueError):
            QuadraticMpcc.build(Q=[[1.0, 2.0], [0.0, 1.0]], n=2)

    def test_symmetry_check_forms_no_n_by_n_temporary(self):
        n = 2048
        Q = np.eye(n)
        Q.setflags(write=False)  # as_operator stores it as CSR all the same
        tracemalloc.start()
        try:
            QuadraticMpcc(Q=Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense Q - Q' would take Q.nbytes; the CSR one is sized by its
        # entries
        assert peak < Q.nbytes / 2 + 2 ** 20
        off = np.eye(n)
        off[300, 1500] = 1e-6  # an entry whose mirror is zero
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticMpcc(Q=off)

    def test_asymmetry_is_the_frobenius_norm_of_q_minus_its_transpose(self):
        Q = np.random.default_rng(5).normal(size=(1500, 1500))  # dense
        assert _asymmetry(Q) == pytest.approx(np.linalg.norm(Q - Q.T),
                                              rel=1e-13)
        assert _asymmetry(Q + Q.T) == 0.0

    def test_dimension_must_be_given_or_inferred(self):
        with pytest.raises(ValueError, match="cannot infer n"):
            QuadraticMpcc(A_G=[[1.0, 0.0]], b_G=[0.0])

    @pytest.mark.parametrize("blocks, message", [
        (dict(Q=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
         r"Q must have shape \(3, 3\), got \(2, 3\)"),
        (dict(Q=np.eye(2), q=np.zeros(3)),
         r"Q must have shape \(3, 3\), got \(2, 2\)"),
        (dict(q=np.zeros(2), A_h=[[1.0, 0.0, 0.0]], b_h=[0.0]),
         r"A_h must have shape \(1, 2\), got \(1, 3\)"),
        (dict(q=np.zeros(2), A_g=[[1.0, 0.0]], b_g=[0.0, 1.0]),
         r"b_g must have shape \(1,\), got \(2,\)"),
        (dict(q=np.zeros(2), A_G=[[1.0, 0.0]], b_G=[0.0],
              A_H=[[0.0, 1.0], [1.0, 0.0]], b_H=[0.0, 0.0]),
         r"A_H must have shape \(1, 2\), got \(2, 2\)"),
    ], ids=["Q-rows", "Q-against-q", "A_h-columns", "b_g-length",
            "A_H-rows"])
    def test_block_of_the_wrong_shape_is_rejected(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            QuadraticMpcc(**blocks)

    def test_build_infers_dimensions(self):
        p = _pair_problem()
        assert (p.n, p.r, p.s, p.t) == (2, 0, 0, 1)

    def test_arrays_are_read_only(self):
        p = _pair_problem()
        with pytest.raises(ValueError):
            p.Q[0, 0] = 1.0

    def test_caller_arrays_stay_writeable_and_apart(self):
        Q, q = np.eye(2), np.zeros(2)
        p = QuadraticMpcc(Q=Q, q=q)
        Q[0, 0] = 2.0
        q[1] = 3.0
        np.testing.assert_array_equal(p.Q, np.eye(2))
        np.testing.assert_array_equal(p.q, np.zeros(2))
        view = Q.view()
        view.setflags(write=False)  # Q can still write through it
        assert not np.shares_memory(QuadraticMpcc(Q=view, q=q).Q, Q)

    def test_read_only_blocks_are_shared(self):
        p = _pair_problem(Q=np.eye(2))
        other = replace(p, c0=1.0)
        for name in ("Q", "q", "A_g", "b_g", "A_G", "b_G", "A_H", "b_H"):
            assert getattr(other, name) is getattr(p, name), name

    def test_coordinate_selection_validates_rows(self):
        with pytest.raises(ValueError):
            QuadraticMpcc.build(n=2, A_G=[[1.0, 1.0]], b_G=[0.0],
                                A_H=[[0.0, 1.0]], b_H=[0.0],
                                coordinate_selection=True)

    def test_pair_partition_is_built_once(self):
        p = _pair_problem()
        pairs = p.pair_partition()
        assert p.pair_partition() is pairs
        np.testing.assert_array_equal(pairs.idx_g, [0])
        np.testing.assert_array_equal(pairs.idx_h, [1])
        general = QuadraticMpcc.build(n=2, A_G=[[1.0, 1.0]], b_G=[0.0],
                                      A_H=[[0.0, 1.0]], b_H=[0.0])
        with pytest.raises(ValueError):
            general.pair_partition()


class TestBoundOperators:
    def test_dense_or_csr_by_size_and_density(self):
        p = assemble_instance(IocParams()).problem
        for name in ("Q", "A_g", "A_h", "A_G", "A_H"):
            block = p.dense_rows(name)
            sparse = block.size >= 4096 and \
                np.count_nonzero(block) < 0.25 * block.size
            # each block is stored once, as its operator
            assert p.operator(name) is getattr(p, name)
            for transposed in (False, True):
                op = p.operator(name, transposed)
                assert p.operator(name, transposed) is op
                assert scipy.sparse.issparse(op) == sparse, (name, transposed)
                dense = op.toarray() if sparse else op
                np.testing.assert_array_equal(
                    dense, block.T if transposed else block)
        assert isinstance(p.A_h, np.ndarray)  # 43 % nonzero: kept dense

    def test_csr_input_follows_the_same_rule(self):
        # the IOC blocks, and 64 x 64 blocks just under and at a quarter
        # nonzero, then one row short of 4096 entries
        p = assemble_instance(IocParams()).problem
        blocks = [getattr(p, name) for name in ("Q", "A_g", "A_h", "A_G",
                                                "A_H")]
        for shape, nonzeros in (((64, 64), 1023), ((64, 64), 1024),
                                ((63, 64), 63)):
            block = np.zeros(shape)
            block.flat[:nonzeros] = np.arange(1.0, nonzeros + 1)
            blocks.append(block)
        kinds = []
        for block in blocks:
            dense, csr = as_operator(block), as_operator(
                scipy.sparse.csr_array(block))
            kinds.append(scipy.sparse.issparse(dense))
            assert scipy.sparse.issparse(csr) == kinds[-1]
            if kinds[-1]:
                assert csr.format == "csr"
                dense, csr = dense.toarray(), csr.toarray()
            assert isinstance(dense, np.ndarray) and \
                isinstance(csr, np.ndarray)
            # equal as numbers: CSR keeps no -0.0 of the dense block
            np.testing.assert_array_equal(dense, csr)
        assert kinds == [True, True, False, True, True, True, False, False]

    def test_solvers_bind_each_block_once(self, monkeypatch):
        p = assemble_instance(IocParams()).problem
        built, csr_array = [], scipy.sparse.csr_array

        def spy(*args, **kwargs):
            if not isinstance(args[0], tuple):  # a matrix converted to CSR
                built.append(args[0].shape)
            return csr_array(*args, **kwargs)
        monkeypatch.setattr(scipy.sparse, "csr_array", spy)
        x0, m0 = make_start(p, 1)
        z0 = FullPoint.from_parts(x0, m0)
        solve_alm(p, x0=x0)
        # the blocks are stored as their operators, so ALM binds only the
        # transposes, on first use: the CSR of A_g' (A_h' stays dense)
        assert built == [(p.n, p.r)]
        built.clear()
        solve_alm(p, x0=x0)
        assert built == []
        solve_newton(p, z0=z0)
        # on first use, the five blocks into the CSR [K; I] of Newton's K
        assert built == [(p.n, p.n), (p.r, p.n), (p.s, p.n)] + \
            [(p.t, p.n)] * 2
        built.clear()
        solve_newton(p, z0=z0)
        assert built == []


_MATRICES = ("Q", "A_g", "A_h", "A_G", "A_H")
_VECTORS = ("q", "b_g", "b_h", "b_G", "b_H")


def _arrays(block):
    """The arrays that hold a block: a CSR array's data, indices and
    pointers, or the dense array itself."""
    if scipy.sparse.issparse(block):
        return block.data, block.indices, block.indptr
    return (block,)


def _rebuilt(p, matrix):
    """p built afresh from matrix(block) for each of its dense blocks."""
    return QuadraticMpcc(c0=p.c0, **{name: getattr(p, name) for name in _VECTORS},
                         **{name: matrix(p.dense_rows(name)) for name in _MATRICES})


def _signed_zeros(block):
    """block with -0.0 in each of its zeros, as a dense assembly by
    -alpha * mean_w leaves them."""
    return np.where(block == 0.0, -0.0, block)


def _dense_twin(p, monkeypatch):
    """p with every block stored dense, whatever as_operator's rule."""
    with monkeypatch.context() as patch:
        patch.setattr("mpcckit.core.as_operator", lambda mat: mat.toarray()
                      if scipy.sparse.issparse(mat) else mat)
        twin = _rebuilt(p, lambda block: block)
    assert not any(scipy.sparse.issparse(getattr(twin, name))
                   for name in _MATRICES)
    return twin


def _bits(result):
    """Every field of a solver result: arrays by their bytes, floats by
    their hex and trace rows by their repr, without their wall times."""
    out = []
    for f in fields(result):
        value = getattr(result, f.name)
        if isinstance(value, (MultiplierSet, FullPoint)):
            out.append([getattr(value, g.name).tobytes()
                        for g in fields(value)])
        elif isinstance(value, SolverTrace):
            out.append([repr(replace(row, wall_time=0.0))
                        for row in value.rows])
        elif isinstance(value, np.ndarray):
            out.append(value.tobytes())
        elif isinstance(value, float):
            out.append(value.hex())
        else:
            out.append(value)
    return out


def _loop_decode(entries, shape, name):
    """A coordinate list decoded entry by entry into a dense block, as
    load_instance did before it decoded into CSR: the reference for its
    values and its messages."""
    rows, cols = shape
    mat = np.zeros(shape)
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"{name}: coordinate-list 'entries' item {entry!r} "
                             "is not an [i, j, v] triple")
        i, j, v = entry
        if not (type(i) is type(j) is int and 0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"{name}: coordinate-list index ({i!r}, {j!r}) "
                             f"is not an integer or out of range for shape {shape}")
        if type(v) not in (int, float):
            raise ValueError(f"{name}: coordinate-list value {v!r} at "
                             f"({i}, {j}) is not a number")
        try:
            mat[i, j] = v
        except OverflowError:
            raise ValueError(f"{name}: coordinate-list value at ({i}, {j}) "
                             "is beyond the float range") from None
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} holds a NaN or infinite value")
    return mat


def _dense_encoding(mat):
    """A dense block as save_instance wrote it before blocks could be CSR,
    the reference for its bytes: a coordinate list entry by entry where
    more than 64 entries are under a quarter nonzero, else rows."""
    mat = np.asarray(mat, dtype=float)
    nnz = np.count_nonzero(mat)
    if mat.size > 64 and nnz < 0.25 * mat.size:
        ii, jj = np.nonzero(mat)
        return {"shape": list(mat.shape),
                "entries": [[int(i), int(j), float(mat[i, j])]
                            for i, j in zip(ii, jj)]}
    return [[float(v) for v in row] for row in mat]


class TestSparseBlocks:
    """Blocks given as scipy sparse matrices, and each block stored once,
    as the operator the solvers multiply with."""

    def test_csr_block_is_canonical_and_read_only(self):
        # unsorted, a duplicate, an explicit zero and entries summing to 0
        rows, cols = [5, 3, 5, 3, 50, 50], [9, 2, 9, 40, 1, 1]
        vals = [1.0, 2.0, 0.5, 0.0, 3.0, -3.0]
        A = scipy.sparse.coo_array((vals, (rows, cols)), shape=(60, 80))
        p = QuadraticMpcc(q=np.zeros(80), A_h=A, b_h=np.zeros(60))
        assert isinstance(p.A_h, scipy.sparse.csr_array)
        assert p.operator("A_h") is p.A_h
        ref = scipy.sparse.csr_array(A.toarray())
        for mine, theirs in zip(_arrays(p.A_h), _arrays(ref)):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
            with pytest.raises(ValueError):
                mine[0] = mine[0]

    def test_csr_blocks_are_shared_when_read_only_else_copied(self):
        p = assemble_instance(IocParams()).problem
        other = replace(p, c0=1.0)
        for name in ("Q", "A_g", "A_G", "A_H"):
            assert getattr(other, name) is getattr(p, name), name
        given = scipy.sparse.csr_array(p.dense_rows("Q"))
        q = QuadraticMpcc(Q=given, q=p.q)
        assert q.Q is not given
        assert not np.shares_memory(q.Q.data, given.data)
        given.data[:] = 0.0
        assert q.Q.nnz and np.count_nonzero(q.Q.data) == q.Q.nnz

    def test_dense_and_csr_input_store_the_same_blocks(self):
        p = assemble_instance(IocParams()).problem
        dense = _rebuilt(p, _signed_zeros)
        csr = _rebuilt(p, scipy.sparse.csr_array)
        for name in _MATRICES:
            mine, theirs = getattr(dense, name), getattr(csr, name)
            assert type(mine) is type(theirs), name
            for a, b in zip(_arrays(mine), _arrays(theirs)):
                # as numbers: the dense A_h keeps the -0.0 it was given
                np.testing.assert_array_equal(a, b)

    def test_asymmetric_csr_q_is_rejected_without_a_dense_array(self):
        n = 2048
        Q = scipy.sparse.eye_array(n, format="csr")
        tracemalloc.start()
        try:
            QuadraticMpcc(Q=Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the dense Q would take 32 MB
        off = Q.tolil()
        off[300, 1500] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticMpcc(Q=off.tocsr())
        sym = off + off.T  # stored entries that cancel are no asymmetry
        QuadraticMpcc(Q=scipy.sparse.csr_array(sym))

    @pytest.mark.parametrize("w_a", [0.0, -0.05])
    def test_ioc_solves_from_dense_and_csr_input_are_bit_identical(self,
                                                                    w_a):
        # w_a = -0.05 includes Newton's 1000-iteration stall
        p = assemble_instance(IocParams(w_a=w_a)).problem
        dense = _rebuilt(p, _signed_zeros)
        csr = _rebuilt(p, scipy.sparse.csr_array)
        assert dense.A_h.tobytes() != csr.A_h.tobytes()  # -0.0 against 0.0
        for seed in (1, 2):
            x0, m0 = make_start(p, seed)
            z0 = FullPoint.from_parts(x0, m0)
            assert _bits(solve_alm(dense, x0=x0, m0=m0)) == \
                _bits(solve_alm(csr, x0=x0, m0=m0))
            assert _bits(solve_newton(dense, z0=z0)) == \
                _bits(solve_newton(csr, z0=z0))

    def test_tiny_solves_from_dense_and_csr_input_are_bit_identical(self):
        rng = np.random.default_rng(4001)
        for _ in range(10):
            p = random_tiny_mpcc(rng)
            x0 = rng.normal(size=p.n)
            z0 = FullPoint.from_parts(x0, MultiplierSet.zeros(p))
            dense = _rebuilt(p, _signed_zeros)
            csr = _rebuilt(p, scipy.sparse.csr_array)
            assert _bits(solve_alm(dense, x0=x0)) == _bits(solve_alm(csr, x0=x0))
            assert _bits(solve_newton(dense, z0=z0)) == \
                _bits(solve_newton(csr, z0=z0))

    def test_readers_of_csr_blocks_match_dense_storage(self, monkeypatch):
        p = assemble_instance(IocParams()).problem
        twin = _dense_twin(p, monkeypatch)
        x = np.zeros(p.n)
        # every pair biactive, two of them with both multipliers zero
        m = MultiplierSet(np.zeros(p.r), np.zeros(p.s), -np.ones(p.t),
                          -np.ones(p.t))
        m.mu[:2] = m.nu[:2] = 0.0
        for problem in (p, twin):
            sets = compute_index_sets(problem, x, m)
            assert sets.i_00_00.size == 2
        assert _licq_rows(p, sets).tobytes() == \
            _licq_rows(twin, sets).tobytes()
        assert check_mpcc_licq(p, x, sets) == check_mpcc_licq(twin, x, sets)
        assert check_mpcc_ssoc(p, x, m, sets) == \
            check_mpcc_ssoc(twin, x, m, sets)
        hess = eval_lagrangian(p, x, m)[2]
        assert hess is p.Q and scipy.sparse.issparse(hess)

    def test_oracle_on_csr_blocks_matches_dense_storage(self, monkeypatch):
        # a CSR Q of order 80 with two coordinate pairs and one row of g
        rng = np.random.default_rng(9)
        n = 80
        Q = scipy.sparse.diags_array([np.full(n - 1, 0.25), np.full(n, 2.0),
                                      np.full(n - 1, 0.25)], offsets=[-1, 0, 1])
        A_G, A_H = np.zeros((2, n)), np.zeros((2, n))
        A_G[[0, 1], [0, 1]] = A_H[[0, 1], [2, 3]] = 1.0
        p = QuadraticMpcc.build(Q=Q, q=rng.normal(size=n),
                                A_g=rng.normal(size=(1, n)), b_g=[-1.0],
                                A_G=A_G, b_G=np.zeros(2), A_H=A_H,
                                b_H=np.zeros(2), coordinate_selection=True)
        assert scipy.sparse.issparse(p.Q)
        twin = _dense_twin(p, monkeypatch)
        ours, theirs = enumerate_branch_nlps(p), enumerate_branch_nlps(twin)
        assert len(ours) == len(theirs) > 0
        for (x, m, tags), (y, k, tags_k) in zip(ours, theirs):
            assert x.tobytes() == y.tobytes() and tags == tags_k
            assert [getattr(m, f.name).tobytes() for f in fields(m)] == \
                [getattr(k, f.name).tobytes() for f in fields(k)]


class TestPairDetection:
    def test_selecting_rows_are_detected_without_the_flag(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            flagged = random_tiny_mpcc(rng)
            auto = without_flag(flagged)
            assert auto.coordinate_selection is True
            want, got = flagged.pair_partition(), auto.pair_partition()
            for name in ("idx_g", "idx_h", "sign_g", "sign_h",
                         "off_g", "off_h"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))

    def test_no_pairs_select_vacuously(self):
        p = QuadraticMpcc.build(Q=np.eye(2), q=np.zeros(2))
        assert p.coordinate_selection
        assert p.pair_partition().t == 0

    def test_singleton_columns(self):
        def columns(A):
            # dense and as a CSR array, to equal columns of equal dtype
            dense = singleton_columns(A)
            csr = singleton_columns(scipy.sparse.csr_array(A))
            np.testing.assert_array_equal(csr, dense)
            assert csr.dtype == dense.dtype
            return dense

        A = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, -2.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        np.testing.assert_array_equal(columns(A), [-1, -1, 1, 2, 2])
        # against a row loop, on rows with 0, 1 or several nonzeros
        rng = np.random.default_rng(8)
        A = rng.normal(size=(200, 6)) * (rng.random((200, 6)) < 0.2)
        loop = [np.flatnonzero(row)[0] if np.count_nonzero(row) == 1 else -1
                for row in A]
        np.testing.assert_array_equal(columns(A), loop)
        assert columns(np.zeros((0, 3))).shape == (0,)
        np.testing.assert_array_equal(columns(np.zeros((2, 0))), [-1, -1])
        # a -0.0 beside a row's unit entry is no second nonzero
        A_G, A_H = [[-0.0, 1.0, 0.0]], [[0.0, -0.0, -1.0]]
        np.testing.assert_array_equal(columns(A_G), [1])
        dense = PairPartition.from_rows(A_G, [0.0], A_H, [0.0])
        csr = PairPartition.from_rows(scipy.sparse.csr_array(A_G), [0.0],
                                      scipy.sparse.csr_array(A_H), [0.0])
        for name, want in (("idx_g", [1]), ("idx_h", [2]),
                           ("sign_g", [1.0]), ("sign_h", [-1.0])):
            np.testing.assert_array_equal(getattr(dense, name), want)
            np.testing.assert_array_equal(getattr(csr, name), want)
            assert getattr(csr, name).dtype == getattr(dense, name).dtype

    @pytest.mark.parametrize("A_G, A_H", [
        ([[0.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]),
        ([[1.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]),
        ([[-2.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]),
        ([[1.0, 0.0, 0.0]], [[-1.0, 0.0, 0.0]]),
    ], ids=["zero-row", "two-nonzeros", "entry-of-2", "repeated-coordinate"])
    def test_rows_that_select_no_coordinates(self, A_G, A_H):
        csr = scipy.sparse.csr_array
        for G, H in ((A_G, A_H), (csr(A_G), csr(A_H))):
            with pytest.raises(ValueError):
                PairPartition.from_rows(G, [0.0], H, [0.0])
            p = QuadraticMpcc(n=3, A_G=G, A_H=H)
            assert p.coordinate_selection is False
            with pytest.raises(ValueError):
                p.pair_partition()
            with pytest.raises(ValueError, match="coordinate_selection"):
                QuadraticMpcc.build(n=3, A_G=G, A_H=H,
                                    coordinate_selection=True)

    def test_replace_derives_dimensions_and_detects_again(self):
        p = _pair_problem()
        more = replace(p, A_g=[[1.0, 0.0], [0.0, 1.0]], b_g=[0.0, -1.0])
        assert (more.n, more.r, more.s, more.t) == (2, 2, 0, 1)
        assert more.coordinate_selection
        general = replace(p, A_G=[[1.0, 1.0]])
        assert general.coordinate_selection is False
        with pytest.raises(ValueError):
            general.pair_partition()


class TestSharedModel:
    """core holds the data model that both solvers share: the problem, the
    point, the trace rows, the start check and the per-problem cache."""

    def test_old_module_names_are_the_core_types(self):
        from mpcckit import alm, nsnewton
        assert nsnewton.FullPoint is FullPoint
        assert (alm.TraceRow, alm.SolverTrace) == (TraceRow, SolverTrace)

    def test_no_solver_module_imports_another(self):
        package = Path(__file__).resolve().parents[1] / "src" / "mpcckit"
        imports = {}
        for path in package.glob("*.py"):
            found = imports[path.stem] = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    found.update([node.module] if node.module else
                                 [alias.name for alias in node.names])
        assert {name for name, found in imports.items()
                if found & {"alm", "nsnewton"}} == {"cli", "__init__"}
        assert imports["nsnewton"] == imports["iocfem"] == {"core"}

    def test_full_point_converts_and_copies_as_multipliers_do(self):
        z = FullPoint([1, 2], [3], [], [4], np.array([5.0]))
        blocks = (z.x, z.lam, z.eta, z.mu, z.nu)
        assert all(b.dtype == np.float64 for b in blocks)
        m = z.multipliers()
        assert [b.tolist() for b in (m.lam, m.eta, m.mu, m.nu)] == \
            [[3.0], [], [4.0], [5.0]]
        assert not any(np.shares_memory(a, b) for a, b in
                       zip((m.lam, m.eta, m.mu, m.nu), blocks[1:]))
        copy = z.copy()
        assert copy.to_vector().tolist() == z.to_vector().tolist()
        assert not np.shares_memory(copy.x, z.x)

    def test_a_start_is_checked_against_every_block(self):
        p = _pair_problem(Q=np.eye(2))
        assert FullPoint.zeros(p).to_vector().tolist() == [0.0] * 4
        message = (r"x must have length n = 2 and \(lam, eta, mu, nu\) lengths "
                   r"\(r, s, t, t\) = \(0, 0, 1, 1\), so n \+ r \+ s \+ 2t = 4")
        bad = FullPoint.from_parts([0.0, 0.0], MultiplierSet([], [], [0.0],
                                                             [0.0, 0.0]))
        for solve in (lambda: solve_alm(p, x0=bad.x, m0=bad.multipliers()),
                      lambda: solve_newton(p, z0=bad),
                      lambda: FullPoint.from_vector(p, np.zeros(5))):
            with pytest.raises(ValueError, match=message):
                solve()

    def test_cached_builds_once_per_problem(self):
        p = _pair_problem(Q=np.eye(2))
        built = []

        def build(problem):
            built.append(problem)
            return object()
        assert p.cached(build) is p.cached(build)
        assert built == [p]

    def test_replace_starts_with_an_empty_cache(self):
        p = _pair_problem(Q=np.eye(2), q=[1.0, 0.0])
        solve_alm(p)
        solve_newton(p)
        assert p._cache
        copy = replace(p, q=[0.0, 1.0])
        assert copy._cache == {}
        # so the copy's Newton data follow its own blocks
        assert _kkt(copy) is not _kkt(p)
        assert _kkt(copy).k.tolist() == [0.0, 1.0, 0.0, 0.0]


class TestEvalLagrangian:
    def test_reduces_to_objective_with_zero_multipliers(self):
        p = QuadraticMpcc.build(Q=np.eye(2), q=np.zeros(2))
        value, grad, hess = eval_lagrangian(p, [1.0, 2.0],
                                            MultiplierSet.zeros(p))
        assert value == 2.5
        np.testing.assert_array_equal(grad, [1.0, 2.0])
        np.testing.assert_array_equal(hess, np.eye(2))

    def test_inequality_term(self):
        p = QuadraticMpcc.build(n=2, A_g=[[1.0, 0.0]], b_g=[-1.0])
        m = MultiplierSet(lam=np.array([3.0]), eta=np.zeros(0),
                          mu=np.zeros(0), nu=np.zeros(0))
        value, grad, _ = eval_lagrangian(p, [2.0, 0.0], m)
        assert value == 3.0
        np.testing.assert_array_equal(grad, [3.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_tiny_mpcc(rng)
            m = MultiplierSet(lam=rng.normal(size=p.r),
                              eta=rng.normal(size=p.s),
                              mu=rng.normal(size=p.t),
                              nu=rng.normal(size=p.t))
            x = rng.normal(size=p.n)
            _, grad, _ = eval_lagrangian(p, x, m)
            num = finite_diff(lambda v: eval_lagrangian(p, v, m)[0], x)
            np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-6)


class TestIndexSets:
    def test_biactive_origin(self):
        p = _pair_problem()
        sets = compute_index_sets(p, [0.0, 0.0], MultiplierSet.zeros(p),
                                  tol=1e-8)
        np.testing.assert_array_equal(sets.i_00, [0])
        assert sets.i_plus0.size == 0 and sets.i_0plus.size == 0

    def test_inactive_first_component(self):
        p = _pair_problem()
        sets = compute_index_sets(p, [1.0, 0.0], MultiplierSet.zeros(p))
        np.testing.assert_array_equal(sets.i_plus0, [0])
        assert sets.i_00.size == 0

    def test_refinement_by_multiplier_sign(self):
        p = _pair_problem()
        m = MultiplierSet(lam=np.zeros(0), eta=np.zeros(0),
                          mu=np.array([-1.0]), nu=np.array([0.0]))
        sets = compute_index_sets(p, [0.0, 0.0], m, tol=1e-8)
        np.testing.assert_array_equal(sets.i_00_pmR, [0])
        assert sets.i_00_Rpm.size == 0 and sets.i_00_00.size == 0

    def test_feasible_pairs_are_partitioned(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_tiny_mpcc(rng)
            x = p.pair_partition().project(rng.normal(size=p.n))
            sets = compute_index_sets(p, x, MultiplierSet.zeros(p))
            merged = np.concatenate([sets.i_plus0, sets.i_0plus, sets.i_00])
            np.testing.assert_array_equal(np.sort(merged), np.arange(p.t))


class TestClassifyStationarity:
    def test_unconstrained_minimum_is_strongly_stationary(self):
        p = _pair_problem(Q=np.eye(2))
        report = classify_stationarity(p, [0.0, 0.0], MultiplierSet.zeros(p))
        assert report.is_S and report.is_M and report.is_C and report.is_W
        assert report.is_feasible

    def test_negative_biactive_multipliers(self):
        # grad L = q + (mu, nu) = 0 at the origin
        p = _pair_problem(q=[1.0, 1.0])
        m = MultiplierSet(lam=np.zeros(0), eta=np.zeros(0),
                          mu=np.array([-1.0]), nu=np.array([-1.0]))
        report = classify_stationarity(p, [0.0, 0.0], m)
        assert report.is_M
        # both multipliers <= 0 also meets the strong-stationarity sign rule
        assert report.is_S

    def test_mixed_sign_biactive_multipliers(self):
        p = _pair_problem(q=[-1.0, 1.0])
        m = MultiplierSet(lam=np.zeros(0), eta=np.zeros(0),
                          mu=np.array([1.0]), nu=np.array([-1.0]))
        report = classify_stationarity(p, [0.0, 0.0], m)
        assert report.is_W and not report.is_C
        assert not report.is_M and not report.is_S

    def test_product_branch_of_m_condition(self):
        # mu free, nu = 0 satisfies the product branch but not both-negative
        p = _pair_problem(q=[-2.0, 0.0])
        m = MultiplierSet(lam=np.zeros(0), eta=np.zeros(0),
                          mu=np.array([2.0]), nu=np.array([0.0]))
        report = classify_stationarity(p, [0.0, 0.0], m)
        assert report.is_M and not report.is_S

    def test_nonzero_gradient_fails_weak_stationarity(self):
        p = _pair_problem(q=[1.0, 0.0])
        report = classify_stationarity(p, [0.0, 0.0], MultiplierSet.zeros(p))
        assert not report.is_W

    def test_chain_is_monotone_under_fuzzing(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_tiny_mpcc(rng)
            x = p.pair_partition().project(rng.normal(size=p.n))
            m = MultiplierSet(lam=rng.normal(size=p.r),
                              eta=rng.normal(size=p.s),
                              mu=rng.choice([-1.0, 0.0, 1.0], size=p.t),
                              nu=rng.choice([-1.0, 0.0, 1.0], size=p.t))
            rep = classify_stationarity(p, x, m)
            assert (not rep.is_S or rep.is_M)
            assert (not rep.is_M or rep.is_C)
            assert (not rep.is_C or rep.is_W)


class TestConstraintQualifications:
    def test_licq_biactive_unit_rows(self):
        p = _pair_problem()
        sets = compute_index_sets(p, [0.0, 0.0], MultiplierSet.zeros(p))
        assert check_mpcc_licq(p, [0.0, 0.0], sets) is True

    def test_licq_fails_on_duplicated_rows(self):
        p = QuadraticMpcc.build(n=2, A_g=[[1.0, 0.0], [1.0, 0.0]],
                                b_g=[0.0, 0.0])
        sets = compute_index_sets(p, [0.0, 0.0], MultiplierSet.zeros(p))
        assert check_mpcc_licq(p, [0.0, 0.0], sets) is False

    def test_ssoc_identity_hessian(self):
        p = _pair_problem(Q=np.eye(2))
        m = MultiplierSet.zeros(p)
        sets = compute_index_sets(p, [0.0, 0.0], m)
        assert check_mpcc_ssoc(p, [0.0, 0.0], m, sets) is True

    def test_ssoc_indefinite_branch(self):
        p = _pair_problem(Q=np.diag([1.0, -1.0]))
        m = MultiplierSet.zeros(p)
        sets = compute_index_sets(p, [0.0, 0.0], m)
        assert check_mpcc_ssoc(p, [0.0, 0.0], m, sets) is False

    def test_ssoc_vacuous_on_empty_critical_subspace(self):
        # equalities fix every direction; indefiniteness never gets tested
        p = QuadraticMpcc.build(Q=-np.eye(2), A_h=np.eye(2), b_h=np.zeros(2))
        m = MultiplierSet.zeros(p)
        sets = compute_index_sets(p, [0.0, 0.0], m)
        assert check_mpcc_ssoc(p, [0.0, 0.0], m, sets) is True

    def test_ssoc_positive_definite_hessian_fuzz(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_tiny_mpcc(rng)  # Q = basis^T basis + I/2 is PD
            x = p.pair_partition().project(rng.normal(size=p.n))
            m = MultiplierSet.zeros(p)
            sets = compute_index_sets(p, x, m)
            assert check_mpcc_ssoc(p, x, m, sets) is True

    def test_ssoc_branch_guard_skips(self):
        t = 21
        rows = np.zeros((t, 2 * t))
        cols = np.zeros((t, 2 * t))
        rows[np.arange(t), np.arange(t)] = 1.0
        cols[np.arange(t), t + np.arange(t)] = 1.0
        p = QuadraticMpcc.build(n=2 * t, A_G=rows, b_G=np.zeros(t),
                                A_H=cols, b_H=np.zeros(t),
                                coordinate_selection=True)
        m = MultiplierSet.zeros(p)
        x = np.zeros(2 * t)
        sets = compute_index_sets(p, x, m)
        assert check_mpcc_ssoc(p, x, m, sets) is None


class TestInstanceFiles:
    def test_roundtrip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(5)
        p = random_tiny_mpcc(rng)
        path = tmp_path / "instance.json"
        save_instance(p, path)
        q = load_instance(path)
        assert (q.n, q.r, q.s, q.t) == (p.n, p.r, p.s, p.t)
        assert q.coordinate_selection == p.coordinate_selection
        assert q.c0 == p.c0
        for name in ("Q", "q", "A_g", "b_g", "A_h", "b_h",
                     "A_G", "b_G", "A_H", "b_H"):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name))

    def test_roundtrip_of_sparse_blocks(self, tmp_path):
        # mostly-zero Q exercises the coordinate-list encoding
        Q = np.zeros((40, 40))
        Q[3, 7] = Q[7, 3] = 1.5
        p = QuadraticMpcc.build(Q=Q, q=np.zeros(40))
        path = tmp_path / "sparse.json"
        save_instance(p, path)
        np.testing.assert_array_equal(load_instance(path).Q, Q)

    def test_coordinate_list_loads_as_csr_last_value_wins(self, tmp_path):
        # a repeated [i, j] keeps its last value, as in a dense block
        # written entry by entry, and a last value of zero, or of -0.0, is
        # not stored
        n = 80
        Q = np.zeros((n, n))
        Q[3, 7] = Q[7, 3] = 1.5
        path = tmp_path / "repeated.json"
        save_instance(QuadraticMpcc.build(Q=Q, q=np.zeros(n)), path)
        doc = json.loads(path.read_text())
        doc["objective"]["Q"]["entries"] = [
            [7, 3, 9.0], [3, 7, 2.5], [7, 3, 2.5], [5, 5, 4.0], [5, 5, 0.0],
            [6, 6, 0.0], [0, 0, -1.0], [0, 0, 1.0], [4, 4, float("nan")],
            [4, 4, 3.0], [2, 2, -0.0]]
        path.write_text(json.dumps(doc))
        loaded = load_instance(path).Q  # the overwritten NaN is no error
        assert isinstance(loaded, scipy.sparse.csr_array)
        ref = np.zeros((n, n))
        ref[3, 7] = ref[7, 3] = 2.5
        ref[0, 0] = 1.0
        ref[4, 4] = 3.0
        for mine, theirs in zip(_arrays(loaded),
                                _arrays(scipy.sparse.csr_array(ref))):
            assert mine.tobytes() == theirs.tobytes()

    def test_coordinate_list_decodes_as_the_entry_by_entry_loop(self):
        # random lists with repeats, zeros and one or two bad entries
        rng = np.random.default_rng(11)
        bad = [5, [1, 2], [0, True, 1.0], [0, 9, 1.0], [-1, 0, 1.0],
               [0, 0, "x"], [0, 0, None], [0, 0, 10**400], [1.0, 0, 1.0],
               [0, 0, float("inf")], [[0], 0, 1.0]]
        for case in range(60):
            entries = [[int(i), int(j), float(rng.choice([0.0, -1.5, 2.0]))]
                       for i, j in rng.integers(0, (4, 5), size=(12, 2))]
            for _ in range(case % 3):
                entries.insert(int(rng.integers(0, 13)),
                               bad[int(rng.integers(0, len(bad)))])
            try:
                want = _loop_decode(entries, [4, 5], "A")
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    _coordinate_list(entries, [4, 5], "A")
                assert str(got.value) == str(err)
                continue
            mat = _coordinate_list(entries, [4, 5], "A")
            assert isinstance(mat, scipy.sparse.csr_array)
            ref = scipy.sparse.csr_array(want)
            for mine, theirs in zip(_arrays(mat), _arrays(ref)):
                np.testing.assert_array_equal(mine, theirs)

    @pytest.mark.parametrize("instance", [
        IocParams(n_div=2), IocParams(n_div=2, w_a=-0.05), IocParams(),
        IocParams(w_a=-0.05), None], ids=["ioc2", "ioc2-shifted", "ioc8",
                                          "ioc8-shifted", "tiny"])
    def test_files_are_the_bytes_of_the_dense_encoder(self, tmp_path,
                                                      instance):
        p = random_tiny_mpcc(np.random.default_rng(5)) if instance is None \
            else assemble_instance(instance).problem
        path = tmp_path / "instance.json"
        save_instance(p, path)
        doc = {"format": "mpcc-instance", "version": 1,
               "n": p.n, "r": p.r, "s": p.s, "t": p.t,
               "coordinate_selection": p.coordinate_selection,
               "objective": {"Q": _dense_encoding(p.dense_rows("Q")),
                             "q": [float(v) for v in p.q], "c0": p.c0}}
        for key, a_name, b_name in (("ineq", "A_g", "b_g"),
                                    ("eq", "A_h", "b_h"),
                                    ("comp_G", "A_G", "b_G"),
                                    ("comp_H", "A_H", "b_H")):
            doc[key] = {"A": _dense_encoding(p.dense_rows(a_name)),
                        "b": [float(v) for v in getattr(p, b_name)]}
        assert path.read_text() == json.dumps(doc, indent=1)

    def test_stored_false_over_selecting_rows_loads_with_partition(
            self, tmp_path):
        path = tmp_path / "pair.json"
        save_instance(_pair_problem(), path)
        doc = json.loads(path.read_text())
        assert doc["coordinate_selection"] is True
        doc["coordinate_selection"] = False
        path.write_text(json.dumps(doc))
        loaded = load_instance(path)
        assert loaded.coordinate_selection
        np.testing.assert_array_equal(loaded.pair_partition().idx_h, [1])

    def test_stored_true_over_general_rows_is_rejected(self, tmp_path):
        general = QuadraticMpcc.build(n=2, A_G=[[1.0, 1.0]], b_G=[0.0],
                                      A_H=[[0.0, 1.0]], b_H=[0.0])
        path = tmp_path / "general.json"
        save_instance(general, path)
        doc = json.loads(path.read_text())
        assert doc["coordinate_selection"] is False
        doc["coordinate_selection"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="coordinate_selection"):
            load_instance(path)

    @pytest.mark.parametrize("field, value, message", [
        (0, -1, "out of range"),
        (1, 40, "out of range"),
        (0, 0.5, "not an integer"),
        (1, "7", "not an integer"),
        (2, float("nan"), "NaN or infinite"),
        ("shape", [41, 40], "does not match"),
        ("shape", 5, "does not match"),
        ("entries", 5, "'entries' is not a list"),
        ("entry", [3, 7], r"'entries' item \[3, 7\] is not an \[i, j, v\]"),
        ("entry", 5, r"'entries' item 5 is not an \[i, j, v\]"),
        (2, "1.5", r"value '1.5' at \(3, 7\) is not a number"),
        (2, [1.5], r"value \[1.5\] at \(3, 7\) is not a number"),
        (2, 10**400, r"Q: coordinate-list value at \(3, 7\) is beyond the "
                     "float range"),
    ], ids=["negative-index", "index-too-large", "fractional-index",
            "string-index", "nan-value", "shape-mismatch", "shape-not-a-list",
            "entries-not-a-list", "entry-a-pair", "entry-a-number",
            "string-value", "list-value", "huge-integer-value"])
    def test_malformed_coordinate_list_is_rejected(self, tmp_path, field,
                                                   value, message):
        Q = np.zeros((40, 40))
        Q[3, 7] = Q[7, 3] = 1.5
        path = tmp_path / "bad.json"
        save_instance(QuadraticMpcc.build(Q=Q, q=np.zeros(40)), path)
        doc = json.loads(path.read_text())
        q_block = doc["objective"]["Q"]
        if field in ("shape", "entries"):
            q_block[field] = value
        elif field == "entry":
            q_block["entries"][0] = value
        else:
            q_block["entries"][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_instance(path)

    @pytest.mark.parametrize("section, key", [
        ((), "objective"), ((), "eq"), (("ineq",), "b"), (("comp_H",), "A"),
        (("objective",), "c0"), (("objective", "Q"), "shape"),
        (("objective", "Q"), "entries"),
    ])
    def test_missing_section_or_key_is_rejected(self, tmp_path, section, key):
        Q = np.zeros((40, 40))
        Q[3, 7] = Q[7, 3] = 1.5
        path = tmp_path / "bad.json"
        save_instance(QuadraticMpcc.build(Q=Q, q=np.zeros(40)), path)
        doc = json.loads(path.read_text())
        parent = doc
        for name in section:
            parent = parent[name]
        del parent[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"missing section or key '{key}'"):
            load_instance(path)

    @pytest.mark.parametrize("key, value, message", [
        ((), [1], "not an mpcc-instance file"),
        (("objective",), [1], "section 'objective' is not a JSON object"),
        (("comp_G",), 5, "section 'comp_G' is not a JSON object"),
        (("objective", "c0"), [1, 2], "c0 is not a number"),
        (("objective", "q"), {"a": 1},
         "q is not a number or an array of numbers"),
        (("objective", "q"), [1.0, 10**400],
         "q holds a number beyond the float range"),
        (("objective", "c0"), 10**400,
         "c0 holds a number beyond the float range"),
        (("comp_G", "A"), [[1.0], [0.0]],
         r"A_G: dense shape \(2, 1\) does not match \(1, 2\)"),
        (("comp_G", "A"), [1.0, 0.0],
         r"A_G: dense shape \(2,\) does not match \(1, 2\)"),
        (("coordinate_selection",), "false",
         "'coordinate_selection' is not a JSON boolean"),
    ], ids=["top-level-list", "objective-list", "section-number",
            "c0-a-list", "q-an-object", "q-huge-integer", "c0-huge-integer",
            "block-transposed", "block-flat", "selection-a-string"])
    def test_wrong_typed_document_or_section_is_rejected(self, tmp_path, key,
                                                         value, message):
        path = tmp_path / "bad.json"
        save_instance(_pair_problem(), path)
        doc = json.loads(path.read_text())
        if not key:
            doc = value
        else:
            parent = doc
            for name in key[:-1]:
                parent = parent[name]
            parent[key[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_instance(path)
