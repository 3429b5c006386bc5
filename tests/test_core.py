"""Problem container, Lagrangian, index sets, and stationarity grading."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from helpers_tiny import random_tiny_mpcc, without_flag
from mpcckit.alm import solve_alm
from mpcckit.cli import make_start
from mpcckit.compgeo import PairPartition, singleton_columns
from mpcckit.core import (
    MultiplierSet,
    QuadraticMpcc,
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
from mpcckit.nsnewton import FullPoint, solve_newton
from mpcckit.oracle import finite_diff


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
            block = getattr(p, name)
            sparse = block.size >= 4096 and \
                np.count_nonzero(block) < 0.25 * block.size
            for transposed in (False, True):
                op = p.operator(name, transposed)
                assert p.operator(name, transposed) is op
                assert scipy.sparse.issparse(op) == sparse, (name, transposed)
                dense = op.toarray() if sparse else op
                np.testing.assert_array_equal(
                    dense, block.T if transposed else block)
        assert p.operator("A_h") is p.A_h  # 43 % nonzero: kept dense

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
            built.append(np.shape(args[0]))
            return csr_array(*args, **kwargs)
        monkeypatch.setattr(scipy.sparse, "csr_array", spy)
        x0, m0 = make_start(p, 1)
        z0 = FullPoint.from_parts(x0, m0)
        solve_alm(p, x0=x0)
        assert built  # Q and A_g are sparse
        built.clear()
        solve_alm(p, x0=x0)
        assert built == []
        solve_newton(p, z0=z0)
        # on first use, the five blocks into the CSR [K; I] of Newton's K,
        # with A_G and A_H bound first (ALM multiplies through neither)
        assert built == [(p.n, p.n), (p.r, p.n), (p.s, p.n)] + \
            [(p.t, p.n)] * 4
        built.clear()
        solve_newton(p, z0=z0)
        assert built == []


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
        A = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, -2.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        np.testing.assert_array_equal(singleton_columns(A),
                                      [-1, -1, 1, 2, 2])
        # against a row loop, on rows with 0, 1 or several nonzeros
        rng = np.random.default_rng(8)
        A = rng.normal(size=(200, 6)) * (rng.random((200, 6)) < 0.2)
        loop = [np.flatnonzero(row)[0] if np.count_nonzero(row) == 1 else -1
                for row in A]
        np.testing.assert_array_equal(singleton_columns(A), loop)
        assert singleton_columns(np.zeros((0, 3))).shape == (0,)
        np.testing.assert_array_equal(singleton_columns(np.zeros((2, 0))),
                                      [-1, -1])

    @pytest.mark.parametrize("A_G, A_H", [
        ([[0.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]),
        ([[1.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]),
        ([[-2.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]),
        ([[1.0, 0.0, 0.0]], [[-1.0, 0.0, 0.0]]),
    ], ids=["zero-row", "two-nonzeros", "entry-of-2", "repeated-coordinate"])
    def test_rows_that_select_no_coordinates(self, A_G, A_H):
        with pytest.raises(ValueError):
            PairPartition.from_rows(A_G, [0.0], A_H, [0.0])
        p = QuadraticMpcc(n=3, A_G=A_G, A_H=A_H)
        assert p.coordinate_selection is False
        with pytest.raises(ValueError):
            p.pair_partition()
        with pytest.raises(ValueError, match="coordinate_selection"):
            QuadraticMpcc.build(n=3, A_G=A_G, A_H=A_H,
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
    ], ids=["top-level-list", "objective-list", "section-number",
            "c0-a-list", "q-an-object", "q-huge-integer", "c0-huge-integer"])
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
