"""Finite-element inverse-optimal-control instance generator."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from mpcckit.core import as_operator, load_instance
from mpcckit.iocfem import (
    IocParams,
    assemble_instance,
    build_mesh,
    read_params_sidecar,
    reference_point,
    write_instance,
)


def _reference_instance(params):
    """The mesh and the blocks of assemble_instance, built by loops over the
    vertices, the triangles and each triangle's vertex pairs, with a
    vertex-to-interior dict."""
    n_div = params.n_div
    k = n_div + 1
    vertices = np.array([[ix / n_div, iy / n_div]
                         for iy in range(k) for ix in range(k)])
    tris = []
    for iy in range(n_div):
        for ix in range(n_div):
            v00, v10 = iy * k + ix, iy * k + ix + 1
            v11, v01 = (iy + 1) * k + ix + 1, (iy + 1) * k + ix
            tris += [(v00, v10, v11), (v00, v11, v01)]
    triangles = np.array(tris, dtype=int)
    interior = np.array([iy * k + ix for iy in range(1, n_div)
                         for ix in range(1, n_div)], dtype=int)
    p = vertices[triangles]
    areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    n_el, n_int = len(triangles), interior.size
    vmap = {int(v): i for i, v in enumerate(interior)}
    stiffness = np.zeros((n_int, n_int))
    load = np.zeros(n_int)
    mean_w = np.zeros((n_el, n_int))
    for e, (tri, area) in enumerate(zip(triangles, areas)):
        (x1, y1), (x2, y2), (x3, y3) = vertices[tri]
        grads = np.array([[y2 - y3, x3 - x2], [y3 - y1, x1 - x3],
                          [y1 - y2, x2 - x1]]) / (2.0 * area)
        k_loc = area * grads @ grads.T
        for a_loc, va in enumerate(tri):
            ia = vmap.get(int(va))
            if ia is None:
                continue
            load[ia] += params.zeta * area / 3.0
            mean_w[e, ia] += 1.0 / 3.0
            for b_loc, vb in enumerate(tri):
                ib = vmap.get(int(vb))
                if ib is not None:
                    stiffness[ia, ib] += k_loc[a_loc, b_loc]
    n = 2 * n_el + n_int
    u, xi = np.arange(n_el), n_el + np.arange(n_el)
    w = 2 * n_el + np.arange(n_int)
    rows, ints = np.arange(n_el), np.arange(n_int)
    blocks = {name: np.zeros(shape) for name, shape in (
        ("Q", (n, n)), ("q", n), ("A_g", (n_int, n)), ("A_h", (n_el, n)),
        ("A_G", (n_el, n)), ("A_H", (n_el, n)))}
    blocks["Q"][np.ix_(u, u)] = np.diag(areas)
    blocks["Q"][np.ix_(w, w)] = stiffness
    blocks["q"][u] = -params.u_obs * areas
    blocks["q"][w] = load
    blocks["A_g"][ints, w] = -1.0
    blocks["A_h"][:, u] = np.tile(areas, (n_el, 1))
    blocks["A_h"][rows, u] += params.alpha
    blocks["A_h"][:, w] = -params.alpha * mean_w
    blocks["A_h"][rows, xi] = -1.0
    blocks["A_G"][rows, u] = 1.0
    blocks["A_H"][rows, xi] = 1.0
    blocks.update(b_g=np.full(n_int, params.w_a),
                  b_h=np.full(n_el, -params.y_d),
                  b_G=np.full(n_el, -params.u_a), b_H=np.zeros(n_el))
    return dict(blocks, vertices=vertices, triangles=triangles,
                interior=interior, areas=areas)


def _arrays(block):
    """The arrays that hold a block: a CSR array's data, indices and
    pointers, or the dense array itself."""
    if scipy.sparse.issparse(block):
        return block.data, block.indices, block.indptr
    return (block,)


class TestBuildMesh:
    def test_default_resolution_counts(self):
        mesh = build_mesh(8)
        assert mesh.triangles.shape == (128, 3)
        assert mesh.vertices.shape == (81, 2)
        assert mesh.interior.size == 49
        np.testing.assert_allclose(mesh.areas, 1.0 / 128.0, rtol=0, atol=1e-15)
        assert abs(mesh.areas.sum() - 1.0) <= 1e-12

    def test_coarsest_mesh(self):
        mesh = build_mesh(1)
        assert mesh.triangles.shape[0] == 2
        assert mesh.interior.size == 0

    def test_single_interior_node(self):
        mesh = build_mesh(2)
        assert mesh.triangles.shape[0] == 8
        assert mesh.interior.size == 1

    def test_positive_orientation(self):
        assert np.all(build_mesh(3).areas > 0)

    def test_rejects_degenerate_division(self):
        with pytest.raises(ValueError):
            build_mesh(0)

    def test_interior_nodes_are_strictly_inside(self):
        mesh = build_mesh(4)
        pts = mesh.vertices[mesh.interior]
        assert np.all((pts > 0) & (pts < 1))


class TestAssembleInstance:
    def test_default_dimensions(self):
        p = assemble_instance().problem
        assert (p.n, p.r, p.s, p.t) == (305, 49, 128, 128)
        assert p.coordinate_selection

    def test_origin_is_feasible_for_zero_lower_bound(self):
        p = assemble_instance().problem
        x = np.zeros(p.n)
        assert np.max(p.g(x)) <= 0.0
        assert np.max(np.abs(p.h(x))) == 0.0
        assert np.max(np.abs(p.G(x))) == 0.0
        assert np.max(np.abs(p.H(x))) == 0.0

    def test_single_interior_node_stiffness(self):
        inst = assemble_instance(IocParams(n_div=2))
        stiffness = inst.problem.dense_rows("Q", inst.w_idx)[:, inst.w_idx]
        np.testing.assert_allclose(stiffness, [[4.0]], rtol=0, atol=1e-12)

    def test_single_interior_node_load(self):
        # int of the hat function = (sum of adjacent areas) / 3; the center
        # node of the 2x2 mesh touches 6 of the 8 elements of area 1/8
        inst = assemble_instance(IocParams(n_div=2))
        np.testing.assert_allclose(inst.problem.q[inst.w_idx], [0.25], rtol=0,
                                   atol=1e-15)

    def test_objective_block_structure(self):
        inst = assemble_instance(IocParams(n_div=4))
        Q = inst.problem.dense_rows("Q")
        np.testing.assert_allclose(Q[np.ix_(inst.u_idx, inst.u_idx)],
                                   np.diag(inst.mesh.areas), atol=1e-15)
        np.testing.assert_array_equal(Q[np.ix_(inst.xi_idx, inst.xi_idx)], 0.0)
        K = Q[np.ix_(inst.w_idx, inst.w_idx)]
        assert np.min(np.linalg.eigvalsh(K)) > 0
        assert np.min(np.linalg.eigvalsh(Q)) >= -1e-10

    def test_equality_rows_match_quadrature_oracle(self):
        params = IocParams(n_div=3)
        inst = assemble_instance(params)
        p = inst.problem
        mesh = inst.mesh
        n_el = mesh.triangles.shape[0]
        rng = np.random.default_rng(60)
        x = rng.normal(size=p.n)
        u = x[inst.u_idx]
        xi = x[inst.xi_idx]
        w = x[inst.w_idx]
        pos = {int(v): i for i, v in enumerate(mesh.interior)}
        su = float(mesh.areas @ u)
        expected = np.empty(n_el)
        for t_el in range(n_el):
            mean_w = sum(w[pos[int(v)]] for v in mesh.triangles[t_el]
                         if int(v) in pos) / 3.0
            expected[t_el] = (su - params.y_d + params.alpha * u[t_el]
                              - params.alpha * mean_w - xi[t_el])
        np.testing.assert_allclose(p.h(x), expected, rtol=0, atol=1e-12)

    def test_bound_rows_and_pair_maps(self):
        params = IocParams(n_div=2, w_a=-0.05, u_a=0.25)
        inst = assemble_instance(params)
        p = inst.problem
        rng = np.random.default_rng(61)
        x = rng.normal(size=p.n)
        np.testing.assert_allclose(p.g(x), params.w_a - x[inst.w_idx],
                                   atol=1e-15)
        np.testing.assert_allclose(p.G(x), x[inst.u_idx] - params.u_a,
                                   atol=1e-15)
        np.testing.assert_allclose(p.H(x), x[inst.xi_idx], atol=1e-15)

    def test_objective_value_at_origin_for_both_observed_controls(self):
        # stated observation value 1 gives 1/2 |0 - 1|^2 = 0.5 at the origin;
        # the reconciled value 2 gives exactly 2
        literal = assemble_instance(IocParams(u_obs=1.0)).problem
        assert literal.f(np.zeros(literal.n)) == pytest.approx(0.5, abs=1e-12)
        reconciled = assemble_instance(IocParams(u_obs=2.0)).problem
        assert reconciled.f(np.zeros(reconciled.n)) == pytest.approx(
            2.0, abs=1e-12)


    def test_assembly_forms_no_dense_n_by_n_array(self):
        # Q, A_g, A_G and A_H are assembled as CSR; A_h, under half zero,
        # is the one dense block, s x n
        tracemalloc.start()
        try:
            inst = assemble_instance(IocParams(n_div=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        p = inst.problem
        assert peak < p.n * p.n * 8
        assert [scipy.sparse.issparse(getattr(p, name)) for name in (
            "Q", "A_g", "A_h", "A_G", "A_H")] == [True, True, False, True,
                                                  True]

    # n_div = 6 is the smallest mesh where summing the stiffness in scipy's
    # duplicate order, not element order, changes its bits
    @pytest.mark.parametrize("n_div", [1, 2, 3, 6, 8])
    @pytest.mark.parametrize("w_a", [0.0, -0.05])
    def test_equals_the_per_element_loops_bit_for_bit(self, n_div, w_a):
        params = IocParams(n_div=n_div, w_a=w_a)
        inst = assemble_instance(params)
        ref = _reference_instance(params)
        got = {name: getattr(inst.problem, name) for name in (
            "Q", "q", "A_g", "b_g", "A_h", "b_h", "A_G", "b_G", "A_H", "b_H")}
        got.update({name: getattr(inst.mesh, name) for name in (
            "vertices", "triangles", "interior", "areas")})
        assert got.keys() == ref.keys()
        for name, value in ref.items():
            if name in ("Q", "A_g", "A_h", "A_G", "A_H"):
                # stored as the operator of the CSR of the reference block,
                # so a dense block holds 0.0 where the reference holds -0.0
                value = as_operator(scipy.sparse.csr_array(value))
                assert scipy.sparse.issparse(got[name]) == \
                    scipy.sparse.issparse(value), name
            # signed zeros included
            for mine, theirs in zip(_arrays(got[name]), _arrays(value)):
                assert mine.dtype == theirs.dtype, name
                assert mine.shape == theirs.shape, name
                assert mine.tobytes() == theirs.tobytes(), name


class TestReferencePoint:
    def test_shape_and_zeroness(self):
        z = reference_point()
        assert z.x.shape == (305,)
        assert np.all(z.x == 0.0)
        for name in ("lam", "eta", "mu", "nu"):
            assert np.all(getattr(z, name) == 0.0)

    def test_feasibility_at_reference(self):
        p = assemble_instance().problem
        z = reference_point()
        assert np.max(p.g(z.x)) <= 0.0
        assert np.max(np.abs(p.h(z.x))) == 0.0
        assert float(p.G(z.x) @ p.H(z.x)) == 0.0

    def test_rejects_shifted_bound(self):
        with pytest.raises(ValueError):
            reference_point(IocParams(w_a=-0.05))


class TestInstanceIo:
    def test_roundtrip_with_sidecar(self, tmp_path):
        params = IocParams(n_div=2, w_a=-0.05)
        inst = assemble_instance(params)
        path = tmp_path / "ioc.json"
        write_instance(inst, path)
        loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.Q, inst.problem.Q)
        np.testing.assert_array_equal(loaded.A_h, inst.problem.A_h)
        assert loaded.coordinate_selection
        assert read_params_sidecar(path) == params

    def test_sidecar_with_a_bad_value_is_rejected(self, tmp_path):
        path = tmp_path / "ioc.json"
        write_instance(assemble_instance(IocParams(n_div=1)), path)
        (tmp_path / "ioc.json.meta.json").write_text('{"alpha": 0}')
        with pytest.raises(ValueError, match=r"IocParams\.alpha"):
            read_params_sidecar(path)


class TestIocParams:
    @pytest.mark.parametrize("name, value", [
        ("n_div", 0), ("n_div", 2.5), ("n_div", True), ("n_div", "8"),
        ("alpha", 0.0), ("alpha", -1.0), ("alpha", np.inf), ("alpha", np.nan),
        ("u_a", np.nan), ("w_a", np.nan), ("w_a", -np.inf), ("zeta", np.inf),
        ("u_obs", "1"), ("y_d", None), ("y_d", False),
    ])
    def test_bad_value_is_rejected_naming_its_field(self, name, value):
        with pytest.raises(ValueError, match=rf"IocParams\.{name} must be"):
            IocParams(**{name: value})

    def test_values_at_the_edge_of_their_range_are_accepted(self):
        IocParams(n_div=1, alpha=1e-300, u_a=-1e300, w_a=0, zeta=0)
