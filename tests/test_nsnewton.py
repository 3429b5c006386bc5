"""Nonsmooth Newton method: residual, derivatives, merit, and iteration."""

import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import structural_rank

from helpers_tiny import point_in_D, random_tiny_mpcc
from mpcckit.compgeo import singleton_columns
from mpcckit.cli import make_start
from mpcckit.core import (MultiplierSet, QuadraticMpcc, classify_stationarity,
                          eval_lagrangian)
from mpcckit.iocfem import IocParams, assemble_instance
from mpcckit.nsnewton import (
    FullPoint,
    NewtonConfig,
    _Armijo,
    _FactorSlot,
    _affine,
    _evaluate,
    _factor,
    _fb_residual,
    _kkt,
    _kkt_times,
    _merit_gradient,
    _rows,
    _screen,
    _selection,
    _signs,
    _solve,
    _stacked,
    merit_phi_fb,
    ncp_fb,
    newton_derivative_DF,
    phi,
    residual_F,
    solve_newton,
    theta,
)
from mpcckit.oracle import finite_diff


def _newton_step(problem, ext, rhs, pivot_tol):
    """The solution d of [K; I]_ext d = rhs, or None where the step is not
    well defined, for the rows ext of [K; I] (see _factor)."""
    return _solve(_factor(problem, ext, pivot_tol), rhs)


def _toy_problem():
    """min (x1-1)^2 + x2^2 over one complementarity pair."""
    return QuadraticMpcc.build(Q=2 * np.eye(2), q=[-2.0, 0.0], c0=1.0,
                               A_G=[[1.0, 0.0]], b_G=[0.0],
                               A_H=[[0.0, 1.0]], b_H=[0.0],
                               coordinate_selection=True)


def _toy_solution():
    # S-stationary point: x = (1, 0) with all multipliers zero
    return FullPoint(x=[1.0, 0.0], lam=[], eta=[], mu=[0.0], nu=[0.0])


class TestFullPoint:
    def test_from_vector_splits_the_blocks(self):
        z = FullPoint.from_vector(_toy_problem(), [1.0, 2.0, 3.0, 4.0])
        assert [b.tolist() for b in (z.x, z.lam, z.eta, z.mu, z.nu)] == \
            [[1.0, 2.0], [], [], [3.0], [4.0]]

    @pytest.mark.parametrize("v", [np.zeros((1, 4)), np.zeros(5)],
                             ids=["two-dimensional", "wrong-length"])
    def test_from_vector_rejects_a_malformed_vector(self, v):
        with pytest.raises(ValueError, match=r"n \+ r \+ s \+ 2t"):
            FullPoint.from_vector(_toy_problem(), v)


class TestNcpFunctions:
    def test_fb_at_origin(self):
        assert ncp_fb(0.0, 0.0) == 0.0

    def test_fb_formula(self):
        assert ncp_fb(3.0, 4.0) == -2.0


class TestPhi:
    def test_zero_on_first_branch(self):
        vals, rows = phi(1.0, 0.0, 0.0, 5.0)
        np.testing.assert_array_equal(vals, [0.0, 0.0])
        assert rows.shape == (2, 4)

    def test_positive_biactive_multipliers(self):
        vals, _ = phi(0.0, 0.0, 1.0, 1.0)
        assert vals[0] == 1.0

    def test_zero_on_negative_multiplier_branch(self):
        vals, _ = phi(0.0, 0.0, -1.0, -2.0)
        np.testing.assert_array_equal(vals, [0.0, 0.0])

    def test_zero_on_second_branch(self):
        vals, _ = phi(0.0, 5.0, 3.0, 0.0)
        np.testing.assert_array_equal(vals, [0.0, 0.0])

    def test_rows_are_signed_unit_vectors(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            p = rng.normal(size=4)
            _, rows = phi(*p)
            for row in rows:
                nz = np.flatnonzero(row)
                assert nz.size == 1
                assert abs(row[nz[0]]) == 1.0

    def test_zero_exactly_on_m_set_grid(self):
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        for a in grid:
            for b in grid:
                for mu in grid:
                    for nu in grid:
                        in_m = ((a >= 0 and b == 0 and mu == 0)
                                or (a == 0 and b >= 0 and nu == 0)
                                or (a == 0 and b == 0 and mu <= 0 and nu <= 0))
                        vals, _ = phi(a, b, mu, nu)
                        assert (np.linalg.norm(vals) == 0.0) == in_m, \
                            (a, b, mu, nu)

    def test_positive_just_off_the_m_set(self):
        offsets = 1e-3
        for pt in ([offsets, 0.0, offsets, 0.0],   # a>0 with mu != 0
                   [0.0, 0.0, offsets, offsets],   # forbidden quadrant
                   [-offsets, 0.0, 0.0, 0.0],      # infeasible a
                   [0.0, offsets, offsets, offsets]):
            vals, _ = phi(*pt)
            assert np.linalg.norm(vals) > 0.0


def _sgn1(v):
    # derivative selection for |t|: sign with sign(0) := +1
    return 1.0 if v >= 0.0 else -1.0


def _first_nan(pairs):
    """The first (value, row) whose value is NaN, or None."""
    return next((pair for pair in pairs if pair[0] != pair[0]), None)


def _pick_max(pairs):
    """(value, row) of the first argument attaining the maximum, written
    order; a NaN attains it, as in np.argmax."""
    top = max(v for v, _ in pairs)
    return _first_nan(pairs) or next(pair for pair in pairs if pair[0] == top)


def _pick_min(pairs):
    """(value, row) of the smallest attaining index of the minimum; a NaN
    attains it, as in np.argmin."""
    low = min(v for v, _ in pairs)
    return _first_nan(pairs) or next(pair for pair in pairs if pair[0] == low)


def _reference_phi(a, b, mu, nu):
    """Scalar phi, one pair at a time: the specification of the pair kernel."""
    psi1 = _pick_max([(-a, (-1.0, 0.0, 0.0, 0.0)),
                      (abs(b), (0.0, _sgn1(b), 0.0, 0.0)),
                      (abs(mu), (0.0, 0.0, _sgn1(mu), 0.0))])
    psi2 = _pick_max([(-b, (0.0, -1.0, 0.0, 0.0)),
                      (abs(a), (_sgn1(a), 0.0, 0.0, 0.0)),
                      (abs(nu), (0.0, 0.0, 0.0, _sgn1(nu)))])
    psi3 = _pick_max([(abs(a), (_sgn1(a), 0.0, 0.0, 0.0)),
                      (abs(b), (0.0, _sgn1(b), 0.0, 0.0)),
                      (mu, (0.0, 0.0, 1.0, 0.0)),
                      (nu, (0.0, 0.0, 0.0, 1.0))])
    phi1, row1 = _pick_min([psi1, psi2, psi3])
    axis = int(np.argmax(np.abs(row1)))
    if axis == 0:
        phi2, row2 = _pick_min([(abs(b), (0.0, _sgn1(b), 0.0, 0.0)),
                                (abs(nu), (0.0, 0.0, 0.0, _sgn1(nu)))])
    elif axis == 1:
        phi2, row2 = _pick_min([(abs(a), (_sgn1(a), 0.0, 0.0, 0.0)),
                                (abs(mu), (0.0, 0.0, _sgn1(mu), 0.0))])
    elif axis == 2:
        phi2, row2 = abs(b), (0.0, _sgn1(b), 0.0, 0.0)
    else:
        phi2, row2 = abs(a), (_sgn1(a), 0.0, 0.0, 0.0)
    return np.array([phi1, phi2]), np.array([row1, row2])


class TestPairKernel:
    """The pair rows that _rows selects, with their signs from _signs, and
    phi, against the scalar reference, bit for bit."""

    def _assert_matches_reference(self, pts):
        # one problem with a pair per point, n = 1: pair i's rows select
        # from a, b, mu and nu, the entries 1 + i (+ t) of w or of v
        t = len(pts)
        p = QuadraticMpcc(Q=np.eye(1), q=np.zeros(1), A_G=np.zeros((t, 1)),
                          b_G=np.zeros(t), A_H=np.zeros((t, 1)),
                          b_H=np.zeros(t))
        size = 1 + 2 * t
        w, v = np.zeros(size), np.zeros(size)
        w[1:], v[1:] = pts[:, :2].T.ravel(), pts[:, 2:].T.ravel()
        S = _stacked(w, v)
        sel = _rows(_kkt(p).layout, S)
        vals = S.take(sel[1:]).reshape(t, 2)
        # a row of pair i selects the row ext = 1 + i + t (axis % 2) +
        # size (axis >= 2) of [K; I], for its axis, an index into
        # (a, b, mu, nu)
        ext = (sel[1:] % (2 * size)).reshape(t, 2)
        of_v = ext >= size
        axis = 2 * of_v + (ext - 1 - size * of_v) // t
        rows = np.zeros((t, 2, 4))
        rows[np.arange(t)[:, None], (0, 1), axis] = \
            _signs(S, sel)[1:].reshape(t, 2)
        for i, pt in enumerate(pts):
            ref_vals, ref_rows = _reference_phi(*pt)
            # tobytes: -0.0 and 0.0 count as different
            assert vals[i].tobytes() == ref_vals.tobytes(), pt
            assert rows[i].tobytes() == ref_rows.tobytes(), pt
            one_vals, one_rows = phi(*pt)
            assert one_vals.tobytes() == ref_vals.tobytes(), pt
            assert one_rows.tobytes() == ref_rows.tobytes(), pt

    def test_grid_with_signed_zeros(self):
        grid = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]
        self._assert_matches_reference(
            np.array(list(itertools.product(grid, repeat=4))))

    def test_grid_with_signed_zeros_and_nan(self):
        # a NaN attains every max and min, as in np.argmax and np.argmin,
        # and its sign is -1, as NaN >= 0 fails
        grid = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.nan]
        self._assert_matches_reference(
            np.array(list(itertools.product(grid, repeat=4))))

    def test_random_points_with_forced_magnitude_ties(self):
        rng = np.random.default_rng(59)
        pts = rng.normal(size=(1000, 4))
        # each coordinate keeps its draw, or takes +-m for a shared magnitude
        # m of its point, or a signed zero
        shared = rng.normal(size=(1000, 1))
        choice = rng.integers(0, 3, size=(1000, 4))
        signs = rng.choice([-1.0, 1.0], size=(1000, 4))
        pts = np.where(choice == 1, signs * shared, pts)
        pts = np.where(choice == 2, signs * 0.0, pts)
        self._assert_matches_reference(pts)


class TestTheta:
    def test_zero_on_first_branch(self):
        np.testing.assert_array_equal(theta(1.0, 0.0, 0.0, 5.0), np.zeros(4))

    def test_sign_case_of_fourth_component(self):
        np.testing.assert_array_equal(theta(0.0, 0.0, -1.0, -2.0), np.zeros(4))

    def test_first_component_is_fb_magnitude(self):
        assert theta(3.0, 4.0, 0.0, 0.0)[0] == 2.0

    def test_fourth_component_in_forbidden_quadrant(self):
        out = theta(0.0, 0.0, 2.0, 2.0)
        np.testing.assert_allclose(out[3], 2.0 * np.sqrt(2.0) - 4.0,
                                   rtol=0, atol=1e-15)

    def test_signed_zeros_count_as_zero(self):
        for args in [(-0.0, -0.0, -0.0, -0.0), (-0.0, 1.0, 2.0, -0.0),
                     (1.0, -0.0, -0.0, 3.0)]:
            assert theta(*args).tobytes() == np.zeros(4).tobytes(), args

    def test_zero_set_matches_phi_on_grid(self):
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        for a in grid:
            for b in grid:
                for mu in grid:
                    for nu in grid:
                        phi_zero = np.linalg.norm(phi(a, b, mu, nu)[0]) == 0.0
                        theta_zero = np.linalg.norm(theta(a, b, mu, nu)) == 0.0
                        assert phi_zero == theta_zero, (a, b, mu, nu)


class TestResidualF:
    def test_zero_at_toy_solution(self):
        F = residual_F(_toy_problem(), _toy_solution())
        assert np.max(np.abs(F)) <= 1e-14

    def test_zero_at_zero_data(self):
        p = QuadraticMpcc.build(n=2, A_G=[[1.0, 0.0]], b_G=[0.0],
                                A_H=[[0.0, 1.0]], b_H=[0.0],
                                coordinate_selection=True)
        F = residual_F(p, FullPoint.zeros(p))
        np.testing.assert_array_equal(F, np.zeros(4))

    def test_forbidden_quadrant_perturbation_is_visible(self):
        p = QuadraticMpcc.build(Q=2 * np.eye(2), q=[0.0, 0.0],
                                A_G=[[1.0, 0.0]], b_G=[0.0],
                                A_H=[[0.0, 1.0]], b_H=[0.0],
                                coordinate_selection=True)
        z = FullPoint(x=[0.0, 0.0], lam=[], eta=[], mu=[0.0], nu=[0.0])
        assert np.max(np.abs(residual_F(p, z))) <= 1e-15
        z_bad = FullPoint(x=[0.0, 0.0], lam=[], eta=[],
                          mu=[0.1], nu=[-0.1])
        assert np.linalg.norm(residual_F(p, z_bad)) > 0.0

    def test_matches_lagrangian_and_constraint_blocks(self):
        rng = np.random.default_rng(51)
        p = random_tiny_mpcc(rng)
        z = FullPoint(x=rng.normal(size=p.n), lam=rng.normal(size=p.r),
                      eta=rng.normal(size=p.s), mu=rng.normal(size=p.t),
                      nu=rng.normal(size=p.t))
        F = residual_F(p, z)
        from mpcckit.core import eval_lagrangian
        _, grad_l, _ = eval_lagrangian(p, z.x, z.multipliers())
        np.testing.assert_allclose(F[:p.n], grad_l, atol=1e-12)
        np.testing.assert_allclose(
            F[p.n:p.n + p.r], np.minimum(-p.g(z.x), z.lam), atol=1e-12)
        np.testing.assert_allclose(
            F[p.n + p.r:p.n + p.r + p.s], p.h(z.x), atol=1e-12)


class TestNewtonDerivative:
    def test_equality_rows_match_finite_differences(self):
        rng = np.random.default_rng(52)
        p = random_tiny_mpcc(rng)
        while p.s == 0:
            p = random_tiny_mpcc(rng)
        z = FullPoint(x=rng.normal(size=p.n), lam=rng.normal(size=p.r),
                      eta=rng.normal(size=p.s), mu=rng.normal(size=p.t),
                      nu=rng.normal(size=p.t))
        DF = newton_derivative_DF(p, z)
        rows = slice(p.n + p.r, p.n + p.r + p.s)
        jac = finite_diff(lambda v: p.h(v[:p.n]), z.to_vector())
        np.testing.assert_allclose(DF[rows], jac, rtol=0, atol=1e-8)

    def test_min_rows_select_active_side_exactly(self):
        p = QuadraticMpcc.build(Q=np.eye(2), q=np.zeros(2),
                                A_g=[[1.0, 0.0], [0.0, 1.0]],
                                b_g=[0.0, 0.0])
        # row 0: -g_0 = 1 < lam_0 = 5 selects the -g' row;
        # row 1: -g_1 = 3 > lam_1 = 2 selects the lambda unit row
        z = FullPoint(x=[-1.0, -3.0], lam=[5.0, 2.0], eta=[], mu=[], nu=[])
        DF = newton_derivative_DF(p, z)
        np.testing.assert_array_equal(DF[2], [-1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(DF[3], [0.0, 0.0, 0.0, 1.0])

    def test_whole_matrix_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 5:
            p = random_tiny_mpcc(rng)
            v = rng.normal(size=p.n + p.r + p.s + 2 * p.t)
            # keep away from the residual's kink surfaces
            a, b = p.pair_partition().values(v[:p.n])
            mu = v[-2 * p.t:-p.t] if p.t else np.zeros(0)
            nu = v[-p.t:] if p.t else np.zeros(0)
            margins = np.concatenate([
                np.abs(np.abs(a) - np.abs(b)), np.abs(a), np.abs(b),
                np.abs(mu), np.abs(nu), np.abs(np.abs(mu) - np.abs(nu)),
                np.abs(-p.g(v[:p.n]) - v[p.n:p.n + p.r])])
            if margins.size and np.min(margins) < 1e-3:
                continue
            DF = newton_derivative_DF(p, v)
            jac = finite_diff(lambda w: residual_F(p, w), v, h=1e-7)
            np.testing.assert_allclose(DF, jac, rtol=1e-5, atol=1e-5)
            checked += 1

    def test_exact_linearization_near_solution(self):
        p = _toy_problem()
        z_bar = _toy_solution().to_vector()
        assert np.max(np.abs(residual_F(p, z_bar))) <= 1e-14
        rng = np.random.default_rng(54)
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        for delta in (1e-3, 1e-5, 1e-7):
            z = z_bar + delta * u
            lhs = (residual_F(p, z) - residual_F(p, z_bar)
                   - newton_derivative_DF(p, z) @ (z - z_bar))
            assert np.max(np.abs(lhs)) <= 1e-12 * delta + 1e-15


class TestMeritPhiFB:
    def test_zero_value_and_gradient_at_solution(self):
        value, grad = merit_phi_fb(_toy_problem(), _toy_solution())
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            p = random_tiny_mpcc(rng)
            v = rng.normal(size=p.n + p.r + p.s + 2 * p.t)
            _, grad = merit_phi_fb(p, v)
            num = finite_diff(lambda w: merit_phi_fb(p, w)[0], v)
            denom = max(1.0, float(np.linalg.norm(num)))
            assert np.linalg.norm(grad - num) / denom <= 1e-5

    def test_zero_sets_of_both_residuals_coincide(self):
        p = _toy_problem()
        pts = [_toy_solution().to_vector(),
               np.array([1.0, 0.0, 0.1, 0.0]),
               np.array([0.0, 0.0, 0.3, -0.2]),
               np.array([0.5, 0.0, 0.0, 0.0])]
        for v in pts:
            f_zero = np.linalg.norm(residual_F(p, v)) <= 1e-12
            value, _ = merit_phi_fb(p, v)
            fb_zero = np.sqrt(2.0 * value) <= 1e-12
            assert f_zero == fb_zero


def _reference_template(p, total_rows):
    """Constant rows shared by the dense DF and the dense merit Jacobian."""
    n, r, s, t = p.n, p.r, p.s, p.t
    out = np.zeros((total_rows, n + r + s + 2 * t))
    out[:n, :n] = p.Q
    out[:n, n:n + r] = p.A_g.T
    out[:n, n + r:n + r + s] = p.A_h.T
    out[:n, n + r + s:n + r + s + t] = p.A_G.T
    out[:n, n + r + s + t:] = p.A_H.T
    out[n + r:n + r + s, :n] = p.A_h
    return out


def _reference_df(p, v):
    """DF written block by block into the dense template."""
    n, r, s, t = p.n, p.r, p.s, p.t
    z = FullPoint.from_vector(p, v)
    df = _reference_template(p, n + r + s + 2 * t)
    # min(-g_i, lam_i): smallest attaining index wins ties
    g_side = -p.g(z.x) <= z.lam
    df[n + np.flatnonzero(g_side), :n] = -p.A_g[g_side]
    lam_side = n + np.flatnonzero(~g_side)
    df[lam_side, lam_side] = 1.0
    a, b = p.G(z.x), p.H(z.x)
    base = n + r + s
    for i in range(t):
        _, rows = _reference_phi(a[i], b[i], z.mu[i], z.nu[i])
        for k in range(2):
            df[base + 2 * i + k, :n] = (rows[k, 0] * p.A_G[i]
                                        + rows[k, 1] * p.A_H[i])
            df[base + 2 * i + k, base + i] = rows[k, 2]
            df[base + 2 * i + k, base + t + i] = rows[k, 3]
    return df


def _reference_kkt(p):
    """K = [[Q, A'], [A, 0]] as a dense array, from the problem's blocks."""
    rows = np.vstack([p.dense_rows(name) for name in ("A_g", "A_h", "A_G",
                                                      "A_H")])
    K = np.zeros((p.n + len(rows),) * 2)
    K[:p.n, :p.n] = p.dense_rows("Q")
    K[:p.n, p.n:] = rows.T
    K[p.n:, :p.n] = rows
    return K


def _reference_fb_partials(u, v):
    rn = np.hypot(u, v)
    safe = np.where(rn > 0.0, rn, 1.0)
    return (np.where(rn > 0.0, u / safe - 1.0, -1.0),
            np.where(rn > 0.0, v / safe - 1.0, -1.0))


def _reference_fb_residual(p, v):
    z = FullPoint.from_vector(p, v)
    _, grad_l, _ = eval_lagrangian(p, z.x, z.multipliers())
    a, b = p.G(z.x), p.H(z.x)
    pairs = [theta(a[i], b[i], z.mu[i], z.nu[i]) for i in range(p.t)]
    return np.concatenate([grad_l, ncp_fb(-p.g(z.x), z.lam), p.h(z.x),
                           *pairs])


def _reference_fb_jacobian(p, v):
    """The dense Jacobian of F_FB, written into the dense template."""
    n, r, s, t = p.n, p.r, p.s, p.t
    z = FullPoint.from_vector(p, v)
    jac = _reference_template(p, n + r + s + 4 * t)
    x, lam, mu, nu = z.x, z.lam, z.mu, z.nu
    if r:
        du, dv = _reference_fb_partials(-p.g(x), lam)
        jac[n:n + r, :n] = -du[:, None] * p.A_g
        jac[np.arange(n, n + r), np.arange(n, n + r)] = dv
    a, b = p.G(x), p.H(x)
    base = n + r + s
    pair = np.arange(t)
    mu_col, nu_col = base + pair, base + t + pair
    r1, r2, r3, r4 = (jac[base + k:base + 4 * t:4] for k in range(4))
    d1a, d1b = _reference_fb_partials(a, b)
    r1[:, :n] = d1a[:, None] * p.A_G + d1b[:, None] * p.A_H
    r1[:, :n] *= np.sign(ncp_fb(a, b))[:, None]  # |t| in the merit: 0 at 0
    d2u, d2v = _reference_fb_partials(np.abs(a), np.abs(mu))
    r2[:, :n] = (d2u * np.sign(a))[:, None] * p.A_G
    r2[pair, mu_col] = d2v * np.sign(mu)
    d3u, d3v = _reference_fb_partials(np.abs(b), np.abs(nu))
    r3[:, :n] = (d3u * np.sign(b))[:, None] * p.A_H
    r3[pair, nu_col] = d3v * np.sign(nu)
    d4u, d4v = _reference_fb_partials(np.abs(mu), np.abs(nu))
    both_nonpositive = (mu <= 0.0) & (nu <= 0.0)
    r4[pair, mu_col] = np.where(both_nonpositive, 0.0, d4u * np.sign(mu))
    r4[pair, nu_col] = np.where(both_nonpositive, 0.0, d4v * np.sign(nu))
    return jac


def _kink_point(p, rng):
    """A point on the kinks of F and F_FB: zero pair values, zero or
    nonpositive multipliers, -g = lambda ties and signed zeros, mixed per
    pair and per row."""
    n, r, s, t = p.n, p.r, p.s, p.t
    x = np.where(rng.random(n) < 0.7, point_in_D(p, rng), rng.normal(size=n))
    zero = rng.choice([0.0, -0.0], size=(2, t))
    mu, nu = np.where(rng.random((2, t)) < 0.3, rng.normal(size=(2, t)), zero)
    nonpositive = rng.random(t) < 0.3
    mu = np.where(nonpositive, -np.abs(mu), mu)
    nu = np.where(nonpositive, -np.abs(nu), nu)
    lam = np.where(rng.random(r) < 0.7, -p.g(x),
                   rng.choice([0.0, -0.0, 1.0], size=r))
    eta = np.where(rng.random(s) < 0.5, -0.0, rng.normal(size=s))
    return np.concatenate([x, lam, eta, mu, nu])


def _reference_points():
    """(problem, v) pairs: random points and kink points on tiny problems."""
    rng = np.random.default_rng(60)
    for k in range(60):
        p = random_tiny_mpcc(rng)
        dim = p.n + p.r + p.s + 2 * p.t
        yield p, rng.normal(size=dim) if k % 3 == 0 else _kink_point(p, rng)


@pytest.fixture
def no_lu(monkeypatch):
    """Fail the test if the Newton step factors a block, through scipy's
    lu_factor or LAPACK's dgetrf."""
    def lu(*args, **kwargs):
        raise AssertionError("LU factorization called")
    monkeypatch.setattr(scipy.linalg, "lu_factor", lu)
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", lu)


class TestAgainstDenseAssembly:
    """DF and the merit gradient against the dense Jacobian assembly, at
    random points and at kinks, where finite differences cannot check the
    selection rules."""

    def test_kink_points_sit_on_the_kinks(self):
        biactive = ties = 0
        for p, v in _reference_points():
            z = FullPoint.from_vector(p, v)
            a, b = p.pair_partition().values(z.x)
            biactive += np.count_nonzero((a == 0.0) & (b == 0.0))
            ties += np.count_nonzero(-p.g(z.x) == z.lam)
        assert biactive >= 20 and ties >= 20

    def test_derivative_equals_dense_assembly(self):
        for p, v in _reference_points():
            np.testing.assert_array_equal(newton_derivative_DF(p, v),
                                          _reference_df(p, v))

    def test_derivative_is_plus_zero_off_the_selected_entries(self):
        # rows of sign -1 must not turn their zeros into -0.0, as a dense
        # row times its sign would
        negative = 0
        for p, v in _reference_points():
            S, sel, ext = _selection(p, v)
            df = newton_derivative_DF(p, v)
            off = _kkt(p).KI[ext].toarray() == 0.0
            assert not np.signbit(df[off]).any()
            negative += np.count_nonzero(_signs(S, sel) < 0.0)
        assert negative >= 30

    def test_pivot_scale_is_largest_row_norm(self):
        # with the data shrunk, every row of K has norm below 1, so the
        # largest row of DF is a unit row
        unit_largest = 0
        for p, v in _reference_points():
            small = replace(p, **{
                name: 1e-3 * getattr(p, name)
                for name in ("Q", "A_g", "A_h", "A_G", "A_H")})
            for q in (p, small):
                ext = _selection(q, v)[2]
                # the scale by which _factor measures its pivots
                scale = _kkt(q).norms.take(ext).max()
                ref = np.abs(_reference_df(q, v)).sum(axis=1).max()
                assert scale == ref
                unit_largest += ref == 1.0
        assert unit_largest >= 30

    def test_reduced_step_solves_the_full_system(self):
        solved = 0
        for p, v in _reference_points():
            df = newton_derivative_DF(p, v)
            if np.linalg.cond(df) >= 1e8:
                continue
            rhs = -residual_F(p, v)
            # DF d = -F is [K; I]_ext d = sign (-F), as F = sign (w, v)_ext
            S, sel, ext = _selection(p, v)
            step = _newton_step(p, ext, _signs(S, sel) * rhs, 1e-12)
            ref = np.linalg.solve(df, rhs)
            assert step is not None
            assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)
            solved += 1
        assert solved >= 30

    def test_row_count_rejects_only_structurally_singular_df(self, no_lu):
        # the count fires where the kept rows of A outnumber the free x
        # columns; DF is then singular by its pattern alone, and the step is
        # rejected without an LU
        fired = 0
        for p, v in _reference_points():
            ext = _selection(p, v)[2]
            df = newton_derivative_DF(p, v)
            col = singleton_columns(df)
            fixed = col >= 0
            cols = col[fixed]
            if np.unique(cols).size < cols.size:
                continue  # rejected earlier, by the singleton columns
            if np.count_nonzero(ext[~fixed] >= p.n) <= \
                    p.n - np.count_nonzero(cols < p.n):
                continue
            assert structural_rank(csr_matrix(df)) < len(v)
            assert _newton_step(p, ext, np.ones(len(v)), 1e-12) is None
            fired += 1
        assert fired >= 10

    def test_kkt_product_on_dense_blocks_keeps_its_bits(self):
        # tiny blocks stay dense, so K[:n] is bound as the array itself and
        # K y has the bits of the full-row product K[:n].dot(y)
        for p, v in _reference_points():
            kkt, x = _kkt(p), v[:p.n]
            assert all(isinstance(op, np.ndarray) for op in kkt.ops)
            # the blocks of A without rows make no product
            assert len(kkt.ops) == 1 + sum(
                getattr(p, name).shape[0] > 0
                for name in ("A_g", "A_h", "A_G", "A_H"))
            top = _reference_kkt(p)[:p.n]
            ref = np.concatenate((top.dot(v), p.A_g.dot(x), p.A_h.dot(x),
                                  p.A_G.dot(x), p.A_H.dot(x)))
            assert _kkt_times(p, v).tobytes() == ref.tobytes()

    def test_kkt_product_through_sparse_top_rows(self):
        p = assemble_instance(IocParams()).problem
        kkt = _kkt(p)
        assert scipy.sparse.issparse(kkt.ops[0])
        K = _reference_kkt(p)
        y = np.random.default_rng(61).normal(size=len(K))
        ref = K @ y
        assert np.linalg.norm(_kkt_times(p, y) - ref) <= \
            1e-12 * np.linalg.norm(ref)
        # the rows of A go through the operators of problem.g(x) and the
        # others, so w keeps their bits and a tie -g_i = lambda_i is one tie
        x = y[:p.n]
        rows = np.concatenate((p.g(x), p.h(x), p.G(x), p.H(x)))
        assert _affine(p, y)[p.n:].tobytes() == rows.tobytes()

    def test_kkt_csr_equals_dense_reference(self):
        # [K; I] entry for entry, no explicit zeros, each row's columns in
        # order; its row 1-norms have the bits of the dense rows' sums
        problems = [p for p, _ in _reference_points()]
        for p in problems + [assemble_instance(IocParams()).problem]:
            kkt = _kkt(p)
            K = _reference_kkt(p)
            ref = np.vstack((K, np.eye(len(K))))
            assert kkt.KI.format == "csr" and kkt.KI.has_sorted_indices
            assert kkt.KI.nnz == np.count_nonzero(ref)
            np.testing.assert_array_equal(kkt.KI.toarray(), ref)
            assert kkt.norms.tobytes() == np.abs(ref).sum(axis=1).tobytes()

    def test_kkt_build_peaks_below_dense_top_rows(self):
        # [K; I] is built from the bound CSR blocks; the dense K[:n] alone
        # would take n * N * 8 bytes, 30 MB at n_div = 16
        p = assemble_instance(IocParams(n_div=16)).problem
        tracemalloc.start()
        try:
            _kkt(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.n * (p.n + p.r + p.s + 2 * p.t) * 8

    def test_stacked_fb_residual_equals_reference(self):
        # the reference sums grad_x L in another order than K v + k, so its
        # first n rows may differ in the last bits; those rows are w_x
        for p, v in _reference_points():
            w = _affine(p, v)
            res = _fb_residual(_kkt(p).layout, w, v)[0]
            ref = _reference_fb_residual(p, v)
            # bit for bit, signed zeros included
            assert res[p.n:].tobytes() == ref[p.n:].tobytes()
            assert res[:p.n].tobytes() == w[:p.n].tobytes()
            np.testing.assert_allclose(res[:p.n], ref[:p.n], rtol=1e-12,
                                       atol=1e-12)
            value, _ = merit_phi_fb(p, v)
            assert value == 0.5 * res @ res

    def test_one_fb_pass_per_evaluation_and_gradient(self, monkeypatch):
        import mpcckit.nsnewton as nsn
        calls = {"ncp_fb": 0, "_fb_partials": 0}
        for name in calls:
            def counted(*args, _f=getattr(nsn, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(nsn, name, counted)
        p, v = next(_reference_points())
        point = _evaluate(p, v)
        assert calls == {"ncp_fb": 1, "_fb_partials": 0}
        _merit_gradient(p, point)
        assert calls == {"ncp_fb": 1, "_fb_partials": 1}

    def test_merit_gradient_equals_transposed_jacobian_product(self):
        for p, v in _reference_points():
            res = _reference_fb_residual(p, v)
            ref = _reference_fb_jacobian(p, v).T @ res
            value, grad = merit_phi_fb(p, v)
            assert value == pytest.approx(0.5 * res @ res, rel=1e-12)
            assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref)


class TestSingularStep:
    """Where DF is singular to within pivot_tol, the reduced step is None."""

    @staticmethod
    def _assert_no_step(p, v):
        v = np.asarray(v, dtype=float)
        pivot_tol = NewtonConfig().pivot_tol
        assert np.linalg.cond(newton_derivative_DF(p, v)) > 1.0 / pivot_tol
        assert _newton_step(p, _selection(p, v)[2], np.ones(len(v)),
                            pivot_tol) is None

    def test_two_singleton_rows_on_one_column(self):
        # row 0 of K is e_lam (Q's row 0 is zero), and -g = 1 > lam = 0
        # selects the unit row e_lam: both rows fix the step's lam
        p = QuadraticMpcc.build(Q=[[0.0, 0.0], [0.0, 1.0]], q=np.zeros(2),
                                A_g=[[1.0, 0.0]], b_g=[0.0])
        v = np.array([-1.0, 0.0, 0.0])
        ext = _selection(p, v)[2]
        assert ext[2] == len(v) + 2
        self._assert_no_step(p, v)

    def test_singleton_value_below_pivot_tolerance(self):
        # every row is a singleton; row 0's value is 1e-20
        p = QuadraticMpcc.build(Q=np.diag([1e-20, 1.0]), q=np.zeros(2))
        self._assert_no_step(p, [0.0, 0.0])

    def test_reduced_block_pivot_below_pivot_tolerance(self):
        # no singleton rows; the block is Q, whose second pivot is 1e-14
        p = QuadraticMpcc.build(Q=[[1.0, 1.0], [1.0, 1.0 + 1e-14]],
                                q=np.zeros(2))
        self._assert_no_step(p, [0.0, 0.0])

    def test_more_kept_rows_of_a_than_free_x_columns(self, no_lu):
        # the pair's G and H rows select x1 and x2, which leaves x3 as the
        # only free x column for the two dense rows of A_h
        p = QuadraticMpcc.build(Q=np.eye(3), q=np.zeros(3),
                                A_h=[[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]],
                                b_h=[0.0, 0.0], A_G=[[1.0, 0.0, 0.0]],
                                b_G=[0.0], A_H=[[0.0, 1.0, 0.0]], b_H=[0.0])
        v = np.array([-2.0, -2.0, 0.0, 0.0, 0.0, -2.0, -2.0])
        ext = _selection(p, v)[2]
        assert list(ext[5:]) == [5, 6]
        assert structural_rank(csr_matrix(newton_derivative_DF(p, v))) < 7
        self._assert_no_step(p, v)


def _dense_df(p, ext):
    """The rows ext of [K; I], from the dense K."""
    K = _reference_kkt(p)
    return np.vstack((K, np.eye(len(K))))[ext]


def _description(p, src, unit):
    """The rows ext of [K; I] chosen by hand: row i is row src_i of K, or
    the unit row e_{src_i} where unit_i."""
    src, unit = np.asarray(src), np.asarray(unit, dtype=bool)
    return src + src.size * unit


def _column_peel_problem(eps):
    """Q whose rows 0, 1, 2 with the unit row e_0 leave, once column 0 is
    fixed, three rows with two or more entries each, and column 3 with
    one entry, eps in row 1; rows 0 and 2 then form a 2 x 2 core."""
    Q = [[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 2.0, eps],
         [1.0, 2.0, 3.0, 0.0], [0.0, eps, 0.0, 1.0]]
    p = QuadraticMpcc.build(Q=Q, q=np.zeros(4))
    return p, _description(p, [0, 1, 2, 0], [False, False, False, True])


def _check_cold_start_steps(monkeypatch, n_div):
    """Assert that seed 1's cold start at n_div converges with its first and
    last steps solved and the eight between them rejected, and that each
    solved step matches np.linalg.solve on the dense DF to 1e-9 relative."""
    p = assemble_instance(IocParams(n_div=n_div)).problem
    steps = []

    def spy(slot, ext, rhs, _step=_FactorSlot.step):
        step = _step(slot, ext, rhs)
        steps.append((ext, rhs, step))
        return step
    monkeypatch.setattr(_FactorSlot, "step", spy)
    x0, m0 = make_start(p, 1)
    assert solve_newton(p, z0=FullPoint.from_parts(x0, m0)).status == \
        "converged"
    assert [step is None for *_, step in steps] == [False] + [True] * 8 \
        + [False]
    for ext, rhs, step in steps:
        if step is None:
            continue
        df = _dense_df(p, ext)
        assert np.linalg.cond(df) < 1e8
        ref = np.linalg.solve(df, rhs)
        assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)


class TestPeel:
    """The forward peel, the column peel and the core, on rows chosen by
    hand."""

    def test_non_finite_step_is_no_step(self):
        # both rows are singletons, so the step is rhs / (0.5, 1); a
        # quotient that overflows, or a NaN right-hand side, gives no step
        p = QuadraticMpcc.build(Q=np.diag([0.5, 1.0]), q=np.zeros(2))
        factor = _factor(p, _description(p, [0, 1], [False, False]), 1e-12)
        assert _solve(factor, np.array([1.0, 2.0])).tolist() == [2.0, 2.0]
        for rhs in ([1e308, 1.0], [1.0, np.nan]):
            with np.errstate(all="ignore"):
                assert _solve(factor, np.array(rhs)) is None

    def test_no_lu_fixture_trips_on_a_core(self, no_lu):
        # no row or column of Q has a single entry, so the core is all of it
        p = QuadraticMpcc.build(Q=[[1.0, 1.0], [1.0, 2.0]], q=np.zeros(2))
        with pytest.raises(AssertionError, match="LU factorization"):
            _newton_step(p, _description(p, [0, 1], [False, False]),
                         np.ones(2), 1e-12)

    def test_complete_forward_peel_makes_no_lu(self, no_lu):
        # row 0 has one entry, on column 2; once it is known, row 1 has one,
        # on column 1, and then row 2, on column 0: three rounds
        p = QuadraticMpcc.build(Q=[[0.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                                   [1.0, 1.0, 1.0]], q=np.zeros(3))
        ext = _description(p, [0, 1, 2], [False] * 3)
        rhs = np.array([1.0, -2.0, 3.0])
        step = _newton_step(p, ext, rhs, 1e-12)
        np.testing.assert_allclose(
            step, np.linalg.solve(_dense_df(p, ext), rhs), rtol=1e-14)

    def test_two_rows_peel_onto_one_column_in_a_later_round(self, no_lu):
        # once the unit rows have fixed x1 and x3, the rows of A_h[0] and
        # A_g, (0, 1, 1, 1) and (0, 0, 1, 1), both have their one live entry
        # on x2; the rest would leave one more column than rows
        p = QuadraticMpcc.build(Q=[[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                                   [0.0] * 4, [0.0] * 4], q=np.zeros(4),
                                A_g=[[0.0, 0.0, 1.0, 1.0]], b_g=[0.0],
                                A_h=[[0.0, 1.0, 1.0, 1.0], [1.0] * 4],
                                b_h=[0.0, 0.0])
        ext = _description(p, [1, 2, 1, 3, 3, 5, 4],
                           [False, False, True, False, True, False, False])
        assert structural_rank(csr_matrix(_dense_df(p, ext))) < 7
        assert _newton_step(p, ext, np.ones(7), 1e-12) is None

    def test_value_below_pivot_tolerance_in_a_later_round(self, no_lu):
        # once e_3 has fixed the multiplier column, row 1 of K has its one
        # live entry, 1e-20, on column 0
        p = QuadraticMpcc.build(Q=[[1.0, 1e-20, 1.0], [1e-20, 0.0, 0.0],
                                   [1.0, 0.0, 2.0]], q=np.zeros(3),
                                A_g=[[0.0, 1.0, 0.0]], b_g=[0.0])
        ext = _description(p, [0, 1, 2, 3], [False, False, False, True])
        pivot_tol = NewtonConfig().pivot_tol
        assert np.linalg.cond(_dense_df(p, ext)) > 1.0 / pivot_tol
        assert _newton_step(p, ext, np.ones(4), pivot_tol) is None

    def test_two_columns_peel_onto_one_row(self, no_lu):
        # once e_4 and e_5 have fixed the multiplier columns, no row has one
        # live entry, and columns 2 and 3 each have theirs in row 0
        p = QuadraticMpcc.build(Q=[[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 0.0, 0.0],
                                   [1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]],
                                q=np.zeros(4), A_h=[[1.0, 1.0, 0.0, 0.0],
                                                    [1.0, 2.0, 0.0, 0.0]],
                                b_h=[0.0, 0.0])
        ext = _description(p, [0, 1, 4, 5, 4, 5],
                           [False, False, False, False, True, True])
        assert structural_rank(csr_matrix(_dense_df(p, ext))) < 6
        assert _newton_step(p, ext, np.ones(6), 1e-12) is None

    def test_column_peel_and_back_substitution(self, monkeypatch):
        cores = []
        dgetrf = scipy.linalg.lapack.dgetrf

        def spy(a, **kwargs):
            cores.append(a.shape)
            return dgetrf(a, **kwargs)
        monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", spy)
        p, ext = _column_peel_problem(0.5)
        rhs = np.array([1.0, -2.0, 3.0, 0.5])
        step = _newton_step(p, ext, rhs, 1e-12)
        np.testing.assert_allclose(
            step, np.linalg.solve(_dense_df(p, ext), rhs), rtol=1e-12)
        assert cores == [(2, 2)]

    def test_column_singleton_below_pivot_tolerance(self, no_lu):
        p, ext = _column_peel_problem(1e-20)
        pivot_tol = NewtonConfig().pivot_tol
        assert np.linalg.cond(_dense_df(p, ext)) > 1.0 / pivot_tol
        assert _newton_step(p, ext, np.ones(4), pivot_tol) is None

    def test_row_emptied_by_peeling(self, no_lu):
        # the unit rows fix columns 0 and 1, which hold every entry of row 0
        # of Q; that row is then empty, while rows 2 and 3 cover columns 2,
        # 3 and 4 twice each, so no column check could see it
        p = QuadraticMpcc.build(Q=[[1.0, 1.0, 0.0, 0.0, 0.0],
                                   [1.0, 1.0, 1.0, 1.0, 1.0],
                                   [0.0, 1.0, 2.0, 1.0, 1.0],
                                   [0.0, 1.0, 1.0, 3.0, 1.0],
                                   [0.0, 1.0, 1.0, 1.0, 4.0]], q=np.zeros(5))
        ext = _description(p, [0, 1, 0, 2, 3], [True, True, False, False,
                                                False])
        assert structural_rank(csr_matrix(_dense_df(p, ext))) < 5
        assert _newton_step(p, ext, np.ones(5), 1e-12) is None

    def test_column_left_empty(self, no_lu):
        # rows 0 and 1 of Q and the row of A_h have entries on columns 0 and
        # 1 alone once the unit row e_3 has fixed column 3: column 2 is empty
        p = QuadraticMpcc.build(Q=[[1.0, 1.0, 0.0], [1.0, 2.0, 0.0],
                                   [0.0, 0.0, 1.0]], q=np.zeros(3),
                                A_h=[[2.0, 1.0, 0.0]], b_h=[0.0])
        ext = _description(p, [0, 1, 3, 3], [False, False, False, True])
        assert structural_rank(csr_matrix(_dense_df(p, ext))) < 4
        assert _newton_step(p, ext, np.ones(4), 1e-12) is None

    def test_steps_of_a_cold_start_solve_the_full_system(self, monkeypatch):
        # criterion 1's first start at n_div = 8
        _check_cold_start_steps(monkeypatch, 8)

    def test_steps_of_a_refined_cold_start_solve_the_full_system(
            self, monkeypatch):
        # the first start at n_div = 12 (DF 1682 x 1682), whose peel has
        # rows of the rank-one block of A_h to move and drop
        _check_cold_start_steps(monkeypatch, 12)

    def test_row_taken_twice_is_rejected(self, no_lu):
        # once e_1 has fixed column 1, both copies of row 1 of Q, (0, 1, 1),
        # have their one live entry on column 2
        p = QuadraticMpcc.build(Q=[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0],
                                   [0.0, 1.0, 2.0]], q=np.zeros(3))
        ext = _description(p, [1, 1, 1], [True, False, False])
        assert _newton_step(p, ext, np.ones(3), 1e-12) is None

    def test_row_taken_twice_into_the_core_is_rejected(self):
        # no row or column has a single entry, so both copies of row 1 of
        # Q reach the core, whose LU meets an exact zero pivot
        p = QuadraticMpcc.build(Q=[[2.0, 1.0, 0.0], [1.0, 2.0, 1.0],
                                   [0.0, 1.0, 2.0]], q=np.zeros(3))
        ext = _description(p, [0, 1, 1], [False] * 3)
        assert _newton_step(p, ext, np.ones(3), 1e-12) is None

    def test_factorizations_of_a_cold_start_peak_below_16_mb(
            self, monkeypatch):
        # the first start at n_div = 16 (DF 3010 x 3010), each factorization
        # traced on its own: 13.4 MB, reached while the first forward round
        # holds the live rows' CSR, its moved block and its slice on the
        # live columns, under the 16 MB that ioc-newton's allocator margin
        # allows. What a factorization keeps, its blocks and LU, held at
        # most 8.0 MB
        p, z0 = _cold_start_n_div_16()
        _kkt(p)
        peaks, kept = [], []

        def traced(problem, ext, pivot_tol, _factor=_factor):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            factor = _factor(problem, ext, pivot_tol)
            now, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - before)
            kept.append(now - before)
            return factor
        monkeypatch.setattr("mpcckit.nsnewton._factor", traced)
        tracemalloc.start()
        try:
            solve_newton(p, z0=z0)
        finally:
            tracemalloc.stop()
        assert len(peaks) >= 5
        assert max(peaks) < 16e6
        assert max(kept) < 9e6


def _tiny_start(count):
    """The count-th instance of criterion 4's stream with its start."""
    rng = np.random.default_rng(4001)
    for _ in range(count):
        p = random_tiny_mpcc(rng)
        x0 = rng.normal(size=p.n)
    return p, FullPoint.from_parts(x0, MultiplierSet.zeros(p))


def _stalled_tiny_start():
    """The 18th instance of criterion 4's stream with its start: Newton runs
    to max_iters through full, damped and gradient steps, while its rows
    change only a few times."""
    return _tiny_start(18)


def _rounding_tiny_start():
    """The 25th instance of criterion 4's stream with its start: Newton takes
    gradient steps whose Armijo tests, down to alpha = 2^-32, are decided by
    the last bits of the trial merits, towards a stationary point of
    Phi_FB with merit 0.055, and exits "stationary_merit" at iteration 457."""
    return _tiny_start(25)


def _cold_start_n_div_8():
    """Criterion 1's first start at n_div = 8."""
    p = assemble_instance(IocParams()).problem
    return p, FullPoint.from_parts(*make_start(p, 1))


def _cold_start_n_div_16():
    """Criterion 1's first start at n_div = 16 (DF 3010 x 3010)."""
    p = assemble_instance(IocParams(n_div=16)).problem
    return p, FullPoint.from_parts(*make_start(p, 1))


def _same_solve(a, b):
    """Assert that two NewtonResults agree bit for bit."""
    assert a.z.to_vector().tobytes() == b.z.to_vector().tobytes()
    for name in ("status", "iterations", "full_steps", "damped_steps",
                 "gradient_steps", "final_residual", "final_merit"):
        assert getattr(a, name) == getattr(b, name)
    for field in ("step_type", "alpha", "residual", "merit"):
        assert [getattr(row, field) for row in a.trace.rows] == \
            [getattr(row, field) for row in b.trace.rows]


def _factor_calls(monkeypatch):
    """The rows ext of each _factor call that solve_newton makes."""
    calls = []

    def spy(problem, ext, pivot_tol, _factor=_factor):
        calls.append(ext)
        return _factor(problem, ext, pivot_tol)
    monkeypatch.setattr("mpcckit.nsnewton._factor", spy)
    return calls


class TestFactorReuse:
    """A factorization serves every step that selects the same rows."""

    @pytest.mark.parametrize("start", [_stalled_tiny_start,
                                       _cold_start_n_div_8])
    def test_solve_is_unchanged_when_every_step_factors(self, monkeypatch,
                                                        start):
        p, z0 = start()
        calls = _factor_calls(monkeypatch)
        kept = solve_newton(p, z0=z0)
        reused = len(calls) < kept.iterations
        calls.clear()

        def miss(slot, ext, rhs, _step=_FactorSlot.step):
            slot.ext = None
            return _step(slot, ext, rhs)
        monkeypatch.setattr(_FactorSlot, "step", miss)
        fresh = solve_newton(p, z0=z0)
        assert len(calls) == fresh.iterations
        if start is _stalled_tiny_start:
            assert kept.status == "max_iters" and reused
            assert kept.damped_steps > 0 and kept.gradient_steps > 0
        _same_solve(kept, fresh)

    def test_one_factorization_per_change_of_rows(self, monkeypatch):
        p, z0 = _stalled_tiny_start()
        calls = _factor_calls(monkeypatch)
        exts = []

        def spy(slot, ext, rhs, _step=_FactorSlot.step):
            exts.append(ext)
            return _step(slot, ext, rhs)
        monkeypatch.setattr(_FactorSlot, "step", spy)
        res = solve_newton(p, z0=z0)
        assert len(exts) == res.iterations == 1000
        changes = [k for k, ext in enumerate(exts)
                   if k == 0 or not np.array_equal(ext, exts[k - 1])]
        assert 1 < len(changes) <= 10
        assert len(calls) == len(changes)
        for ext, k in zip(calls, changes):
            np.testing.assert_array_equal(ext, exts[k])


def _entries(block):
    """The entries (row, column, value) of a CSR block, row by row, read
    from its data, indices and indptr alone."""
    rows = np.arange(block.indptr.size - 1).repeat(np.diff(block.indptr))
    return rows, block.indices, block.data


def _bincount_solve(factor, rhs):
    """_solve with each block's entries expanded and summed one by one by
    np.bincount, in the order the block stores them."""
    res = rhs.copy()
    size = res.size
    step = None
    for peel, col_at, value, moved in factor.forward:
        new = np.zeros(size)
        new[col_at] = res[peel] / value
        if step is None:
            step = new
        else:
            step += new
        row, col, val = _entries(moved)
        res -= np.bincount(row, val * new[col], size)
    if factor.lu is not None:
        step[factor.core_cols] = scipy.linalg.lapack.dgetrs(
            factor.lu, factor.piv, res[factor.core_rows])[0]
    for peel, col_at, value, mine in reversed(factor.back):
        row, col, val = _entries(mine)
        dot = np.bincount(row, val * step[col], peel.size)
        step[col_at] = (res[peel] - dot) / value
    return step


class TestBlockProducts:
    """_solve applies each round's CSR block by one sparse product, with the
    bits of summing the block's entries one by one."""

    @pytest.mark.parametrize("start", [_stalled_tiny_start,
                                       _cold_start_n_div_8,
                                       _cold_start_n_div_16])
    def test_solve_equals_entrywise_sums(self, monkeypatch, start):
        p, z0 = start()
        solved = []

        def spy(factor, rhs, _solve=_solve):
            step = _solve(factor, rhs)
            if factor is not None:
                ref = _bincount_solve(factor, rhs)
                if step is None:
                    assert not np.isfinite(ref).all()
                else:
                    assert step.tobytes() == ref.tobytes()
                solved.append((len(factor.forward), len(factor.back),
                               factor.lu is not None))
            return step
        monkeypatch.setattr("mpcckit.nsnewton._solve", spy)
        solve_newton(p, z0=z0)
        # every factorization has column rounds and a core, and criterion
        # 1's starts move entries in forward rounds after round 0
        assert solved and all(back and lu for _, back, lu in solved)
        assert start is _stalled_tiny_start or \
            max(forward for forward, *_ in solved) > 1


def _reference_merit_gradient(p, point):
    """_merit_gradient with the FB terms' layout written out by hand as
    slices of the terms (r g-terms, then t each of FB(a, b), FB(|a|, |mu|),
    FB(|b|, |nu|) and theta_4)."""
    v, w, res, _, S, terms = point
    n, r, s, t = p.n, p.r, p.s, p.t
    base = n + r + s
    d = np.stack(_reference_fb_partials(*S.take(_kkt(p).layout.args)))
    d_terms = d * terms
    y_w = res[:w.size].copy()
    y_v = np.zeros_like(v)
    y_w[n:n + r] = -d[0, :r] * terms[:r]
    y_v[n:n + r] = d_terms[1, :r]
    y_w[base:] = d_terms[:, r:r + t].ravel() + \
        d[0, r + t:r + 3 * t] * np.sign(w[base:]) * terms[r + t:r + 3 * t]
    y_v[base:] = np.sign(v[base:]) * (d_terms[1, r + t:r + 3 * t]
                                      + d_terms[:, r + 3 * t:].ravel())
    return _kkt_times(p, y_w) + y_v


class TestMeritGradientLayout:
    """The merit gradient as the transpose of _fb_residual's gather keeps
    the bits of the hand-sliced gradient."""

    def test_equals_hand_slices_at_reference_points(self):
        rng = np.random.default_rng(63)
        for p, v in _reference_points():
            # and again with 40 % of the entries set to signed zeros
            zeros = rng.choice([0.0, -0.0], size=v.size)
            for u in (v, np.where(rng.random(v.size) < 0.4, zeros, v)):
                point = _evaluate(p, u)
                assert _merit_gradient(p, point).tobytes() == \
                    _reference_merit_gradient(p, point).tobytes()

    @pytest.mark.parametrize("start", [_stalled_tiny_start,
                                       _rounding_tiny_start,
                                       _cold_start_n_div_8])
    def test_equals_hand_slices_along_a_solve(self, monkeypatch, start):
        compared = []

        def spy(problem, point, _gradient=_merit_gradient):
            grad = _gradient(problem, point)
            assert grad.tobytes() == \
                _reference_merit_gradient(problem, point).tobytes()
            compared.append(point)
            return grad
        monkeypatch.setattr("mpcckit.nsnewton._merit_gradient", spy)
        p, z0 = start()
        res = solve_newton(p, z0=z0)
        assert len(compared) >= res.iterations > 0


def _sequential(monkeypatch):
    """Make the screen rule out no length, so that the search evaluates
    every length in order, which is the sequential backtracking rule."""
    monkeypatch.setattr("mpcckit.nsnewton._screen",
                        lambda *args: np.full(args[-1].size, -np.inf))


def _searches(monkeypatch):
    """(point, d, slope, alpha, trial) of each search that solve_newton
    makes."""
    calls = []

    def spy(self, point, d, slope, _search=_Armijo.search):
        alpha, trial = _search(self, point, d, slope)
        calls.append((point, d, slope, alpha, trial))
        return alpha, trial
    monkeypatch.setattr(_Armijo, "search", spy)
    return calls


class TestScreenedSearch:
    """The Armijo search evaluates only the lengths its screen cannot rule
    out, and takes the step of the sequential search."""

    @pytest.mark.parametrize("start", [_stalled_tiny_start,
                                       _rounding_tiny_start,
                                       _cold_start_n_div_8])
    def test_solve_is_unchanged_when_every_length_is_evaluated(
            self, monkeypatch, start):
        p, z0 = start()
        screened = solve_newton(p, z0=z0)
        _sequential(monkeypatch)
        sequential = solve_newton(p, z0=z0)
        assert screened.damped_steps + screened.gradient_steps > 0
        _same_solve(screened, sequential)

    def test_screen_bounds_the_exact_merit(self):
        rng = np.random.default_rng(63)
        cfg = NewtonConfig()
        ioc, z0 = _cold_start_n_div_8()
        for p, v in itertools.chain(_reference_points(),
                                    [(ioc, z0.to_vector())]):
            point = _evaluate(p, v)
            grad = _merit_gradient(p, point)
            alphas = _Armijo(p, cfg).alphas
            # the search's kd is a product; a difference of two evaluated w
            # rounds more, and the margin covers it too
            step = rng.normal(size=v.size) * np.abs(v).max()
            for d, kd in ((-grad, _kkt_times(p, -grad)),
                          (step, _kkt_times(p, step)),
                          (step, _evaluate(p, v + step)[1] - point[1])):
                low = _screen(p, v, point[1], d, kd, alphas)
                exact = np.array([_evaluate(p, v + alpha * d)[3]
                                  for alpha in alphas])
                assert np.all(low <= exact)
                # and close enough to rule lengths out
                assert np.all(exact - low <= 1e-10 * exact)

    def test_no_warning_where_the_sequential_search_raises_none(self):
        p, v = next(_reference_points())
        point = _evaluate(p, v)
        armijo = _Armijo(p, NewtonConfig())
        d = np.full(v.size, 1e308)
        with np.errstate(all="ignore"):
            kd = _kkt_times(p, d)  # overflows, as the search's own product
        assert not np.all(np.isfinite(kd))
        d_grad = -_merit_gradient(p, point)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = _screen(p, v, point[1], d, kd, armijo.alphas)
            # an infinite merit and slope make every Armijo bound NaN, which
            # the first trial passes, as in the sequential loop
            alpha, trial = armijo.search((*point[:3], np.inf, *point[4:]),
                                         d_grad, -np.inf)
        # inf and NaN rule out no length
        assert not np.any(low > -np.inf)
        assert alpha == 1.0
        assert trial[0].tobytes() == (v + d_grad).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_accepted_step_passes_the_exact_test(self, monkeypatch,
                                                       seed):
        rng = np.random.default_rng(seed)
        import mpcckit.nsnewton as nsn

        def perturbed(*args, _screen=nsn._screen):
            low = _screen(*args)
            low *= rng.uniform(0.0, 2.0, low.size)
            low[rng.random(low.size) < 0.2] = np.inf
            low[rng.random(low.size) < 0.2] = -np.inf
            return low
        monkeypatch.setattr(nsn, "_screen", perturbed)
        calls = _searches(monkeypatch)
        p, z0 = _stalled_tiny_start()
        cfg = NewtonConfig(max_iters=300)
        solve_newton(p, cfg, z0=z0)
        accepted = 0
        for (v, _, _, merit, _, _), d, slope, alpha, trial in calls:
            if trial is None:
                assert alpha == cfg.armijo_beta ** (cfg.max_backtracks + 1)
                continue
            exact = _evaluate(p, v + alpha * d)
            assert not exact[3] > merit + cfg.armijo_sigma * alpha * slope
            assert trial[3] == exact[3]
            for i in (0, 1, 2, 4, 5):
                assert trial[i].tobytes() == exact[i].tobytes()
            accepted += 1
        assert accepted > 0

    def test_a_screen_that_rules_out_every_length_takes_no_step(
            self, monkeypatch):
        monkeypatch.setattr("mpcckit.nsnewton._screen",
                            lambda *args: np.full(args[-1].size, np.inf))
        calls = _searches(monkeypatch)
        p, z0 = _stalled_tiny_start()
        cfg = NewtonConfig()
        res = solve_newton(p, cfg, z0=z0)
        assert res.status == "line_search_failure"
        assert res.trace.rows[-1].alpha == \
            cfg.armijo_beta ** (cfg.max_backtracks + 1)
        (v, _, _, merit, _, _), _, _, _, trial = calls[-1]
        assert len(calls) == 1 and trial is None
        assert res.z.to_vector().tobytes() == v.tobytes()
        assert res.final_merit == merit

    @pytest.mark.parametrize("max_backtracks", [0, 1, 2, 3])
    def test_max_backtracks_keeps_its_meaning(self, monkeypatch,
                                              max_backtracks):
        p, z0 = _stalled_tiny_start()
        cfg = NewtonConfig(max_backtracks=max_backtracks)
        res = solve_newton(p, cfg, z0=z0)
        assert res.status == "line_search_failure"
        last = res.trace.rows[-1]
        assert last.alpha == cfg.armijo_beta ** (max_backtracks + 1)
        assert last.k == res.iterations
        assert all(row.alpha >= cfg.armijo_beta ** max_backtracks
                   for row in res.trace.rows[:-1])
        # no step is taken: the point is the iterate the failed search
        # started from
        before = solve_newton(p, replace(cfg, max_iters=res.iterations),
                              z0=z0)
        assert before.status == "max_iters"
        assert res.z.to_vector().tobytes() == \
            before.z.to_vector().tobytes()
        assert res.final_merit == last.merit
        _sequential(monkeypatch)
        _same_solve(res, solve_newton(p, cfg, z0=z0))

    def test_about_one_evaluation_per_search(self, monkeypatch):
        import mpcckit.nsnewton as nsn
        calls = dict.fromkeys(("_evaluate", "_screen", "ncp_fb"), 0)
        for name in calls:
            def counted(*args, _f=getattr(nsn, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(nsn, name, counted)
        p, z0 = _stalled_tiny_start()
        res = solve_newton(p, z0=z0)
        assert res.status == "max_iters" and res.iterations == 1000
        searches = res.damped_steps + res.gradient_steps
        # every length fits one stacked pass at this size
        assert calls["_screen"] == searches
        assert calls["ncp_fb"] == calls["_evaluate"] + calls["_screen"]
        # a full trial for most steps and one evaluation per search; the
        # sequential search makes about 10 per iteration
        assert calls["_evaluate"] <= 2.5 * res.iterations
        screened = calls["_evaluate"]
        calls["_evaluate"] = 0
        _sequential(monkeypatch)
        solve_newton(p, z0=z0)
        assert calls["_evaluate"] >= 4 * screened


class TestStationaryMeritExit:
    """Newton exits "stationary_merit" where |grad Phi_FB| <= merit_grad_tol
    |F_FB|: near a stationary point of the merit with F_FB nonzero, which
    no descent step on the merit leaves."""

    def test_rounding_stall_exits_at_iteration_457(self):
        p, z0 = _rounding_tiny_start()
        res = solve_newton(p, z0=z0)
        assert res.status == "stationary_merit" and res.iterations == 457
        assert len(res.trace.rows) == 457
        # the exit takes no step: the run is the first 457 iterations of the
        # run that never exits there
        cfg = NewtonConfig(merit_grad_tol=0.0)
        full = solve_newton(p, cfg, z0=z0)
        assert full.status == "max_iters" and full.iterations == 1000

        def fields(rows):  # repr tells -0.0 from 0.0
            return [repr((row.k, row.objective, row.residual, row.merit,
                          row.step_type, row.alpha)) for row in rows]
        assert fields(res.trace.rows) == fields(full.trace.rows[:457])
        capped = solve_newton(p, replace(cfg, max_iters=457), z0=z0)
        assert capped.status == "max_iters"
        assert res.z.to_vector().tobytes() == capped.z.to_vector().tobytes()
        assert res.final_merit == capped.final_merit
        assert res.final_residual == capped.final_residual
        # the tolerance is relative to |F_FB|, and the exit's point is no
        # zero of F
        point = _evaluate(p, res.z.to_vector())
        assert np.linalg.norm(_merit_gradient(p, point)) <= \
            1e-5 * np.linalg.norm(point[2])
        assert res.final_merit > 0.05


class TestSolveNewton:
    def test_stationary_merit_exit(self):
        # with an infinite tolerance on |grad Phi_FB| / |F_FB| the first
        # test stops the run at its start, before any step or trace row
        z0 = np.array([5.0, -3.0, 2.0, 7.0])
        res = solve_newton(_toy_problem(), NewtonConfig(merit_grad_tol=np.inf),
                           z0=z0)
        assert res.status == "stationary_merit"
        assert res.iterations == 0 and res.trace.rows == []
        assert res.z.to_vector().tolist() == z0.tolist()
        assert res.final_residual > NewtonConfig().tau_nsn

    def test_wrong_start_length_rejected(self):
        p = _toy_problem()
        # the last has length 4, but its blocks are not (n, r, s, t, t)
        wrong = [np.zeros(5), FullPoint(x=[1.0, 0.0], lam=[0.0], eta=[],
                                        mu=[0.0], nu=[0.0]),
                 FullPoint(x=[0.0, 0.0, 5.0], lam=[], eta=[], mu=[0.0],
                           nu=[])]
        for z0 in wrong:
            with pytest.raises(ValueError, match=r"n \+ r \+ s \+ 2t = 4"):
                solve_newton(p, z0=z0)
        for z0 in ([0.0, np.nan, 0.0, 0.0], FullPoint(
                x=[1.0, 0.0], lam=[], eta=[], mu=[np.inf], nu=[0.0])):
            with pytest.raises(ValueError, match="NaN or infinite"):
                solve_newton(p, z0=z0)

    def test_a_problem_without_unknowns_converges_at_once(self):
        p = QuadraticMpcc(n=0)
        res = solve_newton(p)
        assert res.status == "converged" and res.iterations == 0
        assert res.z.to_vector().shape == (0,)
        assert res.final_residual == res.final_merit == 0.0
        empty = np.zeros(0)
        assert residual_F(p, empty).shape == (0,)
        assert newton_derivative_DF(p, empty).shape == (0, 0)
        value, grad = merit_phi_fb(p, empty)
        assert value == 0.0 and grad.shape == (0,)

    def test_the_solver_forms_no_row_signs(self, monkeypatch):
        # the step solves [K; I]_ext d = -(w, v)_ext, in which the signs of
        # F and DF cancel, so only residual_F, newton_derivative_DF and phi
        # form them
        import mpcckit.nsnewton as nsn
        calls = []

        def spy(*args, _signs=_signs):
            calls.append(args)
            return _signs(*args)
        monkeypatch.setattr(nsn, "_signs", spy)
        p, z0 = _stalled_tiny_start()
        res = solve_newton(p, z0=z0)
        assert res.iterations == 1000 and res.damped_steps > 0
        assert calls == []
        residual_F(p, z0)
        assert len(calls) == 1

    def test_zero_iterations_at_solution(self):
        res = solve_newton(_toy_problem(), z0=_toy_solution())
        assert res.status == "converged"
        assert res.iterations == 0
        assert res.final_residual <= NewtonConfig().tau_nsn

    def test_converges_from_nearby_start(self):
        p = _toy_problem()
        rng = np.random.default_rng(56)
        z0 = _toy_solution().to_vector() + 1e-2 * rng.normal(size=4)
        res = solve_newton(p, z0=z0)
        assert res.status == "converged"
        np.testing.assert_allclose(res.z.x, [1.0, 0.0], atol=1e-9)
        report = classify_stationarity(p, res.z.x, res.z.multipliers(),
                                       tol=1e-8)
        assert report.is_M

    def test_merit_is_nonincreasing_along_trace(self):
        p = _toy_problem()
        rng = np.random.default_rng(57)
        res = solve_newton(p, z0=rng.normal(size=4))
        merits = [row.merit for row in res.trace.rows]
        assert all(b <= a for a, b in zip(merits, merits[1:]))

    def test_step_type_labels_and_counts(self):
        p = _toy_problem()
        rng = np.random.default_rng(58)
        res = solve_newton(p, z0=3 * rng.normal(size=4))
        kinds = [row.step_type for row in res.trace.rows]
        assert set(kinds) <= {"full_newton", "damped_newton", "gradient"}
        assert kinds.count("full_newton") == res.full_steps
        assert kinds.count("damped_newton") == res.damped_steps
        assert kinds.count("gradient") == res.gradient_steps
        assert res.iterations == len(kinds)

    def test_iteration_cap(self):
        p = _toy_problem()
        res = solve_newton(p, NewtonConfig(max_iters=1),
                           z0=np.array([5.0, -3.0, 2.0, 7.0]))
        assert res.status in ("max_iters", "converged")
        if res.status == "max_iters":
            assert res.iterations == 1

    def test_final_merit_is_merit_of_returned_point_after_cap(self):
        # a capped run must not report the merit of the point before its
        # last step
        rng = np.random.default_rng(4001)
        capped = 0
        for _ in range(30):
            p = random_tiny_mpcc(rng)
            x0 = rng.normal(size=p.n)
            res = solve_newton(p, NewtonConfig(max_iters=5),
                               FullPoint.from_parts(x0, MultiplierSet.zeros(p)))
            capped += res.status == "max_iters"
            assert res.final_merit == merit_phi_fb(p, res.z)[0]
        assert capped > 0

    def test_defaults_are_pinned(self):
        cfg = NewtonConfig()
        assert cfg.q_nsn == 0.999
        assert cfg.tau_nsn == 1e-11
        assert cfg.angle_rho == 1e-3
        assert cfg.armijo_sigma == 0.5
        assert cfg.armijo_beta == 0.5
        assert cfg.max_iters == 1000
        assert cfg.max_backtracks == 60
        assert cfg.pivot_tol == 1e-12
        assert cfg.merit_grad_tol == 1e-5  # relative to |F_FB|

    @pytest.mark.parametrize("field, value", [
        ("q_nsn", 1.0), ("q_nsn", np.nan), ("armijo_sigma", 0.0),
        ("armijo_beta", 2.0), ("tau_nsn", -1.0), ("tau_nsn", np.inf),
        ("angle_rho", np.nan), ("pivot_tol", -1e-12),
        ("merit_grad_tol", -1e-5), ("merit_grad_tol", np.nan),
        ("max_iters", -5), ("max_iters", 2.0), ("max_iters", True),
        ("max_backtracks", -1), ("max_backtracks", "60"),
    ])
    def test_bad_value_is_rejected_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"NewtonConfig.{field} must be"):
            NewtonConfig(**{field: value})

    def test_values_at_the_edge_of_their_range_are_accepted(self):
        NewtonConfig(merit_grad_tol=np.inf)
        NewtonConfig(tau_nsn=0.0, angle_rho=0.0, pivot_tol=0.0,
                     merit_grad_tol=0.0, max_iters=0, max_backtracks=0)
        NewtonConfig(max_iters=np.int64(3), q_nsn=np.float64(0.5))
