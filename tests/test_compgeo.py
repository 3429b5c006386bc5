"""Geometry of the complementarity set: projections and cone distances."""

import numpy as np
import pytest

from mpcckit.compgeo import PairPartition, project_onto_C


def _in_C(a, b, tol=0.0):
    return a >= -tol and b >= -tol and abs(a * b) <= tol


def _reference_project_pair(a, b):
    """Scalar nearest point of C2, one pair at a time; ties go to (a, 0)."""
    d_first = min(a, 0.0) ** 2 + b * b
    d_second = a * a + min(b, 0.0) ** 2
    if d_first <= d_second:
        return (max(a, 0.0), 0.0)
    return (0.0, max(b, 0.0))


def _single_pair(off_g=0.0, off_h=0.0, sign_g=1.0, sign_h=1.0):
    return PairPartition(idx_g=[0], idx_h=[1], off_g=[off_g], off_h=[off_h],
                         sign_g=[sign_g], sign_h=[sign_h])


def _trailing_pair(n_free):
    """One plain pair (z_G, z_H) after n_free unconstrained coordinates."""
    return PairPartition(idx_g=[n_free], idx_h=[n_free + 1], off_g=[0.0],
                         off_h=[0.0], sign_g=[1.0], sign_h=[1.0])


def _project_pair(a, b):
    """Nearest point of C2: a one-pair partition with no free coordinates."""
    out = _single_pair().project([a, b])
    return (float(out[0]), float(out[1]))


def _cone_distance(a, b, p, q, tol=1e-6):
    """Distance of (p, q) to the limiting normal cone of C2 at (a, b)."""
    return _single_pair().stationarity(np.array([a, b]), -np.array([p, q]),
                                       tol)


class TestProjectPair:
    def test_negative_orthant_projects_to_origin(self):
        assert _project_pair(-1.0, -2.0) == (0.0, 0.0)

    def test_first_branch(self):
        assert _project_pair(3.0, -1.0) == (3.0, 0.0)

    def test_tie_breaks_toward_first_branch(self):
        assert _project_pair(2.0, 2.0) == (2.0, 0.0)

    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a, b = rng.uniform(-3, 3, size=2)
            pa, pb = _project_pair(a, b)
            assert _in_C(pa, pb)
            assert _project_pair(pa, pb) == (pa, pb)

    def test_beats_both_branch_candidates(self):
        # output is never farther than either closed-form candidate
        rng = np.random.default_rng(1)
        pts = rng.uniform(-5, 5, size=(100_000, 2))
        for a, b in pts[::101]:  # keep the loop cheap, still ~1000 samples
            pa, pb = _project_pair(a, b)
            d = np.hypot(pa - a, pb - b)
            d1 = np.hypot(max(a, 0.0) - a, 0.0 - b)
            d2 = np.hypot(0.0 - a, max(b, 0.0) - b)
            assert d <= min(d1, d2) + 1e-15


class TestProjectOntoC:
    def test_fixed_points_unchanged(self):
        zg, zh = project_onto_C(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(zg, 0.0)
        np.testing.assert_array_equal(zh, 0.0)

    def test_componentwise_example(self):
        zg, zh = project_onto_C([3.0, -1.0], [-1.0, 4.0])
        np.testing.assert_array_equal(zg, [3.0, 0.0])
        np.testing.assert_array_equal(zh, [0.0, 4.0])

    def test_matches_scalar_projection(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-4, 4, size=40)
        b = rng.uniform(-4, 4, size=40)
        pa, pb = project_onto_C(a, b)
        for i in range(a.size):
            assert (pa[i], pb[i]) == _reference_project_pair(a[i], b[i])
            assert _project_pair(a[i], b[i]) == (pa[i], pb[i])

    def test_optimality_against_sampled_feasible_points(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, size=3)
        b = rng.uniform(-2, 2, size=3)
        pa, pb = project_onto_C(a, b)
        base = np.hypot(pa - a, pb - b)
        for _ in range(10_000):
            ya = np.where(rng.random(3) < 0.5, rng.uniform(0, 3, 3), 0.0)
            yb = np.where(ya > 0, 0.0, rng.uniform(0, 3, 3))
            d = np.hypot(ya - a, yb - b)
            assert np.all(base <= d + 1e-12)


class TestProjectOntoD:
    def test_point_in_D_unchanged(self):
        pairs = _single_pair()
        x = np.array([0.0, 5.0, -3.0])
        np.testing.assert_array_equal(pairs.project(x), x)

    def test_single_pair_example(self):
        pairs = _single_pair()
        np.testing.assert_array_equal(pairs.project([-1.0, 5.0]), [0.0, 5.0])

    def test_untouched_coordinate_preserved_exactly(self):
        pairs = _single_pair()
        x = np.array([-1.0, 5.0, 0.123456789])
        out = pairs.project(x)
        assert out[2] == x[2]

    def test_signed_offset_coordinate_change(self):
        # pair values a = -x0 + 1, b = x1 - 2; projecting (a, b) and mapping
        # back must agree with the planar projection
        pairs = _single_pair(off_g=1.0, off_h=-2.0, sign_g=-1.0, sign_h=1.0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(-4, 4, size=2)
            out = pairs.project(x)
            a, b = pairs.values(x)
            pa, pb = _project_pair(float(a[0]), float(b[0]))
            np.testing.assert_allclose(
                out, [-(pa - 1.0), (pb + 2.0)], rtol=0, atol=1e-15)
            oa, ob = pairs.values(out)
            assert _in_C(oa, ob, tol=1e-12)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            PairPartition(idx_g=[0], idx_h=[0], off_g=[0.0], off_h=[0.0],
                          sign_g=[1.0], sign_h=[1.0])

    def test_rejects_non_unit_signs(self):
        with pytest.raises(ValueError):
            PairPartition(idx_g=[0], idx_h=[1], off_g=[0.0], off_h=[0.0],
                          sign_g=[2.0], sign_h=[1.0])

    def test_from_rows_requires_signed_unit_rows(self):
        with pytest.raises(ValueError):
            PairPartition.from_rows(np.array([[1.0, 1.0]]), [0.0],
                                    np.array([[0.0, 1.0]]), [0.0])


class TestNormalConeDistancePair:
    def test_inactive_first_component(self):
        assert _cone_distance(1.0, 0.0, 3.0, -7.0) == 3.0

    def test_biactive_negative_pair_in_cone(self):
        assert _cone_distance(0.0, 0.0, -1.0, -2.0) == 0.0

    def test_biactive_positive_pair(self):
        assert _cone_distance(0.0, 0.0, 1.0, 1.0) == 1.0

    def test_infeasible_pair_rejected(self):
        with pytest.raises(ValueError):
            _cone_distance(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            _cone_distance(-1.0, 0.0, 0.0, 0.0)

    def test_snaps_within_tolerance(self):
        # a within tol of 0 is treated as exactly biactive
        assert _cone_distance(1e-8, 1e-9, -1.0, -2.0) == 0.0

    def test_zero_iff_m_condition_on_grid(self):
        vals = [-1.0, -0.5, 0.0, 0.5, 1.0]
        for p in vals:
            for q in vals:
                d = _cone_distance(0.0, 0.0, p, q)
                in_cone = (p < 0 and q < 0) or p * q == 0
                assert (d == 0.0) == in_cone


class TestStationarityDistance:
    def test_zero_gradient(self):
        assert _trailing_pair(2).stationarity(np.zeros(4), np.zeros(4)) == 0.0

    def test_free_block_norm(self):
        no_pairs = PairPartition([], [], [], [], [], [])
        assert no_pairs.stationarity(np.array([0.5, -2.0]),
                                     np.array([3.0, 4.0])) == 5.0

    def test_biactive_pair_membership(self):
        # one slack pair at the origin; -grad = (-1, -2) lies in the cone
        grad = np.array([0.0, 1.0, 2.0])
        point = np.array([7.0, 0.0, 0.0])
        assert _trailing_pair(1).stationarity(point, grad) == 0.0

    def test_slack_mode_combines_blocks(self):
        # free block contributes 3, inactive pair (a>0) contributes |p|=4
        grad = np.array([3.0, 4.0, 0.0])
        point = np.array([0.0, 2.0, 0.0])
        assert _trailing_pair(1).stationarity(point, grad) == 5.0

    def test_pairs_mode_matches_manual_sum(self):
        pairs = _single_pair(off_g=0.5, sign_h=-1.0)
        point = np.array([-0.5, 0.0, 1.0])  # a = 0, b = 0 exactly
        grad = np.array([-2.0, -1.0, 2.0])
        # p = -grad[0] = 2 (sign +1), q = +grad[1] = 1 (sign -1): distance
        # min(hypot(2,1), 2, 1) = 1; free block adds grad[2] = 2
        d = pairs.stationarity(point, grad)
        np.testing.assert_allclose(d, np.sqrt(1.0 + 4.0), rtol=0, atol=1e-15)

    def test_infeasible_point_rejected(self):
        with pytest.raises(ValueError):
            _trailing_pair(0).stationarity(np.array([1.0, 1.0]), np.zeros(2))
