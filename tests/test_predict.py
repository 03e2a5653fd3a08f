"""Support geometry, membership routes, and closed-form predictions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec import (
    CONJ_TRANSPOSE,
    PSEUDO_INVERSE,
    AlphaOneUnsupported,
    EnsembleParams,
    LambdaZero,
    boundary_points,
    disc_support,
    ellipse_support,
    in_support_via_tau,
    mean_eigenvalue_prediction,
    normalised_radius,
    support_contains,
    tau_lambda_sq,
    zero_in_ellipse,
)

UNIT = EnsembleParams(1.0, 1.0, 0.0)


class TestEllipseSupport:
    def test_uncorrelated_square_is_unit_disc(self):
        e = ellipse_support(UNIT, alpha=1.0)
        assert e.center == 0.0
        assert e.semi_major == pytest.approx(1.0)
        assert e.semi_minor == pytest.approx(1.0)
        assert not e.zero_atom

    def test_full_correlation_degenerates_to_real_segment(self):
        # tau = 1 makes X = Y, so the spectrum is a product of a matrix
        # with itself-star; the segment endpoints (1 -/+ sqrt(alpha))^2
        # are the classic square-singular-value support edges
        e = ellipse_support(EnsembleParams(1.0, 1.0, 1.0), alpha=4.0)
        assert e.center == pytest.approx(5.0)
        assert e.semi_major == pytest.approx(4.0)
        assert e.semi_minor == 0.0
        assert e.center - e.semi_major == pytest.approx(1.0)  # (1-2)^2
        assert e.center + e.semi_major == pytest.approx(9.0)  # (1+2)^2

    def test_scaled_narrow_aspect(self):
        e = ellipse_support(EnsembleParams(2.0, 3.0, 0.5), alpha=0.25)
        assert e.center == pytest.approx(3.75)
        assert e.semi_major == pytest.approx(3.75)
        assert e.semi_minor == pytest.approx(2.25)
        assert e.zero_atom

    def test_axes_ordering_invariant(self):
        for tau in (0.0, 0.3, 0.99, 0.5j, -0.7):
            e = ellipse_support(EnsembleParams(1.0, 1.0, tau), alpha=2.0)
            assert e.semi_major >= e.semi_minor >= 0.0

    def test_rotation_covariance_is_exact(self):
        theta = 1.1
        tau = 0.4 + 0.2j
        base = ellipse_support(EnsembleParams(1.0, 2.0, tau), alpha=0.7)
        rot = ellipse_support(
            EnsembleParams(1.0, 2.0, tau * cmath.exp(1j * theta)), alpha=0.7
        )
        assert abs(rot.center - base.center * cmath.exp(1j * theta)) < 1e-12
        assert rot.semi_major == base.semi_major
        assert rot.semi_minor == base.semi_minor
        assert abs(cmath.exp(1j * (rot.rotation - base.rotation - theta)) - 1) < 1e-12

    def test_scale_covariance_is_exact(self):
        # a power-of-two factor keeps the identity exact in floating point
        c = 2.0
        base = ellipse_support(EnsembleParams(1.2, 0.9, 0.4), alpha=2.0)
        scaled = ellipse_support(EnsembleParams(c * 1.2, 0.9, 0.4), alpha=2.0)
        assert scaled.center == c * base.center
        assert scaled.semi_major == c * base.semi_major
        assert scaled.semi_minor == c * base.semi_minor


class TestDiscSupport:
    def test_uncorrelated_wide_aspect(self):
        d = disc_support(EnsembleParams(2.0, 1.0, 0.0), alpha=2.0)
        assert d.center == 0.0
        assert d.radius == pytest.approx(2.0)
        assert not d.zero_atom

    def test_correlated_wide_aspect(self):
        d = disc_support(EnsembleParams(1.0, 1.0, 0.6), alpha=4.0)
        assert d.center == pytest.approx(0.6)
        assert d.radius == pytest.approx(math.sqrt(0.64 / 3.0), abs=1e-12)

    def test_square_aspect_rejected(self):
        with pytest.raises(AlphaOneUnsupported):
            disc_support(UNIT, alpha=1.0)

    def test_zero_atom_below_square_aspect(self):
        assert disc_support(UNIT, alpha=0.5).zero_atom
        assert not disc_support(UNIT, alpha=2.0).zero_atom

    def test_narrow_and_wide_share_beta(self):
        # beta = max(alpha, 1/alpha) makes alpha and 1/alpha give equal radii
        d_wide = disc_support(UNIT, alpha=4.0)
        d_narrow = disc_support(UNIT, alpha=0.25)
        assert d_wide.radius == d_narrow.radius

    def test_full_correlation_collapses_radius(self):
        d = disc_support(EnsembleParams(1.0, 1.0, 1.0), alpha=2.0)
        assert d.radius == 0.0

    def test_scale_covariance_is_exact(self):
        # power-of-two factor: see the ellipse variant
        c = 4.0
        base = disc_support(EnsembleParams(1.1, 0.8, 0.3), alpha=3.0)
        scaled = disc_support(EnsembleParams(c * 1.1, 0.8, 0.3), alpha=3.0)
        assert scaled.center == c * base.center
        assert scaled.radius == c * base.radius


class TestSupportContains:
    def test_unit_disc_boundary_point_is_inside(self):
        e = ellipse_support(UNIT, alpha=1.0)
        assert support_contains(e, 1.0 + 0.0j)

    def test_disc_excludes_origin_at_wide_aspect(self):
        d = disc_support(EnsembleParams(1.0, 1.0, 0.6), alpha=4.0)
        assert not support_contains(d, 0.0 + 0.0j)

    def test_zero_atom_makes_origin_a_member(self):
        d = disc_support(EnsembleParams(1.0, 1.0, 0.9), alpha=0.5)
        # the disc around 0.9 excludes the origin, the atom includes it
        assert abs(0.0 - d.center) > d.radius
        assert support_contains(d, 0.0 + 0.0j)

    def test_margin_dilates_the_boundary(self):
        d = disc_support(EnsembleParams(2.0, 1.0, 0.0), alpha=2.0)  # radius 2
        assert not support_contains(d, 2.2 + 0.0j)
        assert support_contains(d, 2.2 + 0.0j, margin=0.1)

    def test_rotated_ellipse_membership(self):
        tau = 0.5 * cmath.exp(1j * math.pi / 3.0)
        e = ellipse_support(EnsembleParams(1.0, 1.0, tau), alpha=2.0)
        # walk along the major axis: inside just short of the vertex,
        # outside just past it
        axis = cmath.exp(1j * e.rotation)
        assert support_contains(e, e.center + 0.999 * e.semi_major * axis)
        assert not support_contains(e, e.center + 1.001 * e.semi_major * axis)
        # perpendicular: minor axis bounds
        perp = axis * 1j
        assert support_contains(e, e.center + 0.999 * e.semi_minor * perp)
        assert not support_contains(e, e.center + 1.001 * e.semi_minor * perp)

    def test_degenerate_segment_as_thin_strip(self):
        e = ellipse_support(EnsembleParams(1.0, 1.0, 1.0), alpha=1.0)
        assert e.semi_minor == 0.0
        assert support_contains(e, complex(e.center) + 1e-13j)
        assert not support_contains(e, complex(e.center) + 1e-3j)

    def test_zero_atom_adds_exactly_zero(self):
        d = disc_support(EnsembleParams(1.0, 1.0, 0.8), alpha=0.5)
        assert abs(d.center) > d.radius  # the disc excludes the origin
        assert support_contains(d, 0.0)
        # a tiny non-zero value is classified by the region, not the atom
        assert not support_contains(d, 1e-300)
        got = support_contains(d, np.array([0.0, 1e-300, -1e-300j]))
        assert got.tolist() == [True, False, False]

    def test_vectorized_input(self):
        d = disc_support(EnsembleParams(1.0, 1.0, 0.0), alpha=2.0)
        pts = np.array([0.0, 0.5j, 2.0 + 0.0j])
        got = support_contains(d, pts)
        assert got.tolist() == [True, True, False]

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            support_contains(disc_support(UNIT, alpha=2.0), 0.0, margin=-0.1)


class TestNormalisedRadius:
    def test_boundary_sits_at_one(self):
        tau = 0.4 * cmath.exp(0.9j)
        for support in (
            ellipse_support(EnsembleParams(1.3, 0.7, tau), alpha=3.0),
            disc_support(EnsembleParams(1.3, 0.7, tau), alpha=3.0),
        ):
            r = normalised_radius(support, boundary_points(support, count=64))
            np.testing.assert_allclose(r, 1.0, rtol=1e-12)
            dilated = normalised_radius(support, boundary_points(support, 64), 0.25)
            np.testing.assert_allclose(dilated, 0.8, rtol=1e-12)

    def test_disc_is_the_radial_ratio(self):
        d = disc_support(EnsembleParams(2.0, 1.0, 0.0), alpha=2.0)  # radius 2
        assert normalised_radius(d, 3.0 + 4.0j) == 2.5
        assert normalised_radius(d, 3.0 + 4.0j, margin=0.25) == 2.0

    @pytest.mark.parametrize("k", [-200, -40, 0, 40, 200])
    def test_collapsed_floor_scales_with_the_support(self, k):
        # |tau| = 1: the disc's radius and the ellipse's minor axis are 0,
        # floored at 1e-12 of |center| and of semi_major
        params = EnsembleParams(2.0**k, 1.0, 1.0)
        d = disc_support(params, alpha=2.0)
        assert d.radius == 0.0
        assert normalised_radius(d, d.center * (1.0 + 1e-13j)) == pytest.approx(0.1)
        e = ellipse_support(params, alpha=2.0)
        assert e.semi_minor == 0.0
        off = e.center + 1e-13j * e.semi_major
        assert normalised_radius(e, off) == pytest.approx(0.1)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            normalised_radius(disc_support(UNIT, alpha=2.0), 0.0, margin=-0.1)


class TestZeroInEllipse:
    def test_always_true_below_square_aspect(self):
        for tau in (0.0, 0.5, 0.99, 1.0):
            assert zero_in_ellipse(tau, alpha=0.5)

    def test_boundary_tie_included(self):
        assert zero_in_ellipse(0.5, alpha=4.0)  # |tau|^2 = 1/alpha exactly

    def test_excluded_beyond_threshold(self):
        assert not zero_in_ellipse(0.6, alpha=4.0)

    def test_agrees_with_direct_membership(self):
        # spot grid; the full acceptance grid lives in the acceptance suite
        for mod in np.linspace(0.0, 1.0, 9):
            for alpha in (0.25, 0.5, 2.0, 4.0):
                if abs(mod**2 - 1.0 / alpha) < 1e-12:
                    continue
                tau = mod * cmath.exp(0.4j)
                e = ellipse_support(EnsembleParams(1.0, 1.0, tau), alpha)
                assert zero_in_ellipse(tau, alpha) == support_contains(e, 0.0)


class TestTauLambdaSq:
    def test_full_correlation_is_one_everywhere(self):
        p = EnsembleParams(1.0, 1.0, 1.0)
        for lam in (1.0, -2.0, 0.3 + 0.7j):
            assert tau_lambda_sq(p, lam) == pytest.approx(1.0)

    def test_uncorrelated_at_unit_point(self):
        assert tau_lambda_sq(UNIT, 1.0) == pytest.approx(0.5)

    def test_half_correlated_at_unit_point(self):
        p = EnsembleParams(1.0, 1.0, 0.5)
        assert tau_lambda_sq(p, 1.0) == pytest.approx(0.25)

    def test_zero_lambda_rejected(self):
        with pytest.raises(LambdaZero):
            tau_lambda_sq(UNIT, 0.0)

    @given(
        mod=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 6.28),
        lre=st.floats(-3.0, 3.0),
        lim=st.floats(-3.0, 3.0),
        sx=st.floats(0.2, 2.0),
        sy=st.floats(0.2, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_a_squared_correlation(self, mod, phase, lre, lim, sx, sy):
        lam = complex(lre, lim)
        if abs(lam) < 1e-6:
            return
        tau = mod * cmath.exp(1j * phase)
        val = tau_lambda_sq(EnsembleParams(sx, sy, tau), lam)
        assert 0.0 <= val <= 1.0


class TestInSupportViaTau:
    def test_full_correlation_never_inside(self):
        p = EnsembleParams(1.0, 1.0, 1.0)
        for lam in (1.0, 0.5 + 0.5j, -3.0):
            assert not in_support_via_tau(p, 2.0, lam)

    def test_boundary_point_included(self):
        # uncorrelated, alpha=2: disc has center 0 radius 1; |lam|=1 is a tie
        assert in_support_via_tau(UNIT, 2.0, 1.0 + 0.0j)

    def test_outside_point_excluded(self):
        assert not in_support_via_tau(UNIT, 2.0, 2.0 + 0.0j)

    def test_square_aspect_rejected(self):
        with pytest.raises(AlphaOneUnsupported):
            in_support_via_tau(UNIT, 1.0, 1.0)

    def test_zero_lambda_rejected(self):
        with pytest.raises(LambdaZero):
            in_support_via_tau(UNIT, 2.0, 0.0)

    def test_agrees_with_disc_membership(self):
        # random spot check; the full 1000-draw version lives in the acceptance battery
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            sx, sy = np.exp(rng.uniform(-0.5, 0.5, size=2))
            tau = rng.uniform(0.0, 0.95) * cmath.exp(1j * rng.uniform(0.0, 6.28))
            alpha = rng.uniform(0.2, 3.0)
            if abs(alpha - 1.0) < 1e-2:
                continue
            p = EnsembleParams(sx, sy, tau)
            d = disc_support(p, alpha)
            lam = d.center + d.radius * rng.uniform(0, 1.5) * cmath.exp(
                1j * rng.uniform(0.0, 6.28)
            )
            if abs(lam) < 1e-9:
                continue
            gap = abs(abs(lam - d.center) ** 2 - d.radius**2)
            if gap <= 1e-9 * max(1.0, d.radius**2):
                continue
            checked += 1
            assert in_support_via_tau(p, alpha, lam) == support_contains(d, lam)


class TestMeanEigenvaluePrediction:
    def test_zero_correlation_gives_zero(self):
        assert mean_eigenvalue_prediction(UNIT, 2.0, CONJ_TRANSPOSE) == 0.0
        assert mean_eigenvalue_prediction(UNIT, 2.0, PSEUDO_INVERSE) == 0.0

    def test_conj_transpose_scales_with_alpha(self):
        p = EnsembleParams(1.0, 1.0, 0.5)
        assert mean_eigenvalue_prediction(p, 2.0, CONJ_TRANSPOSE) == pytest.approx(1.0)

    def test_pseudo_inverse_saturates_below_square(self):
        p = EnsembleParams(2.0, 1.0, 0.5)
        assert mean_eigenvalue_prediction(p, 0.5, PSEUDO_INVERSE) == pytest.approx(0.5)

    def test_unknown_product_rejected(self):
        with pytest.raises(ValueError):
            mean_eigenvalue_prediction(UNIT, 2.0, "kronecker")


class TestBoundaryPoints:
    def test_disc_points_lie_on_circle(self):
        d = disc_support(EnsembleParams(2.0, 1.0, 0.0), alpha=2.0)
        pts = boundary_points(d, count=512)
        assert pts.shape == (512,)
        np.testing.assert_allclose(np.abs(pts - d.center), d.radius, atol=1e-12)

    def test_ellipse_points_satisfy_quadratic_form(self):
        e = ellipse_support(EnsembleParams(1.0, 1.0, 0.5), alpha=2.0)
        pts = boundary_points(e, count=256)
        w = (pts - e.center) * cmath.exp(-1j * e.rotation)
        q = (w.real / e.semi_major) ** 2 + (w.imag / e.semi_minor) ** 2
        np.testing.assert_allclose(q, 1.0, atol=1e-12)

    def test_rotated_ellipse_points_members_at_zero_margin(self):
        tau = 0.4 * cmath.exp(0.9j)
        e = ellipse_support(EnsembleParams(1.3, 0.7, tau), alpha=3.0)
        pts = boundary_points(e, count=64)
        # exact boundary; allow the tiniest dilation for rounding
        assert np.all(support_contains(e, pts, margin=1e-9))
