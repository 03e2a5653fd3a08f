"""Parameter validation, whitening coefficients, and sampling calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec import (
    COMPLEX_GENERAL,
    COMPLEX_INDEPENDENT,
    KINDS,
    REAL,
    ComplexTauInRealKind,
    Dims,
    EnsembleParams,
    NonPositiveSigma,
    TauOutOfUnitDisc,
    entry_covariance,
    mixing_coefficients,
    sample_pair,
    validate_params,
)


class TestValidateParams:
    def test_real_kind_with_real_tau_ok(self):
        validate_params(EnsembleParams(1.0, 1.0, 0.5, kind=REAL))

    @pytest.mark.parametrize("sx,sy", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -0.5)])
    def test_nonpositive_sigma_rejected(self, sx, sy):
        with pytest.raises(NonPositiveSigma):
            validate_params(EnsembleParams(sx, sy, 0.0))

    def test_tau_outside_unit_disc_rejected(self):
        with pytest.raises(TauOutOfUnitDisc):
            validate_params(EnsembleParams(1.0, 1.0, 1.2, kind=REAL))
        with pytest.raises(TauOutOfUnitDisc):
            validate_params(EnsembleParams(1.0, 1.0, 0.8 + 0.7j))

    @pytest.mark.parametrize(
        "tau", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)]
    )
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(TauOutOfUnitDisc):
            validate_params(EnsembleParams(1.0, 1.0, tau))

    def test_tau_on_unit_circle_allowed_with_rounding_slack(self):
        validate_params(EnsembleParams(1.0, 1.0, 1.0, kind=REAL))
        validate_params(EnsembleParams(1.0, 1.0, (1.0 + 1e-13) * 1j))

    @pytest.mark.parametrize("kind", [REAL, COMPLEX_INDEPENDENT])
    def test_complex_tau_needs_general_kind(self, kind):
        with pytest.raises(ComplexTauInRealKind):
            validate_params(EnsembleParams(1.0, 1.0, 0.3 + 0.4j, kind=kind))
        # the same tau is fine for the general kind
        validate_params(EnsembleParams(1.0, 1.0, 0.3 + 0.4j, kind=COMPLEX_GENERAL))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            validate_params(EnsembleParams(1.0, 1.0, 0.0, kind="quaternion"))

    @pytest.mark.parametrize("split", [0.0, 1.0, -0.2, 1.5])
    def test_split_must_be_interior(self, split):
        with pytest.raises(ValueError):
            validate_params(
                EnsembleParams(1.0, 1.0, 0.1, kind=COMPLEX_INDEPENDENT, split=split)
            )


class TestDims:
    def test_alpha_is_exact_ratio(self):
        assert Dims(200, 100).alpha == 0.5
        assert Dims(100, 400).alpha == 4.0

    @pytest.mark.parametrize("n,p", [(0, 5), (5, 0), (-1, 3)])
    def test_nonpositive_dims_rejected(self, n, p):
        with pytest.raises(ValueError):
            Dims(n, p)


class TestMixingCoefficients:
    def test_independent(self):
        a, b = mixing_coefficients(EnsembleParams(1.0, 1.0, 0.0))
        assert a == 0.0 and b == 1.0

    def test_fully_correlated(self):
        a, b = mixing_coefficients(EnsembleParams(1.0, 1.0, 1.0, kind=REAL))
        assert a == 1.0 and b == 0.0

    def test_pythagorean_example(self):
        a, b = mixing_coefficients(EnsembleParams(1.0, 1.0, 0.6, kind=REAL))
        assert a == 0.6 and b == pytest.approx(0.8, abs=1e-15)

    def test_complex_tau_conjugated(self):
        tau = 0.3 + 0.4j
        a, b = mixing_coefficients(EnsembleParams(1.0, 1.0, tau))
        assert a == tau.conjugate()
        assert b == pytest.approx(math.sqrt(1 - 0.25), abs=1e-15)

    @given(
        mod=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        sx=st.floats(0.1, 3.0),
        sy=st.floats(0.1, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_unit_energy(self, mod, phase, sx, sy):
        tau = mod * complex(math.cos(phase), math.sin(phase))
        a, b = mixing_coefficients(EnsembleParams(sx, sy, tau))
        assert abs(a) ** 2 + b**2 == pytest.approx(1.0, abs=1e-12)


class TestSamplePair:
    def test_deterministic(self):
        params = EnsembleParams(1.0, 2.0, 0.4 + 0.1j)
        d = Dims(30, 50)
        p1 = sample_pair(params, d, seed=123)
        p2 = sample_pair(params, d, seed=123)
        assert np.array_equal(p1.x_mat, p2.x_mat)
        assert np.array_equal(p1.y_mat, p2.y_mat)
        p3 = sample_pair(params, d, seed=124)
        assert not np.array_equal(p1.x_mat, p3.x_mat)

    def test_shapes_and_dtype(self):
        pair = sample_pair(EnsembleParams(1.0, 1.0, 0.0), Dims(7, 11), seed=0)
        assert pair.x_mat.shape == (7, 11)
        assert pair.y_mat.shape == (7, 11)
        assert pair.x_mat.dtype == np.complex128

    def test_real_kind_is_float64_from_the_standard_fields(self):
        n, p, seed = 20, 30, 5
        pair = sample_pair(EnsembleParams(2.0, 1.0, 0.0, kind=REAL), Dims(n, p), seed)
        assert pair.x_mat.dtype == pair.y_mat.dtype == np.float64
        u = np.random.default_rng(seed).standard_normal((n, p)) * (1.0 / math.sqrt(n))
        assert np.array_equal(pair.x_mat, 2.0 * u)

    def test_real_kind_has_exactly_zero_imag(self):
        pair = sample_pair(
            EnsembleParams(1.0, 1.0, 0.3, kind=REAL), Dims(20, 20), seed=5
        )
        assert np.all(pair.x_mat.imag == 0.0)
        assert np.all(pair.y_mat.imag == 0.0)

    def test_perfect_correlation_gives_identical_matrices(self):
        # tau = 1 leaves no independent component: Y = X entrywise
        pair = sample_pair(
            EnsembleParams(1.0, 1.0, 1.0, kind=REAL), Dims(25, 15), seed=9
        )
        assert np.array_equal(pair.x_mat, pair.y_mat)

    def test_uncorrelated_real_entries(self):
        # tau = 0: sample correlation of vec(X), vec(Y) is 0 to a few
        # standard errors (SE of a correlation estimate is 1/sqrt(NP))
        pair = sample_pair(
            EnsembleParams(1.0, 1.0, 0.0, kind=REAL), Dims(200, 200), seed=11
        )
        x = pair.x_mat.real.ravel()
        y = pair.y_mat.real.ravel()
        r = float(np.corrcoef(x, y)[0, 1])
        assert abs(r) <= 4.0 / math.sqrt(x.size)

    def test_complex_cross_covariance_with_imaginary_tau(self):
        # ComplexGeneral, tau = 0.5i: empirical N*E[x conj(y)] near 0.5i
        pair = sample_pair(
            EnsembleParams(1.0, 1.0, 0.5j, kind=COMPLEX_GENERAL),
            Dims(400, 400),
            seed=13,
        )
        prods = pair.x_mat.ravel() * np.conj(pair.y_mat.ravel())
        est = np.mean(prods) * 400
        se = float(np.std(prods)) * 400 / math.sqrt(prods.size)
        assert abs(est - 0.5j) <= 4.0 * se


def _pair_covariance(kind, tau, seed, sx=1.0, sy=1.0, split=0.5):
    """Empirical 2x2 complex covariance of entry pairs, scaled by N."""
    n = 500
    params = EnsembleParams(sx, sy, tau, kind=kind, split=split)
    pair = sample_pair(params, Dims(n, n), seed=seed)
    x = pair.x_mat.ravel()
    y = pair.y_mat.ravel()
    return n * np.array(
        [
            [np.mean(np.abs(x) ** 2), np.mean(x * np.conj(y))],
            [np.mean(y * np.conj(x)), np.mean(np.abs(y) ** 2)],
        ]
    )


class TestCovarianceCalibration:
    """Sampled entry covariance must reproduce the target matrix.

    The tolerance is five standard errors with the SE taken from the
    sample itself (the entries are i.i.d., so SE ~ spread / sqrt(N*P)).
    """

    @pytest.mark.parametrize(
        "kind,tau",
        [
            (REAL, 0.5),
            (COMPLEX_INDEPENDENT, 0.5),
            (COMPLEX_GENERAL, 0.5),
            (COMPLEX_GENERAL, 0.35 + 0.35j),
            (REAL, -0.8),
        ],
    )
    def test_entry_covariance_matches_target(self, kind, tau):
        sx, sy = 1.3, 0.8
        cov = _pair_covariance(kind, tau, seed=101, sx=sx, sy=sy)
        target = np.array(
            [
                [sx**2, tau * sx * sy],
                [np.conj(tau) * sx * sy, sy**2],
            ]
        )
        # entries are means of 250k i.i.d. products with O(sx*sy) spread;
        # 5 SE is well under 0.02 here
        assert np.max(np.abs(cov - target)) < 0.02

    def test_split_controls_re_im_variance_ratio(self):
        s = 0.7
        params = EnsembleParams(1.0, 1.0, 0.2, kind=COMPLEX_INDEPENDENT, split=s)
        pair = sample_pair(params, Dims(500, 500), seed=23)
        var_re = float(np.var(pair.x_mat.real))
        var_im = float(np.var(pair.x_mat.imag))
        ratio = var_re / var_im
        # SE of a variance ratio over 250k samples is ~ ratio*sqrt(4/n)
        expected = s / (1.0 - s)
        assert abs(ratio - expected) < 5.0 * expected * math.sqrt(4.0 / pair.x_mat.size)


class TestEntryCovariance:
    @pytest.mark.parametrize("kind", KINDS)
    def test_positive_semidefinite(self, kind):
        gamma = entry_covariance(EnsembleParams(1.2, 0.7, 0.6, kind=kind))
        assert np.min(np.linalg.eigvalsh(gamma)) >= -1e-12

    def test_kind_nesting_at_half_split(self):
        # with real tau and an even split, the independent-parts kind and
        # the circularly-symmetric kind share one population covariance
        tau = 0.45
        gi = entry_covariance(
            EnsembleParams(1.1, 0.9, tau, kind=COMPLEX_INDEPENDENT, split=0.5)
        )
        gg = entry_covariance(EnsembleParams(1.1, 0.9, tau, kind=COMPLEX_GENERAL))
        np.testing.assert_allclose(gi, gg, atol=1e-15)

    def test_matches_sampled_four_block_covariance(self):
        params = EnsembleParams(1.0, 1.0, 0.3 + 0.2j, kind=COMPLEX_GENERAL)
        n = 500
        pair = sample_pair(params, Dims(n, n), seed=31)
        comps = np.stack(
            [
                pair.x_mat.real.ravel(),
                pair.x_mat.imag.ravel(),
                pair.y_mat.real.ravel(),
                pair.y_mat.imag.ravel(),
            ]
        )
        emp = n * np.cov(comps, bias=True)
        np.testing.assert_allclose(emp, entry_covariance(params), atol=0.02)

    def test_real_kind_has_zero_imaginary_blocks(self):
        gamma = entry_covariance(EnsembleParams(1.0, 1.0, 0.5, kind=REAL))
        assert gamma[1, 1] == 0.0 and gamma[3, 3] == 0.0
        assert gamma[0, 2] == pytest.approx(0.5)
