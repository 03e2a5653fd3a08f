"""Parameter validation, whitening coefficients, and sampling calibration."""

import hashlib
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


# sha256 of x_mat.tobytes() + y_mat.tobytes() for a (9, 6) pair with
# sigma_x = 1.5, sigma_y = 0.7 (split 0.3 for complex_independent),
# recorded from the out-of-place formula x = sigma_x * u,
# y = sigma_y * (a * u + b * v) that sample_pair now evaluates in place.
_GOLDEN_DRAWS = {
    (REAL, 0.0, 5): "c571020f35c3ca909a226ed3f287ce82428966285c236f63c0aa19282efb7c72",
    (REAL, 0.0, 2**63 + 11): "bf3ad8a055156e4e3d6308fca31d601a891983e3aa82b34b5968ba1d2afe6227",
    (REAL, 0.5, 5): "6d9738a23a79644fd709c85adba5b18cf366c9992860661a87769bc334611f21",
    (REAL, 0.5, 2**63 + 11): "d295da9ae8e50fe8339423a8bfab3cb98c2cc1e8d6cfe3863e25dad9de5f1de0",
    (REAL, 1.0, 5): "19e8ae8e9f996b590d8c367a3437a89b1dec31909a8edf078887ac2ab161af66",
    (REAL, 1.0, 2**63 + 11): "15ecc76232f6307f53fb572ae546dbdb61c1c840c885df0c68ab9f3eebd6f1f9",
    (REAL, -1.0, 5): "197f3f0519ef1807d009237fceba26f2319838b655424b2c9a6dd71500ff45fd",
    (REAL, -1.0, 2**63 + 11): "3df980f2e941ab41ec980c177c3b75b5cd69dd29f741e703265b76a5ffe44765",
    (COMPLEX_INDEPENDENT, 0.0, 5): "9a1033d6ba3ce0c1986a0c439c3f26e4a69b4e797d2d8d14a98fd39cea9722e3",
    (COMPLEX_INDEPENDENT, 0.0, 2**63 + 11): "59314274de8379ea2941b7a7e7749bb054febc1be4023e3562fa8e164a8d2bc3",
    (COMPLEX_INDEPENDENT, 0.5, 5): "c6515edd0f474d595f7f4cb008a3dc6db5b8ea2e0b272a6b9c9f7e42ca1770b6",
    (COMPLEX_INDEPENDENT, 0.5, 2**63 + 11): "8f8f274321b0228b2638204787af53fc08d659ead968f579568d7b6f3594580d",
    (COMPLEX_INDEPENDENT, 1.0, 5): "f4843c471e81193ef93ec6e6b856fb7777350c3466a641444aa97bc416e27561",
    (COMPLEX_INDEPENDENT, 1.0, 2**63 + 11): "c9eb7f46a631561cffccc2fac0f84c8aaf79aa9b2955bc37281d6d3b1f62ffd8",
    (COMPLEX_INDEPENDENT, -1.0, 5): "bc22ccc9d2c5ae389c7dbc5d0ec87b4ed0dceebfa04e219d82168a4269000557",
    (COMPLEX_INDEPENDENT, -1.0, 2**63 + 11): "4127b06cbefd3ad4afb7d327485b61d79c5cf4825c42e8d1f59e0f618efce19b",
    (COMPLEX_GENERAL, 0.0, 5): "38b641cb4b4458492e52ef6ce74b2eab9224c749511f2e71f1586454c7535d2f",
    (COMPLEX_GENERAL, 0.0, 2**63 + 11): "2da99976fd7691e312ed6da934c76d4a3f2c791341f2d5eef8fad3abb8fc22aa",
    (COMPLEX_GENERAL, 0.5, 5): "69fa3592ee8250cb5fa03dc495ebf15262e88ef95fcccbd4f876a2c60cc32b56",
    (COMPLEX_GENERAL, 0.5, 2**63 + 11): "35a7caef52fd983612fe5566eb7a4e20690fb7d7c3b16979eafb1d00c988b718",
    (COMPLEX_GENERAL, 1.0, 5): "a1a32db041f827cb1b27768b4207db71fa10b454a8b046003a5c572b572e47c3",
    (COMPLEX_GENERAL, 1.0, 2**63 + 11): "0b5adfd369459e9b70d7f55fbd313494627c046965ec2cfecd73610d4e8acde6",
    (COMPLEX_GENERAL, -1.0, 5): "29aa7602cb8eab5bff13fe8f8e94583cfbca397984cb3bad2dbc64dd89b067b0",
    (COMPLEX_GENERAL, -1.0, 2**63 + 11): "b53c4586b236cf8175a2b4fa940b2c2dff38a2608cc292fad89dd265647a6e72",
    (COMPLEX_GENERAL, (0.3+0.4j), 5): "378f2b527b8743824387b92906ac710f0aa3cf516803c618963562869abfcfec",
    (COMPLEX_GENERAL, (0.3+0.4j), 2**63 + 11): "3295aea94118154b8f9adb64f5d835876a3a26b7085a5e87217a6fbfd6195a35",
}


@pytest.mark.parametrize("kind,tau,seed", sorted(_GOLDEN_DRAWS, key=repr))
def test_draws_match_the_recorded_digests(kind, tau, seed):
    split = 0.3 if kind == COMPLEX_INDEPENDENT else 0.5
    pair = sample_pair(EnsembleParams(1.5, 0.7, tau, kind=kind, split=split), Dims(9, 6), seed)
    digest = hashlib.sha256(pair.x_mat.tobytes() + pair.y_mat.tobytes()).hexdigest()
    assert digest == _GOLDEN_DRAWS[kind, tau, seed]


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
