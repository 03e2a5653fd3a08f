"""Spectra, the product-ordering identity, coverage, and aggregation."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec import (
    COMPLEX_GENERAL,
    CONJ_TRANSPOSE,
    KINDS,
    PRODUCT_KINDS,
    PSEUDO_INVERSE,
    REAL,
    Dims,
    EmptyInput,
    EnsembleParams,
    SpectrumSample,
    coverage,
    default_zero_tol,
    disc_support,
    eigenvalues,
    ellipse_support,
    grand_mean,
    mean_eigenvalue,
    multiset_max_distance,
    pseudo_inverse,
    reference_spectrum,
    sample_pair,
    spectrum,
    wa_determinant_check,
    wa_identity_check,
)
from pairspec import empirical
from pairspec.empirical import WA_DET_TOL

UNIT = EnsembleParams(1.0, 1.0, 0.0)


def _synthetic(eigs, n=None):
    eigs = np.asarray(eigs, dtype=np.complex128)
    n = n or eigs.size
    return SpectrumSample(
        eigs=eigs,
        product_kind=CONJ_TRANSPOSE,
        dims=Dims(n, n),
        params=UNIT,
        seed=0,
    )


class TestSpectrum:
    def test_identity_like_pseudo_inverse_product(self):
        # tau = 1 real square pair: X = Y, so X Y-dagger is the identity
        pair = sample_pair(
            EnsembleParams(1.0, 1.0, 1.0, kind=REAL), Dims(30, 30), seed=1
        )
        s = spectrum(pair, PSEUDO_INVERSE)
        np.testing.assert_allclose(s.eigs, np.ones(30), atol=1e-8)

    def test_size_matches_rows(self):
        pair = sample_pair(UNIT, Dims(12, 30), seed=2)
        assert spectrum(pair, CONJ_TRANSPOSE).eigs.size == 12
        assert spectrum(pair, PSEUDO_INVERSE).eigs.size == 12

    def test_tall_pseudo_inverse_product_has_kernel_eigenvalues(self):
        pair = sample_pair(UNIT, Dims(4, 2), seed=3)
        s = spectrum(pair, PSEUDO_INVERSE)
        assert np.sum(np.abs(s.eigs) <= 1e-8) >= 2

    def test_scaling_x_scales_spectrum(self):
        pair = sample_pair(UNIT, Dims(20, 10), seed=4)
        scaled = dataclasses.replace(pair, x_mat=3.0 * pair.x_mat)
        base = spectrum(pair, PSEUDO_INVERSE).eigs
        got = spectrum(scaled, PSEUDO_INVERSE).eigs
        assert multiset_max_distance(got, 3.0 * base) < 1e-9

    def test_scaling_both_factors_conjugate_transpose(self):
        c, d = 1.5 + 0.5j, 0.7 - 0.2j
        pair = sample_pair(EnsembleParams(1.0, 1.0, 0.4), Dims(15, 25), seed=5)
        scaled = dataclasses.replace(
            pair, x_mat=c * pair.x_mat, y_mat=d * pair.y_mat
        )
        base = spectrum(pair, CONJ_TRANSPOSE).eigs
        got = spectrum(scaled, CONJ_TRANSPOSE).eigs
        assert multiset_max_distance(got, c * np.conj(d) * base) < 1e-9

    def test_unknown_product_rejected(self):
        pair = sample_pair(UNIT, Dims(4, 4), seed=6)
        with pytest.raises(ValueError):
            spectrum(pair, "hadamard")
        with pytest.raises(ValueError):
            reference_spectrum(pair, "hadamard")

    def test_tall_spectrum_ends_in_padded_zeros(self):
        pair = sample_pair(UNIT, Dims(30, 12), seed=13)
        for product in PRODUCT_KINDS:
            eigs = spectrum(pair, product).eigs
            assert np.all(eigs[12:] == 0.0)
            assert np.all(eigs[:12] != 0.0)

    @pytest.mark.parametrize("product", PRODUCT_KINDS)
    @pytest.mark.parametrize("n, p", [(40, 17), (17, 40), (25, 25)])
    def test_real_kind_spectrum_is_complex_with_conjugate_pairs(self, product, n, p):
        pair = sample_pair(EnsembleParams(1.0, 1.0, 0.3, kind=REAL), Dims(n, p), seed=14)
        assert pair.x_mat.dtype == np.float64
        eigs = spectrum(pair, product).eigs
        assert eigs.dtype == np.complex128
        upper = np.sort_complex(eigs[eigs.imag > 0.0])
        lower = np.sort_complex(np.conj(eigs[eigs.imag < 0.0]))
        assert upper.size > 0
        assert np.array_equal(upper, lower)


def _differential_tol(eigs):
    return 1e-9 * max(1.0, float(np.max(np.abs(eigs))))


def _zero_count(eigs):
    return int(np.count_nonzero(np.abs(eigs) <= default_zero_tol(eigs)))


class TestReducedPathAgainstReference:
    """``spectrum`` (QR, eig at min(N, P)) against the full-size SVD path."""

    @given(
        kind=st.sampled_from(KINDS),
        product=st.sampled_from(PRODUCT_KINDS),
        n=st.integers(2, 30),
        shape=st.sampled_from(["n-1", "n", "n+1", "quarter", "triple"]),
        modulus=st.sampled_from([0.0, 0.5, 0.999999, 1.0]),
        phase=st.floats(0.0, 2.0 * math.pi),
        sigma_x=st.floats(0.3, 3.0),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, kind, product, n, shape, modulus, phase, sigma_x, seed):
        p = {
            "n-1": n - 1,
            "n": n,
            "n+1": n + 1,
            "quarter": max(1, n // 4),
            "triple": 3 * n,
        }[shape]
        if kind == COMPLEX_GENERAL:
            tau = modulus * complex(math.cos(phase), math.sin(phase))
        else:
            tau = modulus if phase < math.pi else -modulus
        pair = sample_pair(EnsembleParams(sigma_x, 1.0, tau, kind=kind), Dims(n, p), seed)
        fast = spectrum(pair, product).eigs
        ref = reference_spectrum(pair, product).eigs
        assert fast.dtype == ref.dtype == np.complex128
        assert multiset_max_distance(fast, ref) <= _differential_tol(ref)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_deficient_y_takes_the_svd_fallback(self, kind):
        tau = 0.4 if kind != COMPLEX_GENERAL else 0.3 + 0.2j
        params = EnsembleParams(1.0, 1.0, tau, kind=kind)
        tall = sample_pair(params, Dims(30, 12), seed=15)
        wide = sample_pair(params, Dims(12, 30), seed=16)
        # Full rank: the reduced path runs, so its bits differ from the SVD path's.
        assert not np.array_equal(
            spectrum(tall, PSEUDO_INVERSE).eigs, reference_spectrum(tall, PSEUDO_INVERSE).eigs
        )
        y_tall = tall.y_mat.copy()
        y_tall[:, 5] = y_tall[:, 2]  # two equal columns
        y_wide = wide.y_mat.copy()
        y_wide[7, :] = y_wide[3, :]  # two equal rows
        tall = dataclasses.replace(tall, y_mat=y_tall)
        wide = dataclasses.replace(wide, y_mat=y_wide)
        for planted in (tall, wide):
            got = spectrum(planted, PSEUDO_INVERSE).eigs
            ref = reference_spectrum(planted, PSEUDO_INVERSE).eigs
            assert multiset_max_distance(got, ref) <= _differential_tol(ref)
            assert _zero_count(got) == _zero_count(ref)
        # the factor holds the reference's Y†: wide Y's X Y† is the reference's
        # matrix, and tall Y's spectrum is Y† X's, then N - P zeros
        assert np.array_equal(
            spectrum(wide, PSEUDO_INVERSE).eigs, reference_spectrum(wide, PSEUDO_INVERSE).eigs
        )
        small = eigenvalues(pseudo_inverse(y_tall).pinv @ tall.x_mat)
        want = np.concatenate([small, np.zeros(30 - 12, np.complex128)])
        assert np.array_equal(spectrum(tall, PSEUDO_INVERSE).eigs, want)


class TestWaIdentity:
    def test_square_pair(self):
        pair = sample_pair(EnsembleParams(1.0, 1.0, 0.3), Dims(24, 24), seed=7)
        ok, mismatch = wa_identity_check(pair)
        assert ok
        assert mismatch < 1e-10

    def test_tall_pair_pads_with_zeros(self):
        pair = sample_pair(EnsembleParams(1.0, 1.0, 0.5), Dims(40, 24), seed=8)
        ok, mismatch = wa_identity_check(pair)
        assert ok
        assert mismatch <= 1e-8

    def test_wide_pair_swaps_roles(self):
        pair = sample_pair(EnsembleParams(1.0, 1.0, 0.5), Dims(24, 40), seed=9)
        ok, mismatch = wa_identity_check(pair)
        assert ok
        assert mismatch <= 1e-8

    @pytest.mark.parametrize("sigma", [1.0, 2.0**-30])
    def test_relative_skew_fails_at_any_scale(self, monkeypatch, sigma):
        # the N x N side's eigenvalues off by 1e-6 relative: a tolerance
        # floored at scale 1 passed this below unit scale
        real = empirical.eigenvalues

        def skewed(m):
            return real(m) * (1.0 + 1e-6) if len(m) == 40 else real(m)

        monkeypatch.setattr(empirical, "eigenvalues", skewed)
        params = EnsembleParams(sigma, sigma, 0.5, kind=COMPLEX_GENERAL)
        ok, mismatch = wa_identity_check(sample_pair(params, Dims(40, 20), seed=3))
        assert not ok
        assert mismatch > 0.0

    def test_corrupted_spectrum_is_detected(self):
        # the identity's matcher must flag a displaced eigenvalue
        pair = sample_pair(UNIT, Dims(10, 6), seed=10)
        big = eigenvalues(pair.x_mat @ pair.y_mat.conj().T)
        small = eigenvalues(pair.y_mat.conj().T @ pair.x_mat)
        padded = np.concatenate([small, np.zeros(4, np.complex128)])
        padded[0] += 10.0
        assert multiset_max_distance(big, padded) > 1.0


# wa_identity_check's tolerance in these comparisons, relative to the
# largest |eigenvalue|.
SPECTRAL_TOL = 1e-7


def _tau(kind, modulus):
    """A tau of the given modulus that the kind accepts: complex where it may be."""
    return modulus * (0.6 + 0.8j) if kind == COMPLEX_GENERAL else -modulus


def _shapes(n):
    return [(n, n - 1), (n, n + 1), (n, n // 4), (n, 3 * n)]


class _PlantedY(np.ndarray):
    """Y whose product Y* X (Y* on the left) comes out with one entry off.

    X Y* is untouched, so the two orderings no longer share a spectrum:
    the planted error stands for a fault in one product's arithmetic.
    """

    def __matmul__(self, other):
        out = np.asarray(self) @ np.asarray(other)
        out[self.entry] += self.delta
        return out

    def __rmatmul__(self, other):
        return np.asarray(other) @ np.asarray(self)

    def __array_finalize__(self, obj):
        self.entry = getattr(obj, "entry", None)
        self.delta = getattr(obj, "delta", 0.0)


def _plant(pair, entry, delta):
    y = pair.y_mat.view(_PlantedY)
    y.entry, y.delta = entry, delta
    return dataclasses.replace(pair, y_mat=y)


class TestWaDeterminant:
    """The determinant form against the spectral reference, wa_identity_check."""

    @pytest.mark.parametrize("modulus", [0.0, 0.5, 0.999999, 1.0])
    @pytest.mark.parametrize("kind", KINDS)
    def test_clean_pairs_pass_both_forms(self, kind, modulus):
        for n, p in _shapes(32):
            params = EnsembleParams(1.3, 0.7, _tau(kind, modulus), kind=kind)
            pair = sample_pair(params, Dims(n, p), 40 + p)
            assert wa_identity_check(pair, SPECTRAL_TOL)[0]
            ok, gap = wa_determinant_check(pair)
            assert ok
            assert gap <= WA_DET_TOL / 10  # clean gaps measure under 1e-13

    def test_gap_is_deterministic(self):
        pair = sample_pair(EnsembleParams(1.0, 1.0, 0.5, kind=REAL), Dims(30, 70), seed=3)
        assert wa_determinant_check(pair) == wa_determinant_check(pair)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_whatever_the_spectral_form_rejects(self, kind):
        rejected = 0
        for n, p in _shapes(24):
            params = EnsembleParams(1.0, 1.0, _tau(kind, 0.5), kind=kind)
            pair = sample_pair(params, Dims(n, p), 50 + p)
            small = pair.y_mat.conj().T @ pair.x_mat
            scale = max(1.0, float(np.max(np.abs(eigenvalues(small)))))
            for entry in [(0, 0), (1, 0), (p - 1, 0)]:
                for k in range(-10, -2):
                    planted = _plant(pair, entry, 10.0**k * scale)
                    if not wa_identity_check(planted, SPECTRAL_TOL)[0]:
                        rejected += 1
                        assert not wa_determinant_check(planted)[0], (n, p, entry, k)
        assert rejected >= 4 * 3 * 3  # at least the three largest errors everywhere

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_an_error_the_spectral_form_passes(self, kind):
        # 1e-9 * scale in one entry of Y* X moves eigenvalues by ~1e-10:
        # far under the spectral tolerance, far over the determinant one
        for n, p in _shapes(24) + [(200, 100), (100, 200)]:
            params = EnsembleParams(1.0, 1.0, _tau(kind, 0.5), kind=kind)
            pair = sample_pair(params, Dims(n, p), 60 + p)
            small = pair.y_mat.conj().T @ pair.x_mat
            scale = max(1.0, float(np.max(np.abs(eigenvalues(small)))))
            planted = _plant(pair, (0, 0), 1e-9 * scale)
            assert wa_identity_check(planted, SPECTRAL_TOL)[0]
            ok, gap = wa_determinant_check(planted)
            assert not ok
            assert gap > 10 * WA_DET_TOL


class TestTraceIsTheEigenvalueSum:
    """rotation reduces trace(X Y*) = vdot(Y, X) in place of an eigensolve."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n, p", [(40, 17), (25, 25), (17, 40)])
    def test_vdot_matches_the_spectrum(self, kind, n, p):
        params = EnsembleParams(1.2, 0.8, _tau(kind, 0.5), kind=kind)
        pair = sample_pair(params, Dims(n, p), seed=n + p)
        eigs = spectrum(pair, CONJ_TRANSPOSE).eigs
        trace = complex(np.vdot(pair.y_mat, pair.x_mat))
        assert abs(trace - np.sum(eigs)) <= 1e-12 * max(1.0, float(np.sum(np.abs(eigs))))


class TestDefaultZeroTol:
    def test_separates_kernel_from_bulk(self):
        pair = sample_pair(UNIT, Dims(200, 100), seed=11)
        eigs = spectrum(pair, PSEUDO_INVERSE).eigs
        tol = default_zero_tol(eigs)
        mags = np.sort(np.abs(eigs))
        assert mags[99] < tol < mags[100]

    def test_all_zero_spectrum_fallback(self):
        assert default_zero_tol(np.zeros(5, complex)) == 1e-8

    def test_scales_with_spectrum(self):
        eigs = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert default_zero_tol(1e6 * eigs) == pytest.approx(
            1e6 * default_zero_tol(eigs)
        )


class TestCoverage:
    def test_all_at_center(self):
        d = disc_support(EnsembleParams(1.0, 1.0, 0.5), alpha=2.0)
        rep = coverage(_synthetic([d.center] * 8), d, margin=0.0)
        assert rep.inside_fraction == 1.0
        assert rep.outlier_count == 0
        assert rep.max_excess == 0.0

    def test_kernel_count_below_square_aspect(self):
        pair = sample_pair(UNIT, Dims(200, 100), seed=12)
        s = spectrum(pair, PSEUDO_INVERSE)
        rep = coverage(s, disc_support(UNIT, alpha=0.5), margin=0.1)
        assert rep.zero_count >= 100

    def test_zero_eigenvalues_follow_the_atom_flag(self):
        d_no_atom = disc_support(UNIT, alpha=2.0)  # contains 0 but no atom
        rep = coverage(_synthetic([0.0, 0.5]), d_no_atom)
        # the exact zero is classified by the atom flag, not the region
        assert rep.zero_count == 1
        assert rep.outlier_count == 1
        d_atom = disc_support(EnsembleParams(1.0, 1.0, 0.9), alpha=0.5)
        rep = coverage(_synthetic([0.0, d_atom.center]), d_atom)
        assert rep.outlier_count == 0

    def test_inside_fraction_accounts_outliers(self):
        d = disc_support(EnsembleParams(2.0, 1.0, 0.0), alpha=2.0)  # radius 2
        rep = coverage(_synthetic([1.5, 1.0, 10.0, 3.0 + 4.0j]), d, margin=0.0)
        assert rep.outlier_count == 2
        assert rep.inside_fraction == pytest.approx(0.5)

    def test_max_excess_is_radial_ratio_minus_one(self):
        d = disc_support(EnsembleParams(1.0, 1.0, 0.0), alpha=2.0)  # radius 1
        rep = coverage(_synthetic([3.0 + 0.0j]), d, margin=0.0)
        assert rep.max_excess == pytest.approx(2.0)

    def test_ellipse_max_excess_is_normalised_radius_minus_one(self):
        e = ellipse_support(UNIT, alpha=1.0)  # the unit circle
        rep = coverage(_synthetic([3.0 + 0.0j, 0.5j]), e, margin=0.0)
        assert rep.outlier_count == 1
        assert rep.max_excess == pytest.approx(2.0)

    def test_collapsed_disc_keeps_max_excess_finite(self):
        # |tau| = 1: radius 0, floored at 1e-12 of |center| for membership
        # and excess alike
        d = disc_support(EnsembleParams(2.0**100, 1.0, 1.0), alpha=2.0)
        assert d.radius == 0.0 and d.center == 2.0**100
        rep = coverage(_synthetic([d.center, d.center + 2.0**80]), d)
        assert rep.outlier_count == 1
        assert rep.max_excess == pytest.approx(2.0**-20 / 1e-12 - 1.0)


def _support_of(product_kind, params, alpha):
    if product_kind == CONJ_TRANSPOSE:
        return ellipse_support(params, alpha)
    return disc_support(params, alpha)


@functools.lru_cache(maxsize=None)
def _unit_scale_sample(product_kind, tau, dims):
    params = EnsembleParams(1.0, 1.0, tau, kind=COMPLEX_GENERAL)
    return spectrum(sample_pair(params, Dims(*dims), seed=5), product_kind)


class TestCoverageIsScaleFree:
    """coverage classifies in the support's own units: sigma drops out."""

    @settings(max_examples=128, deadline=None)
    @given(
        k=st.integers(-200, 200),
        product_kind=st.sampled_from(PRODUCT_KINDS),
        tau=st.sampled_from([0.0, 0.5, 1.0, 0.6j]),
        dims=st.sampled_from([(40, 20), (20, 40)]),
    )
    def test_power_of_two_scale_leaves_the_report_unchanged(
        self, k, product_kind, tau, dims
    ):
        # eigenvalues and sigma_x scale by the same power of two, exactly
        sample = _unit_scale_sample(product_kind, tau, dims)
        alpha = dims[1] / dims[0]
        base = coverage(
            sample, _support_of(product_kind, sample.params, alpha), margin=0.1
        )
        params = EnsembleParams(2.0**k, 1.0, tau, kind=COMPLEX_GENERAL)
        scaled = dataclasses.replace(sample, eigs=sample.eigs * 2.0**k, params=params)
        got = coverage(scaled, _support_of(product_kind, params, alpha), margin=0.1)
        assert got == base

    @pytest.mark.parametrize("sigma", [1.0, 1e-4, 1e-8, 1e-30])
    def test_shrunk_support_fails_at_every_scale(self, sigma):
        params = EnsembleParams(sigma, sigma, 0.0, kind=COMPLEX_GENERAL)
        s = spectrum(sample_pair(params, Dims(200, 100), seed=3), CONJ_TRANSPOSE)
        e = ellipse_support(params, alpha=0.5)
        shrunk = dataclasses.replace(
            e, semi_major=e.semi_major / 10.0, semi_minor=e.semi_minor / 10.0
        )
        rep = coverage(s, shrunk, margin=0.1)
        # the 100 kernel zeros are the atom; nearly all of the bulk is out
        assert rep.zero_count == 100
        assert rep.inside_fraction == pytest.approx(0.51, abs=0.02)

    def test_fully_correlated_pair_is_inside_its_collapsed_disc(self):
        # |tau| = 1, real: X = Y, so X Y-dagger has eigenvalues 1 up to
        # rounding, at the centre of a disc of radius 0
        params = EnsembleParams(1.0, 1.0, 1.0, kind=REAL)
        s = spectrum(sample_pair(params, Dims(40, 20), seed=11), PSEUDO_INVERSE)
        rep = coverage(s, disc_support(params, alpha=0.5), margin=0.1)
        assert rep.zero_count == 20
        assert rep.inside_fraction == 1.0
        assert rep.max_excess == 0.0


class TestMeanEigenvalue:
    def test_single_sample(self):
        mean, se = mean_eigenvalue([_synthetic([1.0, 3.0])])
        assert mean == 2.0
        assert se == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            mean_eigenvalue([])

    def test_grand_mean_of_trial_sums_is_bit_identical(self):
        params = EnsembleParams(1.0, 1.0, 0.5)
        samples = [
            spectrum(sample_pair(params, Dims(30, 60), seed=s), PSEUDO_INVERSE)
            for s in range(5)
        ]
        # the reference: the same statistics taken from the spectra themselves
        trial_means = np.array([np.mean(s.eigs) for s in samples])
        total = sum(s.eigs.size for s in samples)
        grand = complex(sum(complex(np.sum(s.eigs)) for s in samples) / total)
        scatter = float(np.mean(np.abs(trial_means - trial_means.mean()) ** 2))
        se = float(np.sqrt(scatter / (len(samples) - 1)))
        sums = [complex(np.sum(s.eigs)) for s in samples]
        assert grand_mean(sums, [s.eigs.size for s in samples]) == (grand, se)
        assert mean_eigenvalue(samples) == (grand, se)

    def test_uncorrelated_mean_is_zero(self):
        samples = [
            spectrum(sample_pair(UNIT, Dims(50, 100), seed=s), CONJ_TRANSPOSE)
            for s in range(20)
        ]
        mean, se = mean_eigenvalue(samples)
        assert se > 0.0
        assert abs(mean) <= 4.0 * se

    def test_trace_identity_small(self):
        # mean eigenvalue of X Y* estimates alpha * tau * sigma_x * sigma_y
        params = EnsembleParams(1.0, 1.0, 0.5)
        samples = [
            spectrum(sample_pair(params, Dims(80, 160), seed=100 + s), CONJ_TRANSPOSE)
            for s in range(40)
        ]
        mean, se = mean_eigenvalue(samples)
        assert abs(mean - 1.0) <= 4.0 * se
