"""Pseudo-inverse, Penrose diagnostics, eigensolver wrapper, matching."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec import (
    EmptyMatrix,
    NonFinite,
    NonSquare,
    ShapeMismatch,
    eigenvalues,
    multiset_max_distance,
    penrose_residuals,
    pseudo_inverse,
)
from pairspec import matalg
from pairspec.matalg import blas_single_thread


def _gaussian(n, p, seed, complex_entries=True):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, p))
    if complex_entries:
        m = m + 1j * rng.standard_normal((n, p))
    return m / np.sqrt(n)


class TestPseudoInverse:
    def test_identity(self):
        res = pseudo_inverse(np.eye(2))
        np.testing.assert_allclose(res.pinv, np.eye(2), atol=1e-15)
        assert res.rank == 2

    def test_rank_deficient_diagonal(self):
        y = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        res = pseudo_inverse(y)
        expected = np.zeros((3, 2))
        expected[0, 0] = 1.0 / 3.0
        np.testing.assert_allclose(res.pinv, expected, atol=1e-15)
        assert res.rank == 1

    def test_left_inverse_of_tall_full_rank(self):
        y = _gaussian(60, 20, seed=1)
        res = pseudo_inverse(y)
        np.testing.assert_allclose(res.pinv @ y, np.eye(20), atol=1e-10)

    def test_rank_full_on_gaussian_samples(self):
        for seed, (n, p) in enumerate([(40, 25), (25, 40), (30, 30)]):
            res = pseudo_inverse(_gaussian(n, p, seed))
            assert res.rank == min(n, p)
            assert res.cutoff >= 0.0

    def test_involution_recovers_full_rank_matrix(self):
        y = _gaussian(30, 45, seed=2)
        back = pseudo_inverse(pseudo_inverse(y).pinv).pinv
        assert np.linalg.norm(back - y) / np.linalg.norm(y) < 1e-8

    def test_matches_normal_equation_forms(self):
        # tall full-column-rank: (Y*Y)^{-1} Y*; wide: Y* (Y Y*)^{-1}
        tall = _gaussian(50, 20, seed=3)
        direct = np.linalg.inv(tall.conj().T @ tall) @ tall.conj().T
        got = pseudo_inverse(tall).pinv
        assert np.linalg.norm(got - direct) / np.linalg.norm(direct) < 1e-8

        wide = _gaussian(20, 50, seed=4)
        direct = wide.conj().T @ np.linalg.inv(wide @ wide.conj().T)
        got = pseudo_inverse(wide).pinv
        assert np.linalg.norm(got - direct) / np.linalg.norm(direct) < 1e-8

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            pseudo_inverse(np.empty((0, 3)))

    def test_negative_rtol_rejected(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.eye(2), rtol=-1e-3)

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFinite):
            pseudo_inverse(bad)


class TestPenroseResiduals:
    def test_exact_pinv_of_identity_is_zero(self):
        res = penrose_residuals(np.eye(3), np.eye(3))
        assert all(v == 0.0 for v in res.values())

    def test_svd_pinv_satisfies_all_conditions(self):
        y = _gaussian(100, 50, seed=5)
        res = penrose_residuals(y, pseudo_inverse(y).pinv)
        assert max(res.values()) <= 1e-10

    def test_corrupted_pinv_detected(self):
        y = _gaussian(30, 20, seed=6)
        g = pseudo_inverse(y).pinv.copy()
        g[0, 0] += 1.0
        res = penrose_residuals(y, g)
        assert max(res.values()) > 1e-3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            penrose_residuals(np.eye(3), np.eye(2))

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 100])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_blocked_hermitian_residual_matches_full_norm(self, size, complex_entries):
        m = _gaussian(size, size, seed=size, complex_entries=complex_entries)
        want = np.linalg.norm(m - m.conj().T)
        assert matalg._hermitian_residual(m) == pytest.approx(want, rel=1e-13)


class TestEigenvalues:
    def test_nilpotent(self):
        e = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(np.sort_complex(e), [0.0, 0.0], atol=1e-15)

    def test_triangular(self):
        e = eigenvalues(np.diag([1.0 + 2.0j, 3.0]))
        np.testing.assert_allclose(np.sort_complex(e), [1.0 + 2.0j, 3.0], atol=1e-15)

    def test_companion_matrix_cube_roots_of_unity(self):
        # companion matrix of z^3 - 1
        c = np.array(
            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex
        )
        roots = np.exp(2j * np.pi * np.arange(3) / 3.0)
        assert multiset_max_distance(eigenvalues(c), roots) < 1e-10

    def test_sum_equals_trace(self):
        m = _gaussian(80, 80, seed=7)
        e = eigenvalues(m)
        assert abs(np.sum(e) - np.trace(m)) < 1e-8 * 80 * np.linalg.norm(m)

    @given(st.floats(0.5, 2.0), st.floats(0.0, 6.28))
    @settings(max_examples=20, deadline=None)
    def test_scalar_multiplication_scales_spectrum(self, mod, phase):
        c = mod * np.exp(1j * phase)
        m = _gaussian(12, 12, seed=8)
        scaled = eigenvalues(c * m)
        assert multiset_max_distance(scaled, c * eigenvalues(m)) < 1e-10 * max(
            1.0, abs(c)
        )

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquare):
            eigenvalues(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFinite):
            eigenvalues(np.array([[1.0, 0.0], [0.0, complex(0.0, np.nan)]]))

    def test_real_input_with_real_spectrum_returns_complex128(self):
        e = eigenvalues(np.diag([1.0, 2.0, 3.0]))
        assert e.dtype == np.complex128

    def test_real_input_stays_real_in_pseudo_inverse(self):
        y = _gaussian(20, 8, seed=10, complex_entries=False)
        assert pseudo_inverse(y).pinv.dtype == np.float64
        assert pseudo_inverse(y.astype(complex)).pinv.dtype == np.complex128


class TestMultisetMaxDistance:
    def test_identical_up_to_permutation(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        assert multiset_max_distance(a, rng.permutation(a)) == 0.0

    def test_reports_perturbation_scale(self):
        a = np.array([0.0, 1.0, 2.0 + 1j])
        b = a + 1e-9
        assert multiset_max_distance(a, b) == pytest.approx(1e-9, rel=1e-3)

    def test_gross_corruption_is_visible(self):
        a = np.linspace(0, 1, 10).astype(complex)
        b = a.copy()
        b[3] += 10.0
        assert multiset_max_distance(a, b) > 1.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multiset_max_distance(np.ones(3), np.ones(4))

    def test_empty_inputs_match(self):
        assert multiset_max_distance(np.empty(0), np.empty(0)) == 0.0


class TestBlasSingleThread:
    def _counts(self):
        return [get() for get, _ in matalg._openblas_controls()]

    def test_pins_nests_and_restores(self):
        before = self._counts()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        with blas_single_thread() as pinned:
            assert pinned is True
            assert self._counts() == [1] * len(before)
            with blas_single_thread() as inner:
                assert inner is True
            assert self._counts() == [1] * len(before)  # the outer pin still holds
        assert self._counts() == before

    def test_restores_after_an_exception(self):
        before = self._counts()
        with pytest.raises(RuntimeError), blas_single_thread():
            raise RuntimeError
        assert self._counts() == before

    def test_unavailable_changes_nothing(self, monkeypatch):
        before = self._counts()
        monkeypatch.setattr(matalg, "_openblas_controls", lambda: [])
        with blas_single_thread() as pinned:
            assert pinned is False
            monkeypatch.undo()
            assert self._counts() == before

    def test_concurrent_pins_hold_and_restore(self):
        # more threads than cores entering and leaving pins at once: while
        # any pin is held the count is 1, and the last one out restores it
        before = self._counts()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        seen = []

        def worker():
            for _ in range(200):
                with blas_single_thread():
                    seen.append(self._counts())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 * 200
        assert all(counts == [1] * len(before) for counts in seen)
        assert self._counts() == before
