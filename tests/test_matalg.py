"""Pseudo-inverse, Penrose diagnostics, eigensolver wrapper, matching."""

import ctypes
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

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
    qr_factor,
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

    @pytest.mark.parametrize("n, p", [(30, 12), (12, 30), (20, 20)])
    def test_triple_products_match_the_direct_forms(self, n, p):
        # an inexact pinv, so that every residual is far from rounding level
        a = _gaussian(n, p, seed=8)
        g = pseudo_inverse(a).pinv + 1e-3 * _gaussian(p, n, seed=9)
        ag, ga = a @ g, g @ a
        want = {
            "aga": np.linalg.norm(ag @ a - a) / np.linalg.norm(a),
            "gag": np.linalg.norm(ga @ g - g) / np.linalg.norm(g),
            "ag_hermitian": np.linalg.norm(ag - ag.conj().T) / np.linalg.norm(ag),
            "ga_hermitian": np.linalg.norm(ga - ga.conj().T) / np.linalg.norm(ga),
        }
        got = penrose_residuals(a, g)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-9)

    @pytest.mark.parametrize("n, p", [(30, 12), (12, 30)])
    def test_swapping_a_and_g_swaps_the_identities(self, n, p):
        # bit for bit: a tall A takes the wide path with A and G swapped
        a = _gaussian(n, p, seed=8)
        g = pseudo_inverse(a).pinv + 1e-3 * _gaussian(p, n, seed=9)
        got, swapped = penrose_residuals(a, g), penrose_residuals(g, a)
        assert got == {
            "aga": swapped["gag"],
            "gag": swapped["aga"],
            "ag_hermitian": swapped["ga_hermitian"],
            "ga_hermitian": swapped["ag_hermitian"],
        }

    def test_zero_product_reads_hermitian(self):
        # A G = 0 is Hermitian: its residual is 0, not 0/0
        a, g = np.array([[1.0, 0.0]]), np.array([[0.0], [1.0]])
        res = penrose_residuals(a, g)
        assert res["ag_hermitian"] == 0.0
        assert res["ga_hermitian"] == pytest.approx(np.sqrt(2.0))

    def test_zero_matrices_read_zero_not_nan(self):
        # 0 is the exact pseudo-inverse of 0; G = 0 misses only A G A = A
        keys = ("aga", "gag", "ag_hermitian", "ga_hermitian")
        assert penrose_residuals(np.zeros((2, 3)), np.zeros((3, 2))) == dict.fromkeys(keys, 0.0)
        res = penrose_residuals(np.ones((2, 3)), np.zeros((3, 2)))
        assert res == {"aga": 1.0, "gag": 0.0, "ag_hermitian": 0.0, "ga_hermitian": 0.0}

    # Each plant breaks one Hermitian identity by 1e-6 of ||G||, and keeps
    # the other three: Z = G W (I - Y G) when Y is tall, so that
    # (Y (G + Z))* = Y (G + Z) fails, and its mirror (I - G Y) W G when Y
    # is wide.  Each reads alike at every sigma_y.
    @pytest.mark.parametrize("sigma_y", [2.0**20, 1.0, 2.0**-20])
    @pytest.mark.parametrize("n, p, broken", [(40, 20, "ag_hermitian"), (20, 40, "ga_hermitian")])
    def test_planted_non_hermitian_product_fails_at_any_scale(self, sigma_y, n, p, broken):
        y = sigma_y * _gaussian(n, p, seed=11)
        g = qr_factor(y).pinv()
        w = _gaussian(max(n, p), max(n, p), seed=12)
        z = g @ w @ (np.eye(n) - y @ g) if p < n else (np.eye(p) - g @ y) @ w @ g
        z *= 1e-6 * np.linalg.norm(g) / np.linalg.norm(z)
        res = penrose_residuals(y, g + z)
        assert res[broken] > 1e-7
        assert max(v for key, v in res.items() if key != broken) <= 1e-13

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 100])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_blocked_hermitian_residual_matches_full_norm(self, size, complex_entries):
        m = _gaussian(size, size, seed=size, complex_entries=complex_entries)
        want = np.linalg.norm(m - m.conj().T) / np.linalg.norm(m)
        assert matalg._hermitian_residual(m) == pytest.approx(want, rel=1e-13)


class TestQRFactor:
    """qr_factor's pseudo-inverse against the SVD reference path."""

    @given(
        small=st.integers(1, 20),
        extra=st.integers(1, 20),
        shape=st.sampled_from(["tall", "wide", "square"]),
        complex_entries=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_pinv_matches_svd(self, small, extra, shape, complex_entries, seed):
        n, p = {"tall": (small + extra, small), "wide": (small, small + extra)}.get(
            shape, (small, small)
        )
        y = _gaussian(n, p, seed, complex_entries)
        got = qr_factor(y).pinv()
        ref = pseudo_inverse(y).pinv
        assert got.shape == ref.shape == (p, n)
        assert got.dtype == ref.dtype
        # both paths are backward stable: their gap scales with cond(Y)
        s = np.linalg.svd(y, compute_uv=False)
        tol = 16 * max(n, p) * np.finfo(np.float64).eps * s[0] / s[-1]
        assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)

    @pytest.mark.parametrize("n, p", [(40, 17), (25, 25), (17, 40)])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_pinv_satisfies_all_conditions(self, n, p, complex_entries):
        for scale in (2.0**-100, 1.0, 2.0**100):
            y = scale * _gaussian(n, p, seed=n + p, complex_entries=complex_entries)
            assert max(penrose_residuals(y, qr_factor(y).pinv()).values()) <= 1e-13

    @pytest.mark.parametrize("n, p", [(30, 12), (12, 30), (12, 12)])
    def test_repeated_column_or_row_is_singular(self, n, p):
        y = _gaussian(n, p, seed=3)
        if p <= n:
            y[:, 5] = y[:, 2]
        else:
            y[7, :] = y[3, :]
        ref = pseudo_inverse(y)
        assert ref.rank == min(n, p) - 1
        # R is dropped, and Q kept only where Y is tall, for the kernel
        # certificate; the factor carries the SVD's Y† bit for bit
        factor = qr_factor(y)
        assert factor.r is None
        assert (factor.q is not None) == (p < n)
        assert np.array_equal(factor.svd_pinv, ref.pinv)
        assert np.array_equal(factor.pinv(), ref.pinv)
        # the reduced matrix is min(N, P) square: Y† X where Y is tall, else X Y†
        x = _gaussian(n, p, seed=4)
        assert np.array_equal(factor.reduced(x), ref.pinv @ x if p < n else x @ ref.pinv)

    def test_nonfinite_rejected(self):
        y = _gaussian(6, 3, seed=4)
        y[1, 1] = np.nan
        with pytest.raises(NonFinite):
            qr_factor(y)


def _in_place_qr_or_skip():
    if not matalg._lapack_qr():
        pytest.skip("numpy's OpenBLAS does not export LAPACK's QR routines")


class TestInPlaceQR:
    """qr_factor's in-place LAPACK QR against np.linalg.qr, the reference path."""

    @pytest.mark.parametrize(
        "n, p", [(1, 1), (9, 1), (1, 9), (40, 17), (17, 40), (25, 25), (300, 140), (140, 300)]
    )
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_q_and_r_are_numpy_qr_bit_for_bit(self, monkeypatch, n, p, complex_entries):
        _in_place_qr_or_skip()
        y = _gaussian(n, p, seed=n * p, complex_entries=complex_entries)
        with blas_single_thread():  # LAPACK's bits depend on its thread count
            q, r = np.linalg.qr(y if p < n else y.conj().T)
            monkeypatch.setattr(np.linalg, "qr", None)  # only the in-place QR can run
            factor = qr_factor(y)
        assert factor.q.dtype == q.dtype and factor.r.dtype == r.dtype
        assert np.array_equal(factor.q, q) and np.array_equal(factor.r, r)
        assert factor.q.flags.c_contiguous
        assert factor.tall == (p < n)

    def test_y_that_is_not_contiguous_is_factored_as_a_copy(self):
        _in_place_qr_or_skip()
        y = _gaussian(60, 40, seed=5)
        for view in (y[::2], y[:, ::2], y.T):  # (30, 40), (60, 20) and (40, 60)
            before = view.copy()
            with blas_single_thread():
                factor = qr_factor(view)
                q, r = np.linalg.qr(view if factor.tall else view.conj().T)
            assert np.array_equal(factor.q, q) and np.array_equal(factor.r, r)
            assert np.array_equal(view, before)

    @pytest.mark.parametrize("n, p", [(30, 12), (12, 30), (12, 12)])
    def test_planted_rank_deficient_y_takes_the_svd_path(self, monkeypatch, n, p):
        _in_place_qr_or_skip()
        y = _gaussian(n, p, seed=3)
        if p <= n:
            y[:, 5] = y[:, 2]
        else:
            y[7, :] = y[3, :]
        ref = pseudo_inverse(y)
        monkeypatch.setattr(np.linalg, "qr", None)
        factor = qr_factor(y)
        assert factor.r is None
        assert np.array_equal(factor.svd_pinv, ref.pinv)

    @pytest.mark.parametrize("n, p", [(1, 1), (40, 17), (17, 40), (25, 25)])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_without_the_routines_numpy_qr_runs(self, monkeypatch, n, p, complex_entries):
        y = _gaussian(n, p, seed=n + p, complex_entries=complex_entries)
        calls = []
        real_qr, lookup = np.linalg.qr, matalg._lapack_qr.__wrapped__
        with blas_single_thread():
            fast = qr_factor(y)
            monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or real_qr(a))
            monkeypatch.setattr(matalg, "_lapack_qr", lambda: {})
            slow = qr_factor(y)
            # no handle to numpy's LAPACK extension: the uncached lookup finds nothing
            monkeypatch.setattr(matalg, "_numpy_lapack", lambda: None)
            monkeypatch.setattr(matalg, "_lapack_qr", lookup)
            unopened = qr_factor(y)
        assert calls == [(max(n, p), min(n, p))] * 2
        for factor in (slow, unopened):
            assert np.array_equal(factor.q, fast.q) and np.array_equal(factor.r, fast.r)

    def test_found_wherever_openblas_is_pinned(self):
        # a numpy wheel that stops exporting the routines fails here, rather
        # than falling back to np.linalg.qr unseen
        with blas_single_thread() as pinned:
            if not pinned:
                pytest.skip("no OpenBLAS to pin")
        assert set(matalg._lapack_qr()) == {np.dtype(np.float64), np.dtype(np.complex128)}

    def test_looked_up_at_the_first_factorisation_not_at_import(self):
        code = (
            "import numpy as np, pairspec\n"
            "from pairspec import matalg\n"
            "assert matalg._lapack_qr.cache_info().currsize == 0\n"
            "pairspec.qr_factor(np.eye(3))\n"
            "assert matalg._lapack_qr.cache_info().currsize == 1\n"
        )
        src = str(Path(matalg.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


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
    def _count(self):
        controls = matalg._openblas_controls()
        return None if controls is None else controls[0]()

    def test_pins_nests_and_restores(self):
        before = self._count()
        if before is None:
            pytest.skip("no OpenBLAS loaded")
        with blas_single_thread() as pinned:
            assert pinned is True
            assert self._count() == 1
            with blas_single_thread() as inner:
                assert inner is True
            assert self._count() == 1  # the outer pin still holds
        assert self._count() == before

    def test_restores_after_an_exception(self):
        before = self._count()
        with pytest.raises(RuntimeError), blas_single_thread():
            raise RuntimeError
        assert self._count() == before

    def test_unavailable_changes_nothing(self, monkeypatch):
        before = self._count()
        # no thread controls, or no handle to numpy's LAPACK extension to find them by
        for name in ("_openblas_controls", "_numpy_lapack"):
            monkeypatch.setattr(matalg, name, lambda: None)
            with blas_single_thread() as pinned:
                assert pinned is False
                monkeypatch.undo()
                assert self._count() == before

    def test_concurrent_pins_hold_and_restore(self):
        # more threads than cores entering and leaving pins at once: while
        # any pin is held the count is 1, and the last one out restores it
        before = self._count()
        if before is None:
            pytest.skip("no OpenBLAS loaded")
        seen = []

        def worker():
            for _ in range(200):
                with blas_single_thread():
                    seen.append(self._count())

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
        assert all(count == 1 for count in seen)
        assert self._count() == before

    def test_pins_the_openblas_numpy_multiplies_in(self):
        # numpy's multiarray extension runs X Y*, Q* X and the Penrose GEMMs:
        # the thread controls and QR routines found are the functions it resolves to
        with blas_single_thread() as pinned:
            if not pinned:
                pytest.skip("no OpenBLAS to pin")
        # numpy 2's extension, else numpy 1's (whose numpy._core is a shim)
        extension = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
            "numpy.core._multiarray_umath"
        )
        multiarray = ctypes.CDLL(extension.__file__, mode=os.RTLD_NOLOAD)
        found = list(matalg._openblas_controls())
        found += [f for pair in matalg._lapack_qr().values() for f in pair]
        assert len(found) == 6

        def address(f):
            return ctypes.cast(f, ctypes.c_void_p).value

        for f in found:
            assert address(f) == address(getattr(multiarray, f.__name__)), f.__name__

    def test_pinning_while_another_thread_imports_does_not_hang(self, tmp_path):
        # one thread pins in a loop while the main thread loads 400 copies of
        # an extension module; a pin that ran Python under the dynamic
        # loader's lock deadlocked against an import holding the GIL
        with blas_single_thread() as pinned:
            if not pinned:
                pytest.skip("no OpenBLAS to pin")
        suffixes = tuple(importlib.machinery.EXTENSION_SUFFIXES)
        specs = (importlib.util.find_spec(name) for name in ("_bisect", "_heapq", "_json", "_csv"))
        spec = next((s for s in specs if s and (s.origin or "").endswith(suffixes)), None)
        if spec is None:
            pytest.skip("no stdlib module here is a shared object")
        for i in range(400):
            (tmp_path / str(i)).mkdir()
            shutil.copy(spec.origin, tmp_path / str(i))
        code = (
            "import importlib.util, sys, threading\n"
            "from pathlib import Path\n"
            "from pairspec.matalg import blas_single_thread\n"
            "def pin():\n"
            "    while True:\n"
            "        with blas_single_thread():\n"
            "            pass\n"
            "threading.Thread(target=pin, daemon=True).start()\n"
            "for path in Path(sys.argv[2]).glob('*/*'):\n"
            "    spec = importlib.util.spec_from_file_location(sys.argv[1], path)\n"
            "    importlib.util.module_from_spec(spec)\n"
        )
        src = str(Path(matalg.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-c", code, spec.name, str(tmp_path)]
        try:
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("pinning while another thread imported hung for 60 s")
        assert done.returncode == 0, done.stderr
