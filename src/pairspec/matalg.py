"""Dense matrix kernels: pseudo-inverse, Penrose checks, spectra.

Thin, validating wrappers around LAPACK via numpy.  The pseudo-inverse is
computed from the SVD with an explicit relative cutoff so that the
effective rank is part of the result, and eigenvalue extraction maps
LAPACK failure modes onto this package's error types.  Real input stays
real (float64), so it runs the cheaper real LAPACK routines; complex
input is complex128.  :func:`blas_single_thread` pins OpenBLAS to one
thread for a block of work.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import EmptyMatrix, NoConvergence, NonFinite, NonSquare, ShapeMismatch

__all__ = [
    "PinvResult",
    "pseudo_inverse",
    "penrose_residuals",
    "eigenvalues",
    "multiset_max_distance",
    "blas_single_thread",
]


def _as_matrix(a: np.ndarray, caller: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"{caller} expects a 2-d array, got ndim={a.ndim}")
    if a.size == 0:
        raise EmptyMatrix(f"{caller} got an empty {a.shape} matrix")
    if not np.all(np.isfinite(a)):
        raise NonFinite(f"{caller} got non-finite entries")
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


@dataclass(frozen=True)
class PinvResult:
    """Moore-Penrose pseudo-inverse with the rank decision that produced it."""

    pinv: np.ndarray
    rank: int
    cutoff: float  # absolute singular-value threshold actually applied


def pseudo_inverse(a: np.ndarray, rtol: float | None = None) -> PinvResult:
    """Moore-Penrose pseudo-inverse of ``a`` via SVD truncation.

    Singular values at or below ``rtol * s_max`` are treated as zero;
    ``rtol`` defaults to ``max(a.shape) * eps`` for complex128, matching
    the usual numerical-rank convention.
    """
    a = _as_matrix(a, "pseudo_inverse")
    if rtol is None:
        rtol = max(a.shape) * np.finfo(np.complex128).eps
    if rtol < 0.0:
        raise ValueError(f"rtol must be non-negative, got {rtol}")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cutoff = float(rtol * s[0]) if s.size else 0.0
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    pinv = (vh.conj().T * inv_s) @ u.conj().T
    return PinvResult(pinv=pinv, rank=rank, cutoff=cutoff)


def penrose_residuals(a: np.ndarray, a_pinv: np.ndarray) -> dict[str, float]:
    """Frobenius residuals of the four defining pseudo-inverse identities.

    Each residual is normalised by the Frobenius norm of its left-hand
    side's leading factor (``a`` or ``a_pinv``), so a residual of 1e-12
    means the identity holds to roughly machine precision regardless of
    the matrix scale.
    """
    a = _as_matrix(a, "penrose_residuals")
    g = _as_matrix(a_pinv, "penrose_residuals")
    if g.shape != (a.shape[1], a.shape[0]):
        raise ShapeMismatch(
            f"pinv shape {g.shape} incompatible with matrix shape {a.shape}"
        )
    norm_a = np.linalg.norm(a)
    norm_g = np.linalg.norm(g)
    ag = a @ g
    aga = float(np.linalg.norm(ag @ a - a) / norm_a)
    ag_hermitian = _hermitian_residual(ag) / max(norm_a, 1.0)
    del ag  # one square product at a time
    ga = g @ a
    return {
        "aga": aga,
        "gag": float(np.linalg.norm(ga @ g - g) / norm_g),
        "ag_hermitian": ag_hermitian,
        "ga_hermitian": _hermitian_residual(ga) / max(norm_g, 1.0),
    }


def _hermitian_residual(m: np.ndarray) -> float:
    """Frobenius norm of m - m*, built in eight row blocks, no full conjugate copy."""
    rows = -(-m.shape[0] // 8)
    total = 0.0
    for i in range(0, m.shape[0], rows):
        d = m[i : i + rows] - m[:, i : i + rows].conj().T
        total += float(np.vdot(d, d).real)
    return math.sqrt(total)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square matrix, unordered, as complex128.

    A real matrix's non-real eigenvalues come in exact conjugate pairs.
    """
    a = _as_matrix(a, "eigenvalues")
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"eigenvalues needs a square matrix, got {a.shape}")
    try:
        # eigvals returns a real array when a real matrix has only real
        # eigenvalues; callers always get complex128.
        return np.linalg.eigvals(a).astype(np.complex128, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def multiset_max_distance(left: np.ndarray, right: np.ndarray) -> float:
    """Largest pairing distance between two equal-size complex multisets.

    Both sides are sorted lexicographically by (real, imag) and then
    paired greedily: each left value takes its nearest remaining right
    value.  For multisets that agree up to small perturbations this finds
    a near-optimal pairing at O(k^2) cost, which is all the identity
    checks here need.
    """
    left = np.sort_complex(np.asarray(left, dtype=np.complex128).ravel())
    right = np.sort_complex(np.asarray(right, dtype=np.complex128).ravel())
    if left.shape != right.shape:
        raise ValueError(
            f"multisets differ in size: {left.size} vs {right.size}"
        )
    if left.size == 0:
        return 0.0
    remaining = right.copy()
    alive = np.ones(remaining.size, dtype=bool)
    worst = 0.0
    for lv in left:
        dist = np.abs(remaining - lv)
        dist[~alive] = np.inf
        j = int(np.argmin(dist))
        worst = max(worst, float(dist[j]))
        alive[j] = False
    return worst


# OpenBLAS thread-count entry points, by build: scipy-openblas wheels (as
# numpy bundles them) prefix "scipy_", 64-bit-integer builds suffix "64_".
_OPENBLAS_GET_SET = [
    (f"{pre}openblas_get_num_threads{suf}", f"{pre}openblas_set_num_threads{suf}")
    for pre in ("scipy_", "")
    for suf in ("64_", "")
]


class _PhdrInfo(ctypes.Structure):
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


def _openblas_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) thread-count functions of every OpenBLAS already loaded.

    The loaded libraries are listed with dl_iterate_phdr and reopened with
    RTLD_NOLOAD, so nothing new is loaded.  Empty where the platform has
    neither, or no OpenBLAS is loaded.
    """
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
        noload = os.RTLD_NOLOAD
    except AttributeError:
        return []
    names: list[bytes] = []
    visit_type = ctypes.CFUNCTYPE(
        ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t, ctypes.c_void_p
    )
    iterate.argtypes, iterate.restype = [visit_type, ctypes.c_void_p], ctypes.c_int

    def visit(info, _size, _data) -> int:
        name = info.contents.name
        if name and b"openblas" in name.lower():
            names.append(name)
        return 0

    callback = visit_type(visit)  # referenced until the call returns
    iterate(callback, None)
    controls = []
    for name in names:
        try:
            lib = ctypes.CDLL(os.fsdecode(name), mode=noload)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_GET_SET:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[tuple[Callable[[int], None], int]] = []


@contextlib.contextmanager
def blas_single_thread() -> Iterator[bool]:
    """Run the block with OpenBLAS at one thread; yield whether it is pinned.

    OpenBLAS keeps one thread count for the whole process (in a pthreads
    build even openblas_set_num_threads_local changes it for every
    thread), so pins nest and overlap by count: the first one in saves
    each loaded OpenBLAS's count and sets it to 1, the last one out puts
    the saved counts back.  With no OpenBLAS loaded nothing changes and
    the block gets False.
    """
    global _pin_depth
    controls = _openblas_controls()
    if not controls:
        yield False
        return
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved[:] = [(set_, get()) for get, set_ in controls]
            for _, set_ in controls:
                set_(1)
        _pin_depth += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for set_, count in _pin_saved:
                    set_(count)
