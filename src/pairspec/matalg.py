"""Dense matrix kernels: pseudo-inverses, Penrose checks, spectra.

Thin, validating wrappers around LAPACK via numpy.  How Y is factored is
decided here and nowhere else: :func:`qr_factor` runs one reduced QR of Y
for Y†, X Y†'s spectrum matrix and Y†'s kernel certificate; where R is
numerically singular the same factor carries the SVD pseudo-inverse in
place of R, so no caller branches on Y's rank.  That QR runs in place, in
one column-major copy of Y, through the LAPACK routines of the OpenBLAS
that numpy itself calls, found through numpy's LAPACK extension at the
first factorisation; elsewhere np.linalg.qr runs instead, with the same bits.
:func:`pseudo_inverse` is that SVD, and the reference path: it applies an
explicit relative cutoff so that the effective rank is part of the result.
Both tests of rank use one cutoff, max(N, P) * eps relative to the largest
value.  Eigenvalue extraction maps LAPACK failure modes onto this
package's error types.  Real input stays real (float64), so it runs the
cheaper real LAPACK routines; complex input is complex128.
:func:`blas_single_thread` pins that same OpenBLAS, the one numpy's
LAPACK calls and GEMMs run in, to one thread for a block of work.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
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
    "QRFactor",
    "qr_factor",
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


def _rank_rtol(shape: tuple[int, ...]) -> float:
    """Relative cutoff of numerical rank: max(N, P) * eps of float64."""
    return max(shape) * np.finfo(np.float64).eps


def pseudo_inverse(a: np.ndarray) -> PinvResult:
    """Moore-Penrose pseudo-inverse of ``a`` via SVD truncation.

    Singular values at or below ``max(a.shape) * eps * s_max`` are treated
    as zero, the usual numerical-rank convention.
    """
    a = _as_matrix(a, "pseudo_inverse")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cutoff = float(_rank_rtol(a.shape) * s[0]) if s.size else 0.0
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    pinv = (vh.conj().T * inv_s) @ u.conj().T
    return PinvResult(pinv=pinv, rank=rank, cutoff=cutoff)


@dataclass(frozen=True)
class QRFactor:
    """Y's pseudo-inverse, from a QR of the N x P matrix Y or its SVD.

    For P < N it factors Y = QR, so Y† = R^-1 Q*; for P >= N it factors
    Y* = QR, so Y† = Q R^-* = (R^-1 Q*)*.  R is min(N, P) square.  Where R
    is numerically singular, R is None and ``svd_pinv`` holds
    :func:`pseudo_inverse`'s Y†, which the methods return from; Q is kept
    only for P < N, where its span still holds range(Y), so that I - QQ*
    still projects into Y†'s kernel.  Q and R are np.linalg.qr's, bit for
    bit, whichever way :func:`qr_factor` computed them.
    """

    q: np.ndarray | None
    r: np.ndarray | None
    tall: bool  # P < N: Y = QR; otherwise Y* = QR
    svd_pinv: np.ndarray | None = None

    def reduced(self, x: np.ndarray) -> np.ndarray:
        """The min(N, P)-square matrix whose eigenvalues are X Y†'s, less N - P zeros.

        For P < N it is Y† X, whose eigenvalues X Y† shares: R^-1 Q* X, or
        the SVD's Y† times X.  For P >= N it is R^-* X Q, similar to
        X Q R^-*, or X times the SVD's Y†.
        """
        if self.svd_pinv is not None:
            return self.svd_pinv @ x if self.tall else x @ self.svd_pinv
        if self.tall:
            return np.linalg.solve(self.r, self.q.conj().T @ x)
        return np.linalg.solve(self.r.conj().T, x @ self.q)

    def pinv(self) -> np.ndarray:
        """Y†, P x N: R^-1 Q*, or its conjugate transpose when Y* was factored."""
        if self.svd_pinv is not None:
            return self.svd_pinv
        g = np.linalg.solve(self.r, self.q.conj().T)
        return g if self.tall else g.conj().T

    def kernel_residual(self, x: np.ndarray, pinv: np.ndarray) -> float:
        """||X (Y† - (Y† Q) Q*)||_F / (||X||_F ||Y†||_F) for P < N, ``pinv`` being Y†.

        I - QQ* projects onto range(Y)'s orthogonal complement, N - P
        orthonormal directions; at rounding level the residual shows them
        to be kernel vectors of X Y†: N - P zero eigenvalues, with no
        eigensolve.  A zero product reads 0.
        """
        residual = float(np.linalg.norm(x @ (pinv - (pinv @ self.q) @ self.q.conj().T)))
        return residual / float(np.linalg.norm(x) * np.linalg.norm(pinv)) if residual else 0.0


def qr_factor(a: np.ndarray) -> QRFactor:
    """Factor ``a`` (or a* when it is not tall) by one reduced QR.

    The QR runs as ?geqrf then ?orgqr (?ungqr for complex entries) on one
    column-major copy of ``a`` or a*, in the OpenBLAS that numpy calls; Q
    comes back row-major.  Where that library does not export them,
    np.linalg.qr runs instead, which computes the same Q and R through
    about four copies.  Where R is numerically singular, min |r_ii| <=
    max(N, P) * eps * max |r_ii| (the SVD's own cutoff scale), the factor
    holds ``pseudo_inverse(a).pinv`` in place of R, and of Q unless ``a``
    is tall.
    """
    a = _as_matrix(a, "qr_factor")
    tall = a.shape[1] < a.shape[0]
    routines = _lapack_qr().get(a.dtype)
    if routines is None:
        q, r = np.linalg.qr(a if tall else a.conj().T)
    else:
        q, r = _householder_qr(a, tall, *routines)
    diag = np.abs(np.diagonal(r))
    if not diag.min() > _rank_rtol(a.shape) * diag.max():
        q, r = (q if tall else None), None  # R goes before the SVD; a tall Q stays
        return QRFactor(q, None, tall, pseudo_inverse(a).pinv)
    return QRFactor(q, r, tall)


def _householder_qr(
    a: np.ndarray, tall: bool, geqrf: Callable[..., None], orgqr: Callable[..., None]
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced Q and R of ``a`` (or a* when not ``tall``), factored in one copy.

    The copy is column-major, as LAPACK wants it: ``geqrf`` leaves R in its
    upper triangle and the Householder vectors below, then ``orgqr`` (or
    ``ungqr``) overwrites it with Q, which is returned in row-major order.
    Both run with the workspace sizes np.linalg.qr gives them, so Q and R
    are its bits.
    """
    # a* in column-major order is conj(a) in row-major order, transposed
    buf = a.copy(order="F") if tall else np.conjugate(a, order="C").T
    m, k = buf.shape  # m >= k
    tau = np.empty(k, buf.dtype)
    m_ref, k_ref = ctypes.byref(ctypes.c_int64(m)), ctypes.byref(ctypes.c_int64(k))
    matrix = (buf.ctypes.data, m_ref, tau.ctypes.data)  # A, LDA = M, TAU
    doubles = buf.itemsize // 8  # float64 values per entry
    _lapack_call(geqrf, (m_ref, k_ref, *matrix), k, doubles)
    r = np.triu(buf[:k])
    _lapack_call(orgqr, (m_ref, k_ref, k_ref, *matrix), k, doubles)
    return np.ascontiguousarray(buf), r


def _lapack_call(routine: Callable[..., None], args: tuple, cols: int, doubles: int) -> None:
    """routine(*args, WORK, LWORK, INFO), its workspace sized as numpy sizes it.

    A workspace query first, then the call with max(1, cols, optimal)
    entries of workspace, as numpy's own LAPACK calls take them; an entry
    is ``doubles`` float64 values.
    """
    lwork, info = ctypes.c_int64(-1), ctypes.c_int64(0)

    def call(work: ctypes.Array) -> None:
        routine(*args, work, ctypes.byref(lwork), ctypes.byref(info))
        if info.value:
            raise ValueError(f"LAPACK rejected its argument {-info.value}")

    query = (ctypes.c_double * doubles)()
    call(query)
    lwork.value = max(1, cols, int(query[0]))  # the optimal size is the real part
    call((ctypes.c_double * (doubles * lwork.value))())


def penrose_residuals(a: np.ndarray, a_pinv: np.ndarray) -> dict[str, float]:
    """Frobenius residuals of the four defining pseudo-inverse identities.

    Each residual is relative to the quantity its identity is about:
    ||AGA - A|| / ||A||, ||GAG - G|| / ||G||, ||AG - (AG)*|| / ||AG|| and
    ||GA - (GA)*|| / ||GA||, each reading 0 where its residual is 0, so a
    zero A, G or product reads 0, not 0/0.
    Scaling A by s and G by 1/s leaves all four unchanged, so a residual
    of 1e-12 means the identity holds to roughly machine precision at any
    scale of ``a``.
    """
    a = _as_matrix(a, "penrose_residuals")
    g = _as_matrix(a_pinv, "penrose_residuals")
    if g.shape != (a.shape[1], a.shape[0]):
        raise ShapeMismatch(
            f"pinv shape {g.shape} incompatible with matrix shape {a.shape}"
        )
    if a.shape[1] >= a.shape[0]:
        aga, gag, ag_h, ga_h = _penrose_wide(a, g)
    else:  # P < N: the identities are the wide case's with A and G swapped
        gag, aga, ga_h, ag_h = _penrose_wide(g, a)
    return {"aga": aga, "gag": gag, "ag_hermitian": ag_h, "ga_hermitian": ga_h}


def _penrose_wide(a: np.ndarray, g: np.ndarray) -> tuple[float, float, float, float]:
    """:func:`penrose_residuals`' four values for an A no taller than wide.

    Both triple products go through the smaller square A G; G A is formed
    only for its Hermitian residual, so one square product is alive at a time.
    """
    ag = a @ g
    aga = _relative(ag @ a - a, a)
    gag = _relative(g @ ag - g, g)
    ag_hermitian = _hermitian_residual(ag)
    del ag
    return aga, gag, ag_hermitian, _hermitian_residual(g @ a)


def _relative(residual: np.ndarray, of: np.ndarray) -> float:
    """||residual|| / ||of||; a zero residual reads 0, also where ``of`` is 0."""
    norm = float(np.linalg.norm(residual))
    return norm / float(np.linalg.norm(of)) if norm else 0.0


def _hermitian_residual(m: np.ndarray) -> float:
    """||m - m*|| / ||m||, m - m* built in eight row blocks, no full conjugate copy.

    A zero m is Hermitian and reads 0.
    """
    rows = -(-m.shape[0] // 8)
    total = 0.0
    for i in range(0, m.shape[0], rows):
        d = m[i : i + rows] - m[:, i : i + rows].conj().T
        total += float(np.vdot(d, d).real)
    return math.sqrt(total) / float(np.linalg.norm(m)) if total else 0.0


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


@functools.cache
def _numpy_lapack() -> ctypes.CDLL | None:
    """numpy's LAPACK extension as a ctypes handle, reopened once, loading nothing.

    A symbol looked up through it is searched for in the extension and the
    libraries it links: the function numpy's own calls resolve to, in the
    OpenBLAS its GEMMs run in too.  None, which has no symbols, where there
    is no RTLD_NOLOAD (Windows) or the extension cannot be reopened.
    """
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError):  # no such module, no file, no RTLD_NOLOAD
        return None


def _openblas_controls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) thread-count functions of the OpenBLAS numpy calls; None if none."""
    lib = _numpy_lapack()
    for get_name, set_name in _OPENBLAS_GET_SET:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


# LAPACK's reduced QR as numpy's bundled OpenBLAS (scipy-openblas64, 64-bit
# integers) exports it, by entry type: the factorisation, then Q from it.
_QR_ROUTINES = {
    np.dtype(np.float64): ("scipy_dgeqrf_64_", "scipy_dorgqr_64_"),
    np.dtype(np.complex128): ("scipy_zgeqrf_64_", "scipy_zungqr_64_"),
}


@functools.cache
def _lapack_qr() -> dict[np.dtype, tuple[Callable[..., None], Callable[..., None]]]:
    """(?geqrf, ?orgqr or ?ungqr) by entry type, from the OpenBLAS numpy calls.

    Looked up once per process, at the first call, through numpy's own
    LAPACK extension, as :func:`blas_single_thread`'s controls are.  Empty
    where it exports not all four; :func:`qr_factor` then runs np.linalg.qr.
    """
    lib = _numpy_lapack()
    if not all(hasattr(lib, name) for pair in _QR_ROUTINES.values() for name in pair):
        return {}
    int_p, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    found = {}
    for dtype, names in _QR_ROUTINES.items():
        geqrf, orgqr = (getattr(lib, name) for name in names)
        # M, N (and K for ?orgqr), A, LDA, TAU, WORK, LWORK, INFO
        geqrf.argtypes = [int_p] * 2 + [ptr, int_p, ptr, ptr, int_p, int_p]
        orgqr.argtypes = [int_p] * 3 + [ptr, int_p, ptr, ptr, int_p, int_p]
        geqrf.restype = orgqr.restype = None
        found[dtype] = (geqrf, orgqr)
    return found


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = 0  # the thread count the first pin in found


@contextlib.contextmanager
def blas_single_thread() -> Iterator[bool]:
    """Run the block with OpenBLAS at one thread; yield whether it is pinned.

    OpenBLAS keeps one thread count for the whole process (in a pthreads
    build even openblas_set_num_threads_local changes it for every
    thread), so pins nest and overlap by count: the first one in saves the
    count and sets it to 1, the last one out puts it back.  The OpenBLAS is
    the one numpy calls, found through numpy's own LAPACK extension; where
    there is none to pin, nothing changes and the block gets False.
    """
    global _pin_depth, _pin_saved
    controls = _openblas_controls()
    if controls is None:
        yield False
        return
    get, set_ = controls
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)
