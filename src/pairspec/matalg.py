"""Dense matrix kernels: pseudo-inverse, Penrose checks, spectra.

Thin, validating wrappers around LAPACK via numpy.  The pseudo-inverse is
computed from the SVD with an explicit relative cutoff so that the
effective rank is part of the result, and eigenvalue extraction maps
LAPACK failure modes onto this package's error types.  Real input stays
real (float64), so it runs the cheaper real LAPACK routines; complex
input is complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrix, NoConvergence, NonFinite, NonSquare, ShapeMismatch

__all__ = [
    "PinvResult",
    "pseudo_inverse",
    "penrose_residuals",
    "eigenvalues",
    "multiset_max_distance",
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
    ga = g @ a
    return {
        "aga": float(np.linalg.norm(ag @ a - a) / norm_a),
        "gag": float(np.linalg.norm(ga @ g - g) / norm_g),
        "ag_hermitian": float(np.linalg.norm(ag - ag.conj().T) / max(norm_a, 1.0)),
        "ga_hermitian": float(np.linalg.norm(ga - ga.conj().T) / max(norm_g, 1.0)),
    }


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
