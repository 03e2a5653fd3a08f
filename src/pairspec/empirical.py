"""Empirical spectra of the matrix products and their verification.

Two kinds of statements are checked here and they have different
characters, reflected in the functions' contracts:

* exact finite-size identities -- the spectrum of X Y* equals the
  spectrum of Y* X padded with |N - P| zeros, and for N > P the product
  X Y† has at least N - P exactly-zero eigenvalues (the kernel of Y* is
  N - P dimensional).  These hold for every sample and are tested to
  numerical precision.
* asymptotic support statements -- eigenvalue clouds should fill the
  predicted ellipse/disc.  These hold in the large-N limit, so coverage
  is reported as fractions against a margin-dilated boundary and judged
  statistically by the caller.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ensembles import Dims, EnsembleParams, MatrixPair
from .errors import EmptyInput
from .matalg import eigenvalues, multiset_max_distance, pseudo_inverse, qr_factor
from .predict import (
    CONJ_TRANSPOSE,
    DiscSupport,
    EllipseSupport,
    _check_product_kind,
    normalised_radius,
)

__all__ = [
    "SpectrumSample",
    "CoverageReport",
    "spectrum",
    "reference_spectrum",
    "wa_identity_check",
    "wa_determinant_check",
    "default_zero_tol",
    "coverage",
    "mean_eigenvalue",
    "grand_mean",
]

# The determinant-form product-ordering check: shifts per pair, and the
# largest log-determinant gap it passes (clean pairs measure under 6e-14).
WA_SHIFTS = 2
WA_DET_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one product sample, with full provenance."""

    eigs: np.ndarray  # N complex values, unordered
    product_kind: str
    dims: Dims
    params: EnsembleParams
    seed: int


@dataclass(frozen=True)
class CoverageReport:
    """How one spectrum sits relative to a predicted support."""

    inside_fraction: float
    outlier_count: int
    max_excess: float  # largest outlier's normalised radius minus 1, else 0
    zero_count: int


def spectrum(
    pair: MatrixPair, product_kind: str, reduced: np.ndarray | None = None
) -> SpectrumSample:
    """Eigenvalues of X Y* or X Y† for one sampled pair (N values).

    The eigenproblem is solved at min(N, P), by the identity that
    :func:`wa_identity_check` verifies: for P < N the spectrum is that of
    a P x P matrix (Y* X, or Y† X) followed by N - P exact zeros.  For
    X Y† the matrix is ``qr_factor(Y).reduced(X)``, which forms no Y† and
    runs no SVD while Y has full rank, and reads the SVD's Y† where Y is
    numerically rank-deficient.  A caller that already holds the matrix
    passes it as ``reduced``, and only its eigensolve runs.  Real input
    is factored and solved in float64.
    """
    _check_product_kind(product_kind)
    x, y = pair.x_mat, pair.y_mat
    n, p = y.shape
    if reduced is None:
        if product_kind == CONJ_TRANSPOSE:
            reduced = y.conj().T @ x if p < n else x @ y.conj().T
        else:
            reduced = qr_factor(y).reduced(x)
    eigs = eigenvalues(reduced)
    if eigs.size < n:
        eigs = np.concatenate([eigs, np.zeros(n - eigs.size, np.complex128)])
    return SpectrumSample(eigs, product_kind, pair.dims, pair.params, pair.seed)


def reference_spectrum(pair: MatrixPair, product_kind: str) -> SpectrumSample:
    """Eigenvalues of X Y* or X Y† from the full N x N product.

    The reference path for :func:`spectrum`: Y† comes from the SVD
    pseudo-inverse, and every one of the N eigenvalues, kernel zeros
    included, comes out of the eigensolver.  Tests compare the two paths.
    """
    _check_product_kind(product_kind)
    if product_kind == CONJ_TRANSPOSE:
        m = pair.x_mat @ pair.y_mat.conj().T
    else:
        m = pair.x_mat @ pseudo_inverse(pair.y_mat).pinv
    return SpectrumSample(eigenvalues(m), product_kind, pair.dims, pair.params, pair.seed)


def wa_identity_check(pair: MatrixPair, tol: float = 1e-8) -> tuple[bool, float]:
    """Exact spectral identity between the two product orderings.

    The nonzero spectrum of X Y* (N x N) coincides with that of
    Y* X (P x P); the larger product carries |N - P| extra zeros.  The
    two multisets are matched greedily and the largest pairing distance
    is returned alongside the verdict ``mismatch <= tol * scale``, where
    scale is the largest |eigenvalue|, so the verdict is scale-free.
    """
    big = eigenvalues(pair.x_mat @ pair.y_mat.conj().T)
    small = eigenvalues(pair.y_mat.conj().T @ pair.x_mat)
    if small.size > big.size:
        big, small = small, big
    padded = np.concatenate([small, np.zeros(big.size - small.size, np.complex128)])
    mismatch = multiset_max_distance(big, padded)
    scale = float(np.max(np.abs(big)))
    return mismatch <= tol * scale, mismatch


def wa_determinant_check(pair: MatrixPair) -> tuple[bool, float]:
    """The product-ordering identity in determinant form, no eigensolver.

    Weinstein-Aronszajn: det(I_N - X Y*/z) = det(I_P - Y* X/z) for every
    z != 0.  Both sides are compared by ``slogdet`` at WA_SHIFTS points
    evenly spaced on a circle of radius 1.5 max(||X Y*||_F, ||Y* X||_F),
    turned by an angle drawn from the pair's seed.  On that circle both
    products divided by z have 2-norm at most 2/3, so each shifted matrix
    is well conditioned.  Returns the verdict ``gap <= WA_DET_TOL`` and
    the gap, the largest |log det(I - X Y*/z) - log det(I - Y* X/z)|
    (phases wrapped).  Each product is shifted in place, the smaller
    first, so at most both products and one LU copy are alive at once.
    """
    x, yh = pair.x_mat, pair.y_mat.conj().T
    products = [x @ yh, yh @ x]  # X Y* (N x N), Y* X (P x P)
    del yh  # Y*, a conjugate copy for complex Y, goes before the LU copies
    products.sort(key=len, reverse=True)  # the smaller one is popped first
    radius = 1.5 * max(float(np.linalg.norm(m)) for m in products) or 1.0
    turn = np.random.default_rng(pair.seed).uniform(0.0, 2.0 * np.pi)
    zs = radius * np.exp(1j * (turn + 2.0 * np.pi * np.arange(WA_SHIFTS) / WA_SHIFTS))
    small = _shifted_log_dets(np.asarray(products.pop(), np.complex128), zs)
    big = _shifted_log_dets(np.asarray(products.pop(), np.complex128), zs)
    gap = max(
        abs(complex(lb - ls, cmath.phase(sb * ss.conjugate())))
        for (sb, lb), (ss, ls) in zip(big, small)
    )
    return gap <= WA_DET_TOL, gap


def _shifted_log_dets(m: np.ndarray, zs: np.ndarray) -> list[tuple[complex, float]]:
    """slogdet(I - m/z) at each shift z, overwriting the complex matrix m."""
    diag = m.diagonal().copy()
    logs = []
    factor = 1.0
    for z in zs:
        m *= -1.0 / (z * factor)  # m now holds the original times -1/z
        factor = -1.0 / z
        np.fill_diagonal(m, 1.0 + factor * diag)
        sign, logabs = np.linalg.slogdet(m)
        logs.append((complex(sign), float(logabs)))
    return logs


def default_zero_tol(eigs: np.ndarray) -> float:
    """Threshold separating exact-rank-deficiency zeros from the bulk.

    Zeros of X Y† arise from an exactly rank-deficient factor, so they
    land at numerical noise level many orders below the bulk; 1e-8 times
    the median bulk magnitude splits the two cleanly at all tested sizes.
    """
    a = np.abs(np.asarray(eigs, dtype=np.complex128).ravel())
    if a.size == 0 or not np.any(a > 0.0):
        return 1e-8
    bulk = a[a > 1e-10 * a.max()]
    return 1e-8 * float(np.median(bulk))


def coverage(
    sample: SpectrumSample,
    support: EllipseSupport | DiscSupport,
    margin: float = 0.0,
) -> CoverageReport:
    """Classify every eigenvalue against the margin-dilated support.

    Eigenvalues at or below :func:`default_zero_tol`, the one zero rule,
    are the zero atom: inside exactly when the support has one.  Any other
    eigenvalue is an outlier when its excess, ``normalised_radius - 1``,
    is positive; ``max_excess`` is the largest outlier excess, or 0.  The
    report is unchanged when the eigenvalues and the support scale by the
    same power of two.
    """
    eigs = sample.eigs
    is_zero = np.abs(eigs) <= default_zero_tol(eigs)
    excess = normalised_radius(support, eigs, margin) - 1.0
    outliers = np.where(is_zero, not support.zero_atom, excess > 0.0)
    outlier_count = int(outliers.sum())
    return CoverageReport(
        inside_fraction=1.0 - outlier_count / eigs.size,
        outlier_count=outlier_count,
        max_excess=float(np.max(excess[outliers], initial=0.0)),
        zero_count=int(is_zero.sum()),
    )


def mean_eigenvalue(samples: Iterable[SpectrumSample]) -> tuple[complex, float]:
    """Grand mean eigenvalue across trials, with its standard error.

    The mean averages every eigenvalue with equal weight; the standard
    error comes from the scatter of per-trial means (total complex
    variance of the trial means over the trial count), which assumes the
    trials share dimensions.  With a single trial the error is reported
    as 0.
    """
    samples = list(samples)
    return grand_mean([np.sum(s.eigs) for s in samples], [s.eigs.size for s in samples])


def grand_mean(
    trial_sums: Sequence[complex], trial_sizes: Sequence[int]
) -> tuple[complex, float]:
    """:func:`mean_eigenvalue` from each trial's eigenvalue sum and count.

    Callers that keep only these two scalars per trial get the same
    result, bit for bit, as from the full spectra.
    """
    if not len(trial_sums):
        raise EmptyInput("mean_eigenvalue needs at least one sample")
    trial_means = np.asarray(trial_sums, np.complex128) / np.asarray(trial_sizes)
    total = sum(int(k) for k in trial_sizes)
    grand = complex(sum(complex(s) for s in trial_sums) / total)
    t = trial_means.size
    if t < 2:
        return grand, 0.0
    scatter = float(np.mean(np.abs(trial_means - trial_means.mean()) ** 2))
    se = np.sqrt(scatter / (t - 1))
    return grand, float(se)
