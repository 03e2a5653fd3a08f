"""Correlated Gaussian matrix-pair ensembles.

A pair (X, Y) of N x P matrices has corresponding entries (x, y) drawn
jointly i.i.d. Gaussian with per-entry covariance Sigma / N, where

    Sigma = [[sigma_x^2,                 tau * sigma_x * sigma_y],
             [conj(tau) * sigma_x * sigma_y,         sigma_y^2]]

so that E[x * conj(y)] = tau * sigma_x * sigma_y / N.  Three entry kinds
are supported:

``real``
    Purely real entries, held as float64; tau must be real.
``complex_independent``
    Complex entries whose real and imaginary parts are independent real
    pairs, carrying fractions ``split`` and ``1 - split`` of the variance
    respectively; tau must be real.
``complex_general``
    Circularly-symmetric complex entries; tau may be complex.

Sampling uses a whitening construction: draw independent standard entry
fields u, v (each with E|u|^2 = 1/N), then set

    x = sigma_x * u
    y = sigma_y * (conj(tau) * u + sqrt(1 - |tau|^2) * v)

which realises the covariance above exactly and avoids factorising the
rank-deficient 4x4 real covariance of the ``real`` kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComplexTauInRealKind, NonPositiveSigma, TauOutOfUnitDisc

__all__ = [
    "REAL",
    "COMPLEX_INDEPENDENT",
    "COMPLEX_GENERAL",
    "KINDS",
    "EnsembleParams",
    "Dims",
    "MatrixPair",
    "validate_params",
    "mixing_coefficients",
    "sample_pair",
    "entry_covariance",
]

REAL = "real"
COMPLEX_INDEPENDENT = "complex_independent"
COMPLEX_GENERAL = "complex_general"
KINDS = (REAL, COMPLEX_INDEPENDENT, COMPLEX_GENERAL)

# |tau| may overshoot 1 by this much before being rejected (rounding slack).
TAU_UNIT_SLACK = 1e-12


@dataclass(frozen=True)
class EnsembleParams:
    """Entry-distribution parameters; fully determines the ensemble."""

    sigma_x: float
    sigma_y: float
    tau: complex
    kind: str = COMPLEX_GENERAL
    split: float = 0.5  # real-part variance fraction, complex_independent only

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_x", float(self.sigma_x))
        object.__setattr__(self, "sigma_y", float(self.sigma_y))
        object.__setattr__(self, "tau", complex(self.tau))
        object.__setattr__(self, "split", float(self.split))


@dataclass(frozen=True)
class Dims:
    """Matrix shape (n rows, p columns); aspect ratio alpha = p / n."""

    n: int
    p: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1:
            raise ValueError(f"dims must be positive, got n={self.n}, p={self.p}")

    @property
    def alpha(self) -> float:
        return self.p / self.n


@dataclass(frozen=True)
class MatrixPair:
    """One sampled (X, Y) with its provenance."""

    x_mat: np.ndarray
    y_mat: np.ndarray
    params: EnsembleParams
    dims: Dims
    seed: int


def validate_params(params: EnsembleParams) -> None:
    """Raise unless ``params`` satisfies all ensemble invariants."""
    if params.kind not in KINDS:
        raise ValueError(f"unknown kind {params.kind!r}; expected one of {KINDS}")
    if params.sigma_x <= 0.0 or not math.isfinite(params.sigma_x):
        raise NonPositiveSigma(f"sigma_x must be positive, got {params.sigma_x}")
    if params.sigma_y <= 0.0 or not math.isfinite(params.sigma_y):
        raise NonPositiveSigma(f"sigma_y must be positive, got {params.sigma_y}")
    if not abs(params.tau) <= 1.0 + TAU_UNIT_SLACK:  # also rejects NaN
        raise TauOutOfUnitDisc(f"|tau| = {abs(params.tau)} is not at most 1")
    if params.kind in (REAL, COMPLEX_INDEPENDENT) and params.tau.imag != 0.0:
        raise ComplexTauInRealKind(
            f"kind {params.kind!r} requires real tau, got {params.tau}"
        )
    if params.kind == COMPLEX_INDEPENDENT and not 0.0 < params.split < 1.0:
        raise ValueError(f"split must lie in (0, 1), got {params.split}")


def mixing_coefficients(params: EnsembleParams) -> tuple[complex, float]:
    """Whitening coefficients (a, b) with y = sigma_y * (a*u + b*v).

    With u, v independent standard entries, a = conj(tau) and
    b = sqrt(1 - |tau|^2) give E[x * conj(y)] = tau * sigma_x * sigma_y
    * E|u|^2 and E|y|^2 = sigma_y^2 * E|u|^2.
    """
    validate_params(params)
    a = params.tau.conjugate()
    b = math.sqrt(max(0.0, 1.0 - abs(params.tau) ** 2))
    return a, b


def _standard_field(
    rng: np.random.Generator, shape: tuple[int, int], scale: float, im_scale: float | None
) -> np.ndarray:
    """Real standard normals times ``scale``, or with an imaginary part too.

    Each part is scaled before it is stored, the real block drawn first.
    """
    re = rng.standard_normal(shape)
    re *= scale
    if im_scale is None:
        return re
    field = np.empty(shape, np.complex128)
    field.real = re
    del re
    im = rng.standard_normal(shape)
    im *= im_scale
    field.imag = im
    return field


def sample_pair(params: EnsembleParams, dims: Dims, seed: int) -> MatrixPair:
    """Draw one matrix pair; identical (params, dims, seed) is bit-identical.

    Standard fields are drawn in a fixed order (u before v; for complex
    kinds, real block before imaginary block) from a PCG64 stream keyed by
    ``seed``, so the output is reproducible across calls and processes.
    The ``real`` kind gives float64 matrices, the complex kinds complex128.
    u and v are mixed in place, with one temporary (a * u), each product
    and sum taken as in x = sigma_x * u and y = sigma_y * (a * u + b * v),
    so the draws are those of that formula bit for bit (but for the sign
    of a zero, should a standard normal come out exactly 0).
    """
    validate_params(params)
    a, b = mixing_coefficients(params)
    n, p = dims.n, dims.p
    shape = (n, p)
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)

    if params.kind == REAL:
        # Real entries stay float64; tau is real here, so a is too.
        a = a.real
        scale, im_scale = 1.0 / math.sqrt(n), None
    elif params.kind == COMPLEX_INDEPENDENT:
        scale = math.sqrt(params.split / n)
        im_scale = math.sqrt((1.0 - params.split) / n)
    else:
        scale = im_scale = 1.0 / math.sqrt(2.0 * n)
    u = _standard_field(rng, shape, scale, im_scale)
    v = _standard_field(rng, shape, scale, im_scale)

    y = v
    y *= b
    y += a * u
    y *= params.sigma_y
    x = u
    x *= params.sigma_x
    return MatrixPair(x_mat=x, y_mat=y, params=params, dims=dims, seed=int(seed))


def entry_covariance(params: EnsembleParams) -> np.ndarray:
    """Population covariance of (Re x, Im x, Re y, Im y), scaled by N.

    Computed analytically from the whitening construction, not from
    samples; used to compare kinds at matched parameters.
    """
    validate_params(params)
    sx2 = params.sigma_x**2
    sy2 = params.sigma_y**2
    c = params.sigma_x * params.sigma_y
    t1, t2 = params.tau.real, params.tau.imag

    if params.kind == REAL:
        gamma = np.zeros((4, 4))
        gamma[0, 0] = sx2
        gamma[2, 2] = sy2
        gamma[0, 2] = gamma[2, 0] = t1 * c
        return gamma

    if params.kind == COMPLEX_INDEPENDENT:
        s = params.split
        gamma = np.zeros((4, 4))
        gamma[0, 0] = s * sx2
        gamma[1, 1] = (1.0 - s) * sx2
        gamma[2, 2] = s * sy2
        gamma[3, 3] = (1.0 - s) * sy2
        gamma[0, 2] = gamma[2, 0] = s * t1 * c
        gamma[1, 3] = gamma[3, 1] = (1.0 - s) * t1 * c
        return gamma

    return 0.5 * np.array(
        [
            [sx2, 0.0, t1 * c, -t2 * c],
            [0.0, sx2, t2 * c, t1 * c],
            [t1 * c, t2 * c, sy2, 0.0],
            [-t2 * c, t1 * c, 0.0, sy2],
        ]
    )
