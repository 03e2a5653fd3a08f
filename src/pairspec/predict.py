"""Closed-form spectral-support predictions for the two matrix products.

For a correlated pair (X, Y) with aspect ratio alpha = P/N, the limiting
spectrum of the conjugate-transpose product X Y* fills an ellipse

    center     sigma_x * sigma_y * (1 + alpha) * tau
    semi-axes  sigma_x * sigma_y * sqrt(alpha) * (1 +/- |tau|^2)

with the major axis along arg(tau), plus an atom at 0 when alpha < 1.
The pseudo-inverse product X Y† fills a disc

    center  (sigma_x / sigma_y) * tau
    radius  (sigma_x / sigma_y) * sqrt((1 - |tau|^2) / (beta - 1))

with beta = max(alpha, 1/alpha), again plus a zero atom when alpha < 1.
The square-aspect case alpha = 1 has no disc prediction (the radius
formula degenerates) and is rejected outright.

Every support is classified in its own units: :func:`normalised_radius`
is lambda's distance from the centre in units of the dilated boundary,
which sits at 1, and membership is a normalised radius <= 1 (supports
are closed; boundary points are measure-zero).  The zero atom adds
exactly lambda == 0; telling numerical zeros from the bulk is left to
``empirical.default_zero_tol``, the one zero rule.

An independent route to the disc is also provided: the per-eigenvalue
squared correlation ``tau_lambda_sq`` characterises membership via
tau_lambda_sq(lambda) <= min(alpha, 1/alpha), and must agree with the
disc inequality away from the boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleParams
from .errors import AlphaOneUnsupported, LambdaZero

__all__ = [
    "CONJ_TRANSPOSE",
    "PSEUDO_INVERSE",
    "PRODUCT_KINDS",
    "EllipseSupport",
    "DiscSupport",
    "ellipse_support",
    "disc_support",
    "normalised_radius",
    "support_contains",
    "zero_in_ellipse",
    "tau_lambda_sq",
    "in_support_via_tau",
    "mean_eigenvalue_prediction",
    "boundary_points",
]

CONJ_TRANSPOSE = "conj_transpose"
PSEUDO_INVERSE = "pseudo_inverse"
PRODUCT_KINDS = (CONJ_TRANSPOSE, PSEUDO_INVERSE)

# A collapsed disc radius or ellipse minor axis (|tau| = 1) is floored at
# this fraction of the support's own extent -- semi_major for an ellipse,
# max(radius, |center|) for a disc -- so the floor scales with sigma.
_COLLAPSE_FLOOR = 1e-12


def _check_product_kind(product_kind: str) -> None:
    if product_kind not in PRODUCT_KINDS:
        raise ValueError(
            f"unknown product_kind {product_kind!r}; expected one of {PRODUCT_KINDS}"
        )


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return alpha


@dataclass(frozen=True)
class EllipseSupport:
    """Elliptic support of the conjugate-transpose product spectrum."""

    center: complex
    semi_major: float  # along the axis at angle `rotation`
    semi_minor: float  # along the perpendicular axis
    rotation: float  # radians
    zero_atom: bool


@dataclass(frozen=True)
class DiscSupport:
    """Disc support of the pseudo-inverse product spectrum."""

    center: complex
    radius: float
    zero_atom: bool


def ellipse_support(params: EnsembleParams, alpha: float) -> EllipseSupport:
    """Predicted support of the X Y* spectrum at aspect ratio ``alpha``.

    For |tau| = 1 the ellipse degenerates to a segment (semi_minor = 0);
    for tau = 0 it is the centered disc of radius sigma_x*sigma_y*sqrt(alpha).
    """
    alpha = _check_alpha(alpha)
    scale = params.sigma_x * params.sigma_y
    t2 = min(abs(params.tau) ** 2, 1.0)
    root = math.sqrt(alpha)
    return EllipseSupport(
        center=scale * (1.0 + alpha) * params.tau,
        semi_major=scale * root * (1.0 + t2),
        semi_minor=scale * root * (1.0 - t2),
        rotation=cmath.phase(params.tau),
        zero_atom=alpha < 1.0,
    )


def disc_support(params: EnsembleParams, alpha: float) -> DiscSupport:
    """Predicted support of the X Y† spectrum at aspect ratio ``alpha``.

    Defined only away from the square aspect: at alpha = 1 the radius
    formula blows up and no prediction exists, so the construction fails.
    """
    alpha = _check_alpha(alpha)
    if alpha == 1.0:
        raise AlphaOneUnsupported(
            "no disc prediction exists for square aspect (alpha = 1)"
        )
    beta = max(alpha, 1.0 / alpha)
    ratio = params.sigma_x / params.sigma_y
    t2 = min(abs(params.tau) ** 2, 1.0)
    return DiscSupport(
        center=ratio * params.tau,
        radius=ratio * math.sqrt((1.0 - t2) / (beta - 1.0)),
        zero_atom=alpha < 1.0,
    )


def normalised_radius(
    support: EllipseSupport | DiscSupport,
    lam: complex | np.ndarray,
    margin: float = 0.0,
) -> np.ndarray:
    """Distance of lambda from the centre, the dilated boundary sitting at 1.

    |lambda - center| / (radius * (1 + margin)) for a disc, the square
    root of the quadratic form with semi-axes times (1 + margin) for an
    ellipse.  A collapsed radius or minor axis is floored at 1e-12 of
    the support's own extent, so scaling lambda and the support by the
    same factor leaves the result unchanged.  The zero atom plays no part.
    """
    if margin < 0.0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    z = np.asarray(lam, dtype=np.complex128)
    grow = 1.0 + margin
    if isinstance(support, DiscSupport):
        radius = max(support.radius, _COLLAPSE_FLOOR * abs(support.center))
        return np.abs(z - support.center) / (radius * grow)
    w = (z - support.center) * cmath.exp(-1j * support.rotation)
    a = support.semi_major * grow
    b = max(support.semi_minor * grow, _COLLAPSE_FLOOR * a)
    return np.sqrt((w.real / a) ** 2 + (w.imag / b) ** 2)


def support_contains(
    support: EllipseSupport | DiscSupport,
    lam: complex | np.ndarray,
    margin: float = 0.0,
):
    """Closed membership test against the margin-dilated support.

    Membership is ``normalised_radius(support, lam, margin) <= 1``; when
    the support carries a zero atom, lambda == 0 exactly is a member too.
    Accepts a scalar or an array of eigenvalues; returns a matching bool
    or bool array.
    """
    z = np.asarray(lam, dtype=np.complex128)
    inside = normalised_radius(support, z, margin) <= 1.0
    if support.zero_atom:
        inside = inside | (z == 0)
    return bool(inside) if z.ndim == 0 else inside


def zero_in_ellipse(tau: complex, alpha: float) -> bool:
    """Whether 0 belongs to the X Y* support: |tau|^2 <= 1/alpha."""
    alpha = _check_alpha(alpha)
    return abs(complex(tau)) ** 2 <= 1.0 / alpha


def tau_lambda_sq(params: EnsembleParams, lam: complex) -> float:
    """Squared correlation of the pair conditioned at spectral point ``lam``.

    Equals the squared correlation between the entry fields y and x/lam;
    always lies in [0, 1], reaching 1 exactly in the fully correlated
    degenerate direction.
    """
    lam = complex(lam)
    if lam == 0:
        raise LambdaZero("tau_lambda_sq is undefined at lambda = 0")
    sx, sy = params.sigma_x, params.sigma_y
    cross = 2.0 * sx * sy * (params.tau / lam).real
    abs2 = abs(lam) ** 2
    num = sy**2 - cross + abs(params.tau) ** 2 * sx**2 / abs2
    den = sy**2 - cross + sx**2 / abs2
    if den <= 1e-300:
        # Only reachable in the |tau| = 1 degenerate direction, where the
        # correlation is total.
        return 1.0
    return min(max(num / den, 0.0), 1.0)


def in_support_via_tau(params: EnsembleParams, alpha: float, lam: complex) -> bool:
    """Disc membership via the correlation route: tau_lambda_sq <= 1/beta.

    Independent of :func:`disc_support`; the two must agree except within
    numerical distance of the boundary circle.
    """
    alpha = _check_alpha(alpha)
    if alpha == 1.0:
        raise AlphaOneUnsupported(
            "the correlation membership test needs alpha != 1"
        )
    return tau_lambda_sq(params, lam) <= min(alpha, 1.0 / alpha)


def mean_eigenvalue_prediction(
    params: EnsembleParams, alpha: float, product_kind: str
) -> complex:
    """Exact expectation of the mean eigenvalue of the chosen product.

    From E[trace(X Y*)]/N = alpha * tau * sigma_x * sigma_y, and, using
    E[X | Y] = tau * (sigma_x/sigma_y) * Y together with
    trace(Y Y†) = min(N, P) almost surely,
    E[trace(X Y†)]/N = tau * (sigma_x/sigma_y) * min(1, alpha).
    """
    alpha = _check_alpha(alpha)
    _check_product_kind(product_kind)
    if product_kind == CONJ_TRANSPOSE:
        return alpha * params.tau * params.sigma_x * params.sigma_y
    return params.tau * (params.sigma_x / params.sigma_y) * min(1.0, alpha)


def boundary_points(
    support: EllipseSupport | DiscSupport, count: int = 512
) -> np.ndarray:
    """Evenly parameterised closed boundary curve as ``count`` complex points."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    t = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    if isinstance(support, DiscSupport):
        return support.center + support.radius * np.exp(1j * t)
    w = support.semi_major * np.cos(t) + 1j * support.semi_minor * np.sin(t)
    return support.center + w * cmath.exp(1j * support.rotation)
