"""Correctness checks computed apart from the program under test.

Supports and mean eigenvalues come from the paper's closed forms written
out here, not from ``pairspec.predict``.  Trace identities go through a
Gram-matrix solve, never through an SVD, so they do not share a code
path with ``pairspec.matalg.pseudo_inverse``.  Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import math
from typing import Any, Iterable

import numpy as np

# Written out rather than read from pairspec, so a dropped or renamed
# check shows up as a missing one.
CHECK_NAMES = (
    "penrose",
    "weinstein_aronszajn",
    "zero_atoms",
    "coverage",
    "disc_equivalence",
    "mean_eigenvalue",
    "rotation",
)
COVERAGE_FLOOR = 0.995
COVERAGE_MARGIN = 0.1
# Looser than the program's own 4 SE gate, so a statistical miss is the
# program's fail status first, yet a mean 5 SE off is still rejected.
MEAN_SE_LIMIT = 4.5
TRACE_RTOL = 1e-9
ZERO_RTOL = 1e-8


# ---------------------------------------------------------------------------
# closed forms


def ellipse(sx: float, sy: float, tau: complex, alpha: float) -> tuple[complex, float, float, float]:
    """X Y* support: (center, semi-major, semi-minor, rotation)."""
    t2 = min(abs(tau) ** 2, 1.0)
    s = sx * sy
    return s * (1.0 + alpha) * tau, s * math.sqrt(alpha) * (1.0 + t2), s * math.sqrt(alpha) * (1.0 - t2), cmath.phase(tau)


def disc(sx: float, sy: float, tau: complex, alpha: float) -> tuple[complex, float]:
    """X Y† support: (center, radius); beta = max(alpha, 1/alpha)."""
    beta = max(alpha, 1.0 / alpha)
    t2 = min(abs(tau) ** 2, 1.0)
    return (sx / sy) * tau, (sx / sy) * math.sqrt((1.0 - t2) / (beta - 1.0))


def mean_prediction(sx: float, sy: float, tau: complex, alpha: float, product: str) -> complex:
    """E[trace]/N: alpha*tau*sx*sy for X Y*, tau*(sx/sy)*min(1, alpha) for X Y†."""
    if product == "conj_transpose":
        return alpha * tau * sx * sy
    return tau * (sx / sy) * min(1.0, alpha)


# ---------------------------------------------------------------------------
# spectrum-level checks


def zero_tol(eigs: np.ndarray) -> float:
    """Kernel zeros sit at rounding level, far below the largest eigenvalue."""
    return ZERO_RTOL * max(float(np.max(np.abs(eigs), initial=0.0)), 1e-300)


def inside_fraction(
    eigs: np.ndarray, product: str, sx: float, sy: float, tau: complex, alpha: float,
    margin: float = COVERAGE_MARGIN,
) -> float:
    """Share of eigenvalues in the (1 + margin)-dilated closed-form support.

    Kernel zeros count as inside exactly when alpha < 1, where the support
    carries an atom at the origin.
    """
    eigs = np.asarray(eigs, dtype=np.complex128)
    if product == "conj_transpose":
        c, a, b, rot = ellipse(sx, sy, tau, alpha)
        w = (eigs - c) * cmath.exp(-1j * rot)
        a *= 1.0 + margin
        b = max(b * (1.0 + margin), 1e-12)
        inside = (w.real / a) ** 2 + (w.imag / b) ** 2 <= 1.0
    else:
        c, r = disc(sx, sy, tau, alpha)
        inside = np.abs(eigs - c) <= r * (1.0 + margin)
    if alpha < 1.0:
        inside |= np.abs(eigs) <= zero_tol(eigs)
    return float(np.count_nonzero(inside)) / eigs.size


def gram_trace(x: np.ndarray, y: np.ndarray, product: str) -> complex:
    """trace(X Y*), or trace(X Y†) through a Gram solve with no SVD.

    For full-rank Y, Y† = (Y*Y)^-1 Y* when P <= N and Y*(YY*)^-1 when
    P > N; either way trace(X Y†) = trace(G^-1 M) with G the smaller Gram
    matrix and M the matching product of X and Y*.
    """
    yh = y.conj().T
    if product == "conj_transpose":
        return complex(np.einsum("ij,ji->", x, yh))
    n, p = y.shape
    if p <= n:
        return complex(np.trace(np.linalg.solve(yh @ y, yh @ x)))
    return complex(np.trace(np.linalg.solve(y @ yh, x @ yh)))


def pinv_frobenius_sq(y: np.ndarray) -> float:
    """||Y†||_F^2 = trace(G^-1) for the smaller Gram matrix G, no SVD."""
    n, p = y.shape
    gram = y.conj().T @ y if p <= n else y @ y.conj().T
    return float(np.trace(np.linalg.inv(gram)).real)


def mean_se_real(y: np.ndarray, product: str, sx: float, sy: float, tau: float) -> float:
    """Standard error of the mean eigenvalue of one real-kind trial.

    X Y*: each of the N*P terms x*y has variance (1 + tau^2) sx^2 sy^2 / N^2.
    X Y†: given Y, X = tau (sx/sy) Y + sx sqrt(1 - tau^2) W with W
    independent N(0, 1/N) entries, so trace(X Y†) has conditional variance
    sx^2 (1 - tau^2) ||Y†||_F^2 / N around its closed-form mean.
    """
    n, p = y.shape
    if product == "conj_transpose":
        return sx * sy * math.sqrt(p * (1.0 + tau * tau) / n) / n
    return sx * math.sqrt((1.0 - tau * tau) * pinv_frobenius_sq(y) / n) / n


def check_trial(
    eigs: np.ndarray, x: np.ndarray, y: np.ndarray, product: str,
    sx: float, sy: float, tau: float, coverage_floor: float = COVERAGE_FLOOR,
) -> list[str]:
    """Every independent check on one real-kind (product, alpha) trial."""
    eigs = np.asarray(eigs, dtype=np.complex128)
    n, p = x.shape
    alpha = p / n
    problems = []
    if eigs.shape != (n,) or not np.all(np.isfinite(eigs)):
        return [f"expected {n} finite eigenvalues, got shape {eigs.shape}"]
    total = complex(np.sum(eigs))
    want = gram_trace(x, y, product)
    scale = max(1.0, float(np.sum(np.abs(eigs))))
    if abs(total - want) > TRACE_RTOL * scale:
        problems.append(f"sum of eigenvalues {total} != trace {want}")
    if alpha < 1.0:
        zeros = int(np.count_nonzero(np.abs(eigs) <= zero_tol(eigs)))
        if zeros < n - p:
            problems.append(f"{zeros} kernel zeros < N - P = {n - p}")
    frac = inside_fraction(eigs, product, sx, sy, tau, alpha)
    if frac < coverage_floor:
        problems.append(f"coverage {frac:.4f} < {coverage_floor}")
    pred = mean_prediction(sx, sy, tau, alpha, product)
    se = mean_se_real(y, product, sx, sy, tau)
    if not mean_within(total / n, pred, se):
        problems.append(f"mean {total / n} is more than {MEAN_SE_LIMIT} SE ({se:.3g}) from {pred}")
    return problems


def mean_within(mean: complex, pred: complex, se: float, limit: float = MEAN_SE_LIMIT) -> bool:
    if se > 0.0:
        return abs(mean - pred) <= limit * se
    return abs(mean - pred) <= 1e-9


# ---------------------------------------------------------------------------
# report-level checks


def non_finite_paths(obj: Any, path: str = "") -> list[str]:
    """JSON paths of every NaN or infinite number in a parsed report."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path or "."]
    if isinstance(obj, dict):
        return [q for k, v in obj.items() for q in non_finite_paths(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [q for i, v in enumerate(obj) for q in non_finite_paths(v, f"{path}[{i}]")]
    return []


def check_report(
    report: dict, dims: Iterable[tuple[int, int]], trials: int, tau: complex,
    sx: float = 1.0, sy: float = 1.0, product: str = "pseudo_inverse",
    coverage_floor: float | None = COVERAGE_FLOOR,
) -> dict[str, list[str]]:
    """Problems per check name in one verify report.

    ``coverage_floor`` None skips the inside-fraction floor, for grids so
    small that finite-size spill past the support is expected.
    """
    dims = [tuple(d) for d in dims]
    by_name = {c.get("name"): c for c in report.get("checks", [])}
    cfg = report.get("config", {})
    wrong_config = [] if (
        [tuple(d) for d in cfg.get("dims", [])] == dims
        and complex(*cfg.get("tau", [math.nan, 0.0])) == tau
    ) else [f"report is for dims {cfg.get('dims')}, tau {cfg.get('tau')}"]

    def samples(stats: dict) -> list[str]:
        want = len(dims) * trials
        return [] if stats["samples"] == want else [f"samples {stats['samples']} != trials x dims = {want}"]

    def mean(stats: dict) -> list[str]:
        out = _count(stats["per_dims"], len(dims))
        for entry in stats["per_dims"]:
            pred = mean_prediction(sx, sy, tau, entry["p"] / entry["n"], product)
            got_pred = complex(entry["predicted_re"], entry["predicted_im"])
            if abs(got_pred - pred) > 1e-12 * max(1.0, abs(pred)):
                out.append(f"prediction {got_pred} != closed form {pred}")
            got = complex(entry["mean_re"], entry["mean_im"])
            if not mean_within(got, pred, entry["standard_error"]):
                out.append(f"mean {got} more than {MEAN_SE_LIMIT} SE from {pred} at dims ({entry['n']}, {entry['p']})")
        return out

    def rotation(stats: dict) -> list[str]:
        if mean_within(stats["mean_deviation"], 0.0, stats["joint_standard_error"]):
            return []
        return [f"rotated mean off by {stats['mean_deviation']}"]

    def zero_atoms(stats: dict) -> list[str]:
        entries = stats.get("per_dims", [])
        out = _count(entries, sum(p < n for n, p in dims))
        for entry in entries:
            if entry["min_zero_count"] < entry["n"] - entry["p"]:
                out.append(f"{entry['min_zero_count']} kernel zeros < N - P at dims ({entry['n']}, {entry['p']})")
        return out

    def coverage(stats: dict) -> list[str]:
        out = _count(stats["per_dims"], len(dims))
        for entry in stats["per_dims"]:
            at = f"at dims ({entry['n']}, {entry['p']})"
            if coverage_floor is not None and not entry["inside_fraction"] >= coverage_floor:
                out.append(f"coverage {entry['inside_fraction']} < {coverage_floor} {at}")
            if entry["p"] < entry["n"] and entry["zero_count_total"] < trials * (entry["n"] - entry["p"]):
                out.append(f"kernel zeros {entry['zero_count_total']} < trials x (N - P) {at}")
        return out

    detail = {
        "penrose": samples,
        "weinstein_aronszajn": samples,
        "zero_atoms": zero_atoms,
        "coverage": coverage,
        "mean_eigenvalue": mean,
        "rotation": rotation,
    }
    problems: dict[str, list[str]] = {}
    for name in CHECK_NAMES:
        found = problems[name] = list(wrong_config)
        check = by_name.get(name)
        if check is None:
            found.append("missing from report")
            continue
        if check.get("status") not in ("pass", "advisory"):
            found.append(f"status {check.get('status')!r}")
        bad = non_finite_paths(check)
        if bad:
            found.append(f"non-finite values at {bad}")
        if name in detail:
            try:
                found += detail[name](check["stats"])
            except (KeyError, TypeError, ZeroDivisionError) as exc:
                found.append(f"malformed stats: {exc!r}")
    return problems


def _count(entries: list, want: int) -> list[str]:
    return [] if len(entries) == want else [f"{len(entries)} dims entries, want {want}"]
