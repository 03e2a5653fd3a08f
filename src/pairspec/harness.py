"""Experiment orchestration: configs, seeding, batch runs, reports.

Everything here is deterministic by construction.  A config plus the
package version fixes every random draw: per-trial seeds come from a
counter-based mixing function, trials run in order, and text outputs are
written with repr-exact floats and LF endings.  Every command does its
trial work with OpenBLAS pinned to one thread, so repeated runs produce
byte-identical CSVs and semantically identical JSON reports (wall time
aside) whatever the BLAS thread count; ``threads`` selects nothing.  The
output directory is each command's argument, not a config field, so no
report records it.

The ``verify`` command runs a configurable battery of checks; five reduce
one pass over ``sample``'s pairs, drawing each once, and every trial runs
on the calling thread.  Exact identities (Penrose conditions, the
product-ordering identity in determinant form, the zero atom's kernel
certificate, membership-route equivalence, the field-level parts of
rotation covariance) fail fatally when violated.  Statistical support-
coverage shortfalls are advisory -- the underlying support-convergence
statement is a conjecture at finite N -- and fatal under ``strict``, which
``_run_checks`` alone applies to the checks' own verdicts.  The exit code
is 0 iff no non-advisory check failed.  ``verify`` and ``sweep`` write
their reports through one pinned loop, ``_write_reports``.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, get_args, get_type_hints

import numpy as np

from ._version import PACKAGE_VERSION
from .ensembles import (
    COMPLEX_GENERAL,
    COMPLEX_INDEPENDENT,
    REAL,
    Dims,
    EnsembleParams,
    MatrixPair,
    sample_pair,
)
from .errors import AlphaOneUnsupported, ConfigError, PairspecError
from .empirical import (
    WA_DET_TOL,
    coverage,
    grand_mean,
    spectrum,
    wa_determinant_check,
)
from .matalg import blas_single_thread, penrose_residuals, qr_factor
from .predict import (
    CONJ_TRANSPOSE,
    PRODUCT_KINDS,
    PSEUDO_INVERSE,
    DiscSupport,
    EllipseSupport,
    boundary_points,
    disc_support,
    ellipse_support,
    in_support_via_tau,
    mean_eigenvalue_prediction,
    support_contains,
)

__all__ = [
    "CHECK_NAMES",
    "ExperimentConfig",
    "CheckResult",
    "VerificationReport",
    "derive_seed",
    "validate_config",
    "cmd_sample",
    "cmd_boundary",
    "cmd_verify",
    "cmd_sweep",
]

CHECK_NAMES = (
    "penrose",
    "weinstein_aronszajn",
    "zero_atoms",
    "coverage",
    "disc_equivalence",
    "mean_eigenvalue",
    "rotation",
)

# Fixed tolerances for the exact-identity checks.
PENROSE_TOL = 1e-10
KERNEL_TOL = 1e-13
EQUIV_DRAWS = 1000
EQUIV_BAND = 1e-9
COVERAGE_MIN_INSIDE = 0.995
SE_SIGMAS = 4.0
ROTATION_ANGLE = math.pi / 3.0
FIELD_TOL = 1e-12

# Seed-counter bases of the three streams; validate_config keeps them disjoint.
# Rotation and disc_equivalence keep the bases of 0.1.0, and so its draws.
_CHECK_SEED_STRIDE = 1_000_000
_EQUIV_SEED_BASE = 4 * _CHECK_SEED_STRIDE
_ROTATION_SEED_BASE = 6 * _CHECK_SEED_STRIDE
_SAMPLE_SEED_BASE = 7 * _CHECK_SEED_STRIDE

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(base_seed: int, trial_index: int) -> int:
    """Decorrelated per-trial seed from a base seed and a trial counter.

    The counter is spread by the golden-ratio multiplier, folded into the
    base seed by XOR, and passed through a splitmix-style avalanche
    (shift-XOR / odd-multiply rounds), all modulo 2^64.  Every step is a
    bijection of the 64-bit state, so for a fixed base seed distinct
    trial indices (mod 2^64) give distinct seeds.
    """
    z = (int(base_seed) ^ ((int(trial_index) * _GOLDEN) & _MASK64)) & _MASK64
    z = (z + _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _number(value: Any, name: str) -> float:
    """A finite int or float, as a float; a bool or a string is not a number."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int past float range
            if math.isfinite(value):
                return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _complex(value: Any, name: str) -> complex:
    """A number, a complex, or an [re, im] pair, all parts finite."""
    if isinstance(value, complex):
        value = (value.real, value.imag)
    if isinstance(value, (list, tuple)):
        return complex(*_parse(value, tuple[float, float], name))
    return complex(_number(value, name))


def _parse(value: Any, hint: Any, name: str) -> Any:
    """``value`` as a field annotated ``hint``, else ConfigError; nothing is coerced.

    A float is a finite number (:func:`_number`) and a complex a number or
    an [re, im] pair (:func:`_complex`); an int, str or bool must be of
    exactly that type, and a bool is not an int.  ``tuple[T, ...]`` is a
    list of T, each named by its index, and ``tuple[T, T]`` a pair.
    """
    if hint is float:
        return _number(value, name)
    if hint is complex:
        return _complex(value, name)
    args = get_args(hint)
    if args and args[-1] is Ellipsis:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_parse(v, args[0], f"{name}[{i}]") for i, v in enumerate(value))
    if args:
        if not (isinstance(value, (list, tuple)) and len(value) == len(args)):
            raise ConfigError(f"{name} must be a pair, got {value!r}")
        return tuple(_parse(v, t, name) for v, t in zip(value, args))
    if isinstance(value, hint) and not (hint is int and isinstance(value, bool)):
        return hint(value)
    want = "an integer" if hint is int else hint.__name__
    raise ConfigError(f"{name} must be {want}, got {value!r}")


def _json_form(value: Any) -> Any:
    """A field's value as JSON holds it: a tuple as a list, a complex as [re, im]."""
    if isinstance(value, tuple):
        return [_json_form(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run depends on; JSON round-trips exactly.

    Construction is the one parse-and-validate path: each field must have
    the type its annotation declares, the only statement of that type
    (:func:`_parse`; no coercion), and the result must pass
    :func:`validate_config`, else ConfigError.  So every instance is
    valid, and ``dataclasses.replace`` checks again.
    """

    sigma_x: float = 1.0
    sigma_y: float = 1.0
    tau: complex = 0.5 + 0.0j
    kind: str = COMPLEX_INDEPENDENT
    split: float = 0.5
    dims: tuple[tuple[int, int], ...] = ((400, 200),)
    product_kind: str = PSEUDO_INVERSE
    trials: int = 20
    base_seed: int = 20260822
    margin: float = 0.1
    checks: tuple[str, ...] = CHECK_NAMES
    strict: bool = False
    threads: int = 0  # selects nothing: every trial runs on the calling thread
    sweep_taus: tuple[complex, ...] = ()
    sweep_alphas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name, hint in _FIELD_TYPES.items():
            object.__setattr__(self, name, _parse(getattr(self, name), hint, name))
        validate_config(self)

    def ensemble_params(self, tau: complex | None = None) -> EnsembleParams:
        tau = self.tau if tau is None else tau
        return EnsembleParams(self.sigma_x, self.sigma_y, tau, self.kind, self.split)

    def to_json_dict(self) -> dict[str, Any]:
        return {name: _json_form(getattr(self, name)) for name in _FIELD_TYPES}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        unknown = set(data).difference(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # too many digits, too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


_FIELD_TYPES = get_type_hints(ExperimentConfig)  # each field's one declared type


def _sweep_p(alpha: float, n0: int) -> int:
    """Column count of a sweep cell with aspect ``alpha`` on n0 rows."""
    return max(1, round(alpha * n0))


def _trial_bytes(n: int, p: int, itemsize: int) -> int:
    """Peak bytes of one verify trial at (n, p); its steps run one at a time.

    In matrix entries, with m = max(n, p), s = min(n, p) and t = np where
    p < n, else 0 (the reduced Q that :func:`qr_factor` keeps for the
    kernel certificate when Y is tall, also where R is numerically
    singular): the pair, 2np, alive throughout, and the largest of the
    steps, one of: the SVD that :func:`qr_factor` runs in place of R
    wherever R is numerically singular, which any pair may take (numpy's
    copy of Y, U, Vh and the solver's real workspace) or the
    pseudo-inverse built from them, beside Q, 4np + 5s^2 + t; the
    Penrose check, the pseudo-inverse, one square product, a quarter-size
    block of its Hermitian residual and two np-sized residual terms,
    3np + 5m^2/4; or the determinant-form product-ordering check, both
    products and LAPACK's LU copy of one, under 2m^2 + s^2 entries that
    are complex whatever the kind.  The rest peak lower: the reduced QR (one
    column-major copy of Y or Y* that LAPACK factors in place, Q's row-major
    copy, R and the work array; or, where :func:`qr_factor` falls back to
    np.linalg.qr, its copies of Y or Y*, Q and R) under 4np + s^2; X Y†'s
    reduced matrix, s x s on every path, with its eigensolve, and Y† from
    the factor (Q, R, Q's conjugate, the solver's copies, the result) under
    the SVD's term; the kernel certificate at
    p < n, beside Q, R and Y†, first Y†Q, Q's conjugate, (Y†Q)Q* and its
    difference from Y†, under 4np + 2p^2, then the n x n X (Y† - (Y†Q)Q*),
    3np + p^2 + n^2, under the SVD's term where p >= n/2 and the Penrose
    check's below; sampling, 3np.  Q and R are freed before the square
    products.  Rotation's one complex pair peaks at 48np bytes whatever
    the kind, under the real trial's 16np + 8(4np + 5s^2).  Left out: O(m)
    workspace, OpenBLAS's buffers and the interpreter itself.
    """
    m, s, np_ = max(n, p), min(n, p), n * p
    t = np_ if p < n else 0  # the tall factor's Q, kept beside the SVD
    steps = max(4 * np_ + 5 * s * s + t, 3 * np_ + 5 * m * m // 4)
    return 2 * np_ * itemsize + max(steps * itemsize, (2 * m * m + s * s) * 16)


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError unless the config's values are in range and agree.

    Field types are checked before this runs, by the constructor, and the
    ensemble parameters by building them for ``tau`` and each sweep tau.
    Every sweep cell (sweep_taus x sweep_alphas) is checked here too, so a
    valid config is valid for every command.  Each dims entry and sweep cell
    must fit one trial's working set, :func:`_trial_bytes`, in physical
    memory.
    """
    try:
        for tau in (config.tau, *config.sweep_taus):
            config.ensemble_params(tau)
    except (PairspecError, ValueError) as exc:
        raise ConfigError(f"bad ensemble parameters: {exc}") from exc
    if config.product_kind not in PRODUCT_KINDS:
        raise ConfigError(
            f"product_kind must be one of {PRODUCT_KINDS}, got {config.product_kind!r}"
        )
    if not config.dims:
        raise ConfigError("dims must list at least one (n, p) shape")
    for n, p in config.dims:
        if n < 1 or p < 1:
            raise ConfigError(f"dims entries must be positive, got ({n}, {p})")
    n0 = config.dims[0][0]
    shapes = list(config.dims)  # then each sweep cell's, below
    for a in config.sweep_alphas:
        try:  # a sweep cell has p = a * n0
            finite = math.isfinite(a * n0)
        except OverflowError:  # n0 itself is past the float range
            finite = False
        if not (a > 0.0 and finite):
            raise ConfigError(
                f"sweep_alphas entries must be > 0 with alpha * n0 finite, got {a}"
            )
        p = _sweep_p(a, n0)
        shapes.append((n0, p))
        if config.product_kind == PSEUDO_INVERSE and p == n0 and a != 1.0:
            raise ConfigError(
                f"sweep alpha {a} rounds to the square shape ({n0}, {n0}) "
                f"at n0 = {n0}; pseudo_inverse has no prediction there"
            )
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    itemsize = 8 if config.kind == REAL else 16
    for n, p in shapes:
        need = _trial_bytes(n, p, itemsize)
        if need > memory:
            raise ConfigError(
                f"dims ({n}, {p}) need at least {need >> 30} GiB for one trial; "
                f"physical memory is {memory / 2**30:.1f} GiB"
            )
    if config.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {config.trials}")
    if config.trials * len(config.dims) > _CHECK_SEED_STRIDE:
        raise ConfigError(f"trials x len(dims) must be <= {_CHECK_SEED_STRIDE}")
    if config.base_seed < 0 or config.base_seed > _MASK64:
        raise ConfigError(f"base_seed must fit in 64 bits, got {config.base_seed}")
    if config.margin < 0.0:
        raise ConfigError(f"margin must be >= 0, got {config.margin}")
    bad = [c for c in config.checks if c not in CHECK_NAMES]
    if bad:
        raise ConfigError(f"unknown checks {bad}; known: {list(CHECK_NAMES)}")
    if not config.checks:
        raise ConfigError("checks must not be empty")
    if len(set(config.checks)) != len(config.checks):
        raise ConfigError(f"checks must not repeat, got {list(config.checks)}")
    if config.threads < 0:
        raise ConfigError(f"threads must be >= 0, got {config.threads}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    status: str  # "pass" | "fail" | "advisory"
    stats: dict[str, Any] = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Full outcome of a verify run, serialisable to JSON."""

    version: str
    config: dict[str, Any]
    checks: tuple[CheckResult, ...]
    overall: str  # "pass" | "fail"
    exit_code: int
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _pairs(config: ExperimentConfig, d_i: int) -> Iterator[MatrixPair]:
    """The sample stream's pairs at dims entry ``d_i``, in trial order.

    Trial t is drawn at derive_seed(base_seed, _SAMPLE_SEED_BASE +
    d_i * trials + t); validate_config keeps this stream clear of the
    others.  Each pair is drawn when it is asked for.
    """
    params, dims = config.ensemble_params(), Dims(*config.dims[d_i])
    base = _SAMPLE_SEED_BASE + d_i * config.trials
    for trial in range(config.trials):
        yield sample_pair(params, dims, derive_seed(config.base_seed, base + trial))


def _support(
    params: EnsembleParams, alpha: float, product_kind: str
) -> EllipseSupport | DiscSupport:
    """The product's predicted support; AlphaOneUnsupported for X Y† at alpha = 1."""
    if product_kind == CONJ_TRANSPOSE:
        return ellipse_support(params, alpha)
    return disc_support(params, alpha)


def _trial_records(config: ExperimentConfig) -> dict[str, list[list[Any]]]:
    """Draw each (dims, trial) pair once and reduce it for the enabled checks.

    Returns, for each check name, one list per dims entry of its per-trial
    scalars in trial order: the largest Penrose residual, the determinant-
    form product-ordering (verdict, gap), the kernel certificate's
    :meth:`QRFactor.kernel_residual` (p < n only), the CoverageReport, the
    product's trace (under ``mean_eigenvalue``), and, for the first dims
    entry only, the traces of X Y* of rotation's seed-matched base and
    rotated pairs.  A list stays empty unless its check is enabled.  Each
    dims entry's support is built once, here; where it cannot be,
    ``coverage`` gets the AlphaOneUnsupported raised in place of that
    entry's list.  The pairs come from :func:`_pairs`, as ``cmd_sample``'s
    do.

    Y is factored once per pair, by one reduced QR in :func:`qr_factor`,
    and that factor feeds X Y†'s reduced matrix (its eigensolve for
    ``coverage``, its trace for ``mean_eigenvalue``), then the explicit Y†
    that ``penrose`` reads and, for ``zero_atoms`` at p < n, the kernel
    certificate, which projects Y† through I - QQ*.  Q and R are freed
    before the square products.  Where R is numerically singular the
    factor holds the SVD's Y†: one SVD per pair, and no branch here.  The
    trace of X Y* is ``vdot(Y, X)``.  No eigensolve runs for
    ``mean_eigenvalue`` or ``zero_atoms``.  Everything runs on the calling
    thread, one step at a time (see :func:`_trial_bytes`).
    """
    on = set(config.checks)
    params = config.ensemble_params()
    records = {name: [[] for _ in config.dims] for name in CHECK_NAMES}
    kind = config.product_kind
    mean, penrose = "mean_eigenvalue" in on, "penrose" in on
    wa = "weinstein_aronszajn" in on
    for d_i, (n, p) in enumerate(config.dims):
        rec = {name: lists[d_i] for name, lists in records.items()}
        support = None
        if "coverage" in on:
            try:
                support = _support(params, p / n, kind)
            except AlphaOneUnsupported as exc:  # its traceback would pin this frame
                records["coverage"][d_i] = exc.with_traceback(None)
        zeros = "zero_atoms" in on and p < n
        reduce = kind == PSEUDO_INVERSE and (support is not None or mean)
        factored = reduce or penrose or zeros
        if not (factored or support is not None or mean or wa):
            continue
        for pair in _pairs(config, d_i):
            x, y = pair.x_mat, pair.y_mat
            if wa:
                rec["weinstein_aronszajn"].append(wa_determinant_check(pair))
            trace = sample = pinv = None
            if kind == CONJ_TRANSPOSE:  # X Y* needs no factor of Y
                trace = complex(np.vdot(y, x)) if mean else None
                sample = spectrum(pair, kind) if support is not None else None
            if factored:
                factor = qr_factor(y)
                if reduce:
                    m = factor.reduced(x)
                    trace = complex(np.trace(m))
                    if support is not None:
                        sample = spectrum(pair, kind, reduced=m)
                    m = None
                if penrose or zeros:
                    pinv = factor.pinv()
                if zeros:
                    rec["zero_atoms"].append(factor.kernel_residual(x, pinv))
                factor = None  # Q and R go before the square products
            if mean:
                rec["mean_eigenvalue"].append(trace)
            if sample is not None:
                rec["coverage"].append(coverage(sample, support, config.margin))
            if penrose:
                rec["penrose"].append(max(penrose_residuals(y, pinv).values()))
            pinv = None
    if "rotation" in on:
        dims = Dims(*config.dims[0])
        ensembles = _rotation_params(config)
        for trial in range(config.trials):
            seed = derive_seed(config.base_seed, _ROTATION_SEED_BASE + trial)
            sums = []
            for ensemble in ensembles:  # the base pair, then the rotated one
                pair = sample_pair(ensemble, dims, seed)
                sums.append(complex(np.vdot(pair.y_mat, pair.x_mat)))  # trace(X Y*)
                pair = None
            records["rotation"][0].append(tuple(sums))
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def _mean_ok(dev: float, se: float) -> bool:
    """The mean gate: ``dev`` within SE_SIGMAS standard errors, or 1e-9 where se is 0."""
    return dev <= SE_SIGMAS * se if se > 0.0 else dev <= 1e-9


# ---------------------------------------------------------------------------
# individual checks


def _check_penrose(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """All four pseudo-inverse defining identities hold to 1e-10."""
    residuals = [r for block in records for r in block]
    worst = max(residuals)
    return CheckResult(
        name="penrose",
        status="fail" if worst > PENROSE_TOL else "pass",
        stats={"max_residual": worst, "samples": len(residuals), "tol": PENROSE_TOL},
    )


def _check_wa(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """det(I - X Y*/z) equals det(I - Y* X/z) at every pair's shifts."""
    results = [r for block in records for r in block]
    worst = max(gap for _, gap in results)
    return CheckResult(
        name="weinstein_aronszajn",
        status="pass" if all(ok for ok, _ in results) else "fail",
        stats={"max_log_det_gap": worst, "samples": len(results), "tol": WA_DET_TOL},
    )


def _check_zero_atoms(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """X Y† at p < n: its kernel holds n - p orthonormal vectors, so >= n - p zeros.

    Each record is a pair's :meth:`QRFactor.kernel_residual`, which reads
    the kernel as range(Y)'s complement, I - QQ*, from the reduced QR that
    also gives Y†.  A residual above KERNEL_TOL fails fatally: that pair's
    n - p zeros are not certified.  ``min_zero_count`` is the fewest zeros
    certified in one trial, n - p when every residual passes and 0
    otherwise.  Only "at least" is exact, so no zero fraction is judged;
    and no eigensolve runs.
    """
    rect = [(n, p, r) for (n, p), r in zip(config.dims, records) if p < n]
    if not rect:
        return CheckResult(
            name="zero_atoms",
            status="pass",
            stats={"dims_checked": 0},
            note="no dims with p < n configured; nothing to check",
        )
    per_dims: list[dict[str, Any]] = []
    for n, p, residuals in rect:
        worst = max(residuals)
        per_dims.append(
            {
                "n": n,
                "p": p,
                "min_zero_count": n - p if worst <= KERNEL_TOL else 0,
                "max_certificate_residual": worst,
            }
        )
    fatal = any(d["max_certificate_residual"] > KERNEL_TOL for d in per_dims)
    return CheckResult(
        name="zero_atoms",
        status="fail" if fatal else "pass",
        stats={"dims_checked": len(rect), "per_dims": per_dims, "tol": KERNEL_TOL},
    )


def _check_coverage(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """Eigenvalue clouds fill the predicted margin-dilated support.

    :func:`coverage` classifies in the support's own units, so scaling
    sigma_x by a power of two moves no figure.  Support convergence at
    finite N is conjectural: an inside fraction below 99.5% is advisory,
    whatever ``strict`` (:func:`_run_checks` applies it).  A support that
    cannot be built (pseudo-inverse at alpha = 1) is a configuration
    failure and fatal; :func:`_trial_records` hands it over in place of
    the dims entry's reports.
    """
    per_dims: list[dict[str, Any]] = []
    fatal = False
    advisory = False
    note = ""
    for (n, p), reps in zip(config.dims, records):
        if isinstance(reps, AlphaOneUnsupported):
            fatal = True
            note = f"dims ({n}, {p}): {reps}"
            per_dims.append({"n": n, "p": p, "error": type(reps).__name__})
            continue
        frac = sum(n - r.outlier_count for r in reps) / (n * config.trials)
        advisory = advisory or frac < COVERAGE_MIN_INSIDE
        per_dims.append(
            {
                "n": n,
                "p": p,
                "inside_fraction": frac,
                "zero_count_total": sum(r.zero_count for r in reps),
                "max_excess": max(r.max_excess for r in reps),
                "margin": config.margin,
            }
        )
    return CheckResult(
        name="coverage",
        status="fail" if fatal else "advisory" if advisory else "pass",
        stats={"per_dims": per_dims, "min_inside_fraction": COVERAGE_MIN_INSIDE},
        note=note,
    )


def _check_disc_equivalence(
    config: ExperimentConfig, _records: list[list]
) -> CheckResult:
    """The correlation route and the disc inequality agree pointwise.

    Random parameters and probe points, each built at a normalised
    radius rho from the disc's centre; points with rho within 1e-9 of 1,
    the boundary, are excluded (the two routes may round a tie
    differently).  Any remaining disagreement is fatal.
    """
    rng = np.random.default_rng(derive_seed(config.base_seed, _EQUIV_SEED_BASE))
    draws = 0
    skipped_band = 0
    skipped_zero = 0
    disagreements = 0
    while draws < EQUIV_DRAWS:
        sigma_x = math.exp(rng.uniform(-0.7, 0.7))
        sigma_y = math.exp(rng.uniform(-0.7, 0.7))
        tau = rng.uniform(0.0, 0.99) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        alpha = rng.uniform(0.15, 4.0)
        if abs(alpha - 1.0) < 1e-3:
            continue
        params = EnsembleParams(sigma_x, sigma_y, tau, kind=COMPLEX_GENERAL)
        support = disc_support(params, alpha)
        rho = rng.uniform(0.0, 1.6)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        lam = support.center + support.radius * rho * cmath.exp(1j * phi)
        if lam == 0:  # the correlation route is undefined there
            skipped_zero += 1
            continue
        if abs(rho - 1.0) <= EQUIV_BAND:
            skipped_band += 1
            continue
        draws += 1
        via_tau = in_support_via_tau(params, alpha, lam)
        via_disc = bool(support_contains(support, lam))
        if via_tau != via_disc:
            disagreements += 1
    return CheckResult(
        name="disc_equivalence",
        status="fail" if disagreements else "pass",
        stats={
            "draws": draws,
            "skipped_band": skipped_band,
            "skipped_zero": skipped_zero,
            "disagreements": disagreements,
        },
    )


def _check_mean_eigenvalue(
    config: ExperimentConfig, records: list[list]
) -> CheckResult:
    """Grand mean eigenvalue matches its exact expectation within 4 SE."""
    params = config.ensemble_params()
    per_dims: list[dict[str, Any]] = []
    failed = False
    for (n, p), sums in zip(config.dims, records):
        mean, se = grand_mean(sums, [n] * len(sums))
        pred = mean_eigenvalue_prediction(params, p / n, config.product_kind)
        dev = abs(mean - pred)
        failed = failed or not _mean_ok(dev, se)
        per_dims.append(
            {
                "n": n,
                "p": p,
                "mean_re": mean.real,
                "mean_im": mean.imag,
                "predicted_re": pred.real,
                "predicted_im": pred.imag,
                "standard_error": se,
                "deviation": dev,
            }
        )
    return CheckResult(
        name="mean_eigenvalue",
        status="fail" if failed else "pass",
        stats={"per_dims": per_dims, "se_sigmas": SE_SIGMAS},
    )


def _rotation_params(config: ExperimentConfig) -> tuple[EnsembleParams, EnsembleParams]:
    """Rotation's base ensemble and its tau-rotated copy (complex_general)."""
    tau_base = config.tau if abs(config.tau) > 1e-12 else 0.5 + 0.0j
    return tuple(
        EnsembleParams(config.sigma_x, config.sigma_y, tau, kind=COMPLEX_GENERAL)
        for tau in (tau_base, tau_base * cmath.exp(1j * ROTATION_ANGLE))
    )


def _check_rotation(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """Multiplying tau by a phase rotates the predicted and empirical spectra.

    Field level (exact): the ellipse for tau * e^{i theta} has a rotated
    center, identical semi-axes, and rotation shifted by theta; the
    centre and axis errors are relative to the base ellipse's extent,
    max(semi_major, |center|), so none moves with sigma.  Sample
    level (statistical): the mean eigenvalue of X Y* rotates by e^{i
    theta} within 4 joint standard errors, using seed-matched trials on
    the first dims entry: the rotated ensemble reuses the base ensemble's
    underlying standard fields, which tightens the comparison.
    """
    theta = ROTATION_ANGLE
    phase = cmath.exp(1j * theta)
    base_params, rot_params = _rotation_params(config)

    field_err = 0.0
    for n, p in config.dims:
        e0 = ellipse_support(base_params, p / n)
        e1 = ellipse_support(rot_params, p / n)
        extent = max(e0.semi_major, abs(e0.center))
        field_err = max(
            field_err,
            abs(e1.center - phase * e0.center) / extent,
            abs(e1.semi_major - e0.semi_major) / extent,
            abs(e1.semi_minor - e0.semi_minor) / extent,
            abs(cmath.exp(1j * (e1.rotation - e0.rotation - theta)) - 1.0),
        )
    field_ok = field_err <= FIELD_TOL

    n, p = config.dims[0]
    base_sums, rot_sums = zip(*records[0])
    m0, se0 = grand_mean(base_sums, [n] * config.trials)
    m1, se1 = grand_mean(rot_sums, [n] * config.trials)
    se_joint = math.hypot(se0, se1)
    dev = abs(m1 - phase * m0)
    mean_ok = _mean_ok(dev, se_joint)

    return CheckResult(
        name="rotation",
        status="pass" if field_ok and mean_ok else "fail",
        stats={
            "angle": theta,
            "field_max_error": field_err,
            "mean_deviation": dev,
            "joint_standard_error": se_joint,
            "trials": config.trials,
            "n": n,
            "p": p,
        },
    )


_CHECK_FUNCS: dict[str, Callable[[ExperimentConfig, list[list]], CheckResult]] = {
    "penrose": _check_penrose,
    "weinstein_aronszajn": _check_wa,
    "zero_atoms": _check_zero_atoms,
    "coverage": _check_coverage,
    "disc_equivalence": _check_disc_equivalence,
    "mean_eigenvalue": _check_mean_eigenvalue,
    "rotation": _check_rotation,
}


# ---------------------------------------------------------------------------
# commands


def _resolve_out(out_dir: str | os.PathLike) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_sample(
    config: ExperimentConfig, out_dir: str | os.PathLike = "."
) -> Path:
    """Write the spectrum of every pair of :func:`_pairs` to one CSV.

    Columns: trial, n, p, re_lambda, im_lambda.  The trial column counts
    within each dims block; floats are repr-exact, line endings LF, so the
    bytes are deterministic.  Each trial's rows are written as soon as its
    pair is drawn, so one trial at a time is held in memory.
    """
    path = _resolve_out(out_dir) / "eigenvalues.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh, blas_single_thread():
        fh.write("trial,n,p,re_lambda,im_lambda\n")
        for d_i, (n, p) in enumerate(config.dims):
            for trial, pair in enumerate(_pairs(config, d_i)):
                for lam in spectrum(pair, config.product_kind).eigs:
                    fh.write(f"{trial},{n},{p},{_fmt(lam.real)},{_fmt(lam.imag)}\n")
    return path


def cmd_boundary(
    config: ExperimentConfig, out_dir: str | os.PathLike = "."
) -> Path:
    """Write the predicted support boundary for the first dims entry.

    512 evenly parameterised boundary points with columns re, im, label
    (label "boundary"), plus one "zero_atom" row at the origin when the
    support carries an atom.  Square-aspect pseudo-inverse configs have
    no boundary and raise.
    """
    out = _resolve_out(out_dir)
    params = config.ensemble_params()
    n, p = config.dims[0]
    support = _support(params, p / n, config.product_kind)
    pts = boundary_points(support, count=512)
    path = out / "boundary.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("re,im,label\n")
        for z in pts:
            fh.write(f"{_fmt(z.real)},{_fmt(z.imag)},boundary\n")
        if support.zero_atom:
            fh.write("0.0,0.0,zero_atom\n")
    return path


def _run_checks(config: ExperimentConfig, shared: dict) -> VerificationReport:
    """Run the configured checks, taking any named in ``shared`` from it."""
    started = time.perf_counter()
    records = _trial_records(config)
    results = tuple(
        shared[name] if name in shared else _CHECK_FUNCS[name](config, records[name])
        for name in config.checks
    )
    if config.strict:  # the one place strict applies
        results = tuple(replace(r, status="fail") if r.status == "advisory" else r for r in results)
    failed = any(r.status == "fail" for r in results)
    return VerificationReport(
        version=PACKAGE_VERSION,
        config=config.to_json_dict(),
        checks=results,
        overall="fail" if failed else "pass",
        exit_code=1 if failed else 0,
        wall_time_s=time.perf_counter() - started,
    )


def _write_reports(
    out_dir: str | os.PathLike, cells: list[tuple[str, ExperimentConfig]], shared: dict
) -> list[tuple[VerificationReport, Path]]:
    """verify's and sweep's one loop: with BLAS pinned, run each named cell, write its report."""
    out = _resolve_out(out_dir)
    written = []
    with blas_single_thread():
        for name, cell in cells:
            report = _run_checks(cell, shared)
            path = out / name
            path.write_text(report.to_json(), encoding="utf-8", newline="")
            written.append((report, path))
    return written


def cmd_verify(
    config: ExperimentConfig, out_dir: str | os.PathLike = "."
) -> tuple[VerificationReport, Path]:
    """Run the configured checks, write report.json, return the report.

    The report's exit_code is 0 iff no check ended in status "fail";
    advisory shortfalls do not change it unless the config is strict, which
    :func:`_run_checks` alone applies; :func:`_write_reports` writes it as
    one cell.
    """
    [(report, path)] = _write_reports(out_dir, [("report.json", config)], {})
    return report, path


def cmd_sweep(
    config: ExperimentConfig, out_dir: str | os.PathLike = "."
) -> tuple[list[Path], int]:
    """Run verify over the (tau, alpha) grid, one report per cell.

    Cell (i, j) uses sweep_taus[i] and dims (n0, round(alpha_j * n0))
    derived from the first configured shape; verify's loop,
    :func:`_write_reports`, runs it and writes report_tau{i}_alpha{j}.json.
    :func:`validate_config` has already checked every cell, so a bad cell
    leaves no reports behind.  The returned exit code is 0 iff every cell
    passed.  Cells share trial seeds (common random numbers);
    ``disc_equivalence``, which reads neither tau nor dims, runs once for
    all of them.
    """
    taus = config.sweep_taus or (config.tau,)
    n0, p0 = config.dims[0]
    alphas = config.sweep_alphas or (p0 / n0,)
    # validate_config has checked every cell, so none of these raises
    cells = [
        (f"report_tau{i}_alpha{j}.json", replace(config, tau=tau, dims=((n0, _sweep_p(a, n0)),)))
        for i, tau in enumerate(taus)
        for j, a in enumerate(alphas)
    ]
    shared = {}
    if "disc_equivalence" in config.checks:
        shared["disc_equivalence"] = _check_disc_equivalence(config, [])
    written = _write_reports(out_dir, cells, shared)
    return [path for _, path in written], max(report.exit_code for report, _ in written)
