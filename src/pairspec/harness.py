"""Experiment orchestration: configs, seeding, batch runs, reports.

Everything here is deterministic by construction.  A config plus the
package version fixes every random draw: per-trial seeds come from a
counter-based mixing function, trials run in order, and text outputs are
written with repr-exact floats and LF endings.  Every command does its
trial work with OpenBLAS pinned to one thread, so repeated runs produce
byte-identical CSVs and semantically identical JSON reports (wall time
aside) whatever the BLAS or harness thread count.

The ``verify`` command runs a configurable battery of checks; five reduce
one pass over ``sample``'s pairs, drawing each once.  Exact
identities (Penrose conditions, product-ordering spectral identity,
zero-atom counts, membership-route equivalence, the field-level parts of
rotation covariance) fail fatally when violated.  Statistical support-
coverage shortfalls are advisory by default -- the underlying support-
convergence statement is a conjecture at finite N -- and are promoted to
fatal by ``strict``.  The process exit code is 0 iff no non-advisory
check failed.
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
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from ._version import PACKAGE_VERSION
from .ensembles import (
    COMPLEX_GENERAL,
    COMPLEX_INDEPENDENT,
    REAL,
    Dims,
    EnsembleParams,
    sample_pair,
    validate_params,
)
from .errors import AlphaOneUnsupported, ConfigError, PairspecError
from .empirical import (
    SpectrumSample,
    coverage,
    default_zero_tol,
    grand_mean,
    spectrum,
    wa_identity_check,
)
from .matalg import blas_single_thread, eigenvalues, penrose_residuals, pseudo_inverse
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

if TYPE_CHECKING:
    from concurrent.futures import Executor

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
WA_TOL = 1e-7
EQUIV_DRAWS = 1000
EQUIV_BAND = 1e-9
COVERAGE_MIN_INSIDE = 0.995
SE_SIGMAS = 4.0
ROTATION_ANGLE = math.pi / 3.0
FIELD_TOL = 1e-12
# A trial whose max(n, p) is at least this splits into two halves that run
# at once (see _trial_records).  Measured on a 2-core host with BLAS pinned:
# the split broke even at (200, 400) and won clearly at (400, 800).
OVERLAP_MIN_DIM = 256

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


def _integer(value: Any, name: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _pair(value: Any, name: str, parse: Callable[[Any, str], Any]) -> tuple:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{name} must be a pair, got {value!r}")
    return parse(value[0], name), parse(value[1], name)


def _complex(value: Any, name: str) -> complex:
    """A number, a complex, or an [re, im] pair, all parts finite."""
    if isinstance(value, complex):
        value = (value.real, value.imag)
    if isinstance(value, (list, tuple)):
        return complex(*_pair(value, name, _number))
    return complex(_number(value, name))


def _of_type(*kinds: type) -> Callable[[Any, str], Any]:
    def parse(value: Any, name: str) -> Any:
        if not isinstance(value, kinds):
            want = " or ".join(k.__name__ for k in kinds)
            raise ConfigError(f"{name} must be {want}, got {value!r}")
        return value

    return parse


def _tuple_of(parse: Callable[[Any, str], Any]) -> Callable[[Any, str], tuple]:
    def parse_all(value: Any, name: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(parse(v, f"{name}[{i}]") for i, v in enumerate(value))

    return parse_all


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run depends on; JSON round-trips exactly.

    Construction is the one parse-and-validate path: each field must have
    its type (no coercion), and the result must pass
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
    zero_tol: float | None = None  # None = automatic policy per spectrum
    checks: tuple[str, ...] = CHECK_NAMES
    strict: bool = False
    threads: int = 0  # 0 = one per CPU this process may run on; 1 = calling thread only
    out_dir: str | None = None
    sweep_taus: tuple[complex, ...] = ()
    sweep_alphas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name, parse in _FIELD_PARSERS.items():
            object.__setattr__(self, name, parse(getattr(self, name), name))
        validate_config(self)

    def ensemble_params(self, tau: complex | None = None) -> EnsembleParams:
        return EnsembleParams(
            sigma_x=self.sigma_x,
            sigma_y=self.sigma_y,
            tau=self.tau if tau is None else tau,
            kind=self.kind,
            split=self.split,
        )

    def to_json_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["tau"] = [self.tau.real, self.tau.imag]
        d["dims"] = [list(pair) for pair in self.dims]
        d["checks"] = list(self.checks)
        d["sweep_taus"] = [[t.real, t.imag] for t in self.sweep_taus]
        d["sweep_alphas"] = list(self.sweep_alphas)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
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


_FIELD_PARSERS: dict[str, Callable[[Any, str], Any]] = {
    "sigma_x": _number,
    "sigma_y": _number,
    "tau": _complex,
    "kind": _of_type(str),
    "split": _number,
    "dims": _tuple_of(lambda v, name: _pair(v, name, _integer)),
    "product_kind": _of_type(str),
    "trials": _integer,
    "base_seed": _integer,
    "margin": _number,
    "zero_tol": lambda v, name: None if v is None else _number(v, name),
    "checks": _tuple_of(_of_type(str)),
    "strict": _of_type(bool),
    "threads": _integer,
    "out_dir": _of_type(str, type(None)),
    "sweep_taus": _tuple_of(_complex),
    "sweep_alphas": _tuple_of(_number),
}


def _sweep_p(alpha: float, n0: int) -> int:
    """Column count of a sweep cell with aspect ``alpha`` on n0 rows."""
    return max(1, round(alpha * n0))


def _trial_bytes(n: int, p: int, itemsize: int) -> int:
    """Peak bytes of one verify trial at (n, p), its helper half in flight.

    In matrix entries, with m = max(n, p) and s = min(n, p): the pair, 2np;
    the helper's half, one full-size product and the copy LAPACK's
    eigensolver makes of it, 2m^2; and the calling thread's half at its
    largest, one of: the SVD (numpy's copy of Y, U, Vh and the solver's
    real workspace) or the pseudo-inverse built from them, together under
    4np + 5s^2; the Penrose check, the pseudo-inverse, one square product,
    a quarter-size block of its Hermitian residual and two np-sized
    residual terms, 3np + 5m^2/4; or the zero count, the pseudo-inverse
    plus X Y† and its eigensolver copy, np + 2m^2.  Sampling (3np) and the
    reduced-path spectrum (under 3np + 4s^2) peak lower, before the helper
    starts or next to it.  Left out: O(m) workspace, OpenBLAS's per-thread
    buffers and the interpreter itself.
    """
    m, s, np_ = max(n, p), min(n, p), n * p
    main = max(4 * np_ + 5 * s * s, 3 * np_ + 5 * m * m // 4, np_ + 2 * m * m)
    return (2 * np_ + 2 * m * m + main) * itemsize


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError unless the config's values are in range and agree.

    Field types are checked before this runs, by the constructor.  Every
    sweep cell (sweep_taus x sweep_alphas) is checked here too, so a valid
    config is valid for every command.  Each dims entry and sweep cell
    must fit one trial's working set, :func:`_trial_bytes`, in physical
    memory.
    """
    try:
        validate_params(config.ensemble_params())
        for tau in config.sweep_taus:
            validate_params(config.ensemble_params(tau))
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
    # (shape, whether rotation runs at it): the first dims entry, each sweep cell
    shapes = [(d, i == 0) for i, d in enumerate(config.dims)]
    for a in config.sweep_alphas:
        if not (a > 0.0 and math.isfinite(a * n0)):  # a sweep cell has p = a * n0
            raise ConfigError(
                f"sweep_alphas entries must be > 0 with alpha * n0 finite, got {a}"
            )
        p = _sweep_p(a, n0)
        shapes.append(((n0, p), True))
        if config.product_kind == PSEUDO_INVERSE and p == n0 and a != 1.0:
            raise ConfigError(
                f"sweep alpha {a} rounds to the square shape ({n0}, {n0}) "
                f"at n0 = {n0}; pseudo_inverse has no prediction there"
            )
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for (n, p), first in shapes:
        # rotation draws complex pairs, whatever the kind
        rotation = first and "rotation" in config.checks
        need = _trial_bytes(n, p, 8 if config.kind == REAL and not rotation else 16)
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
    if config.zero_tol is not None and config.zero_tol <= 0.0:
        raise ConfigError(f"zero_tol must be positive, or null, got {config.zero_tol}")
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

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "overall": self.overall,
            "exit_code": self.exit_code,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _spectra(
    config: ExperimentConfig,
    params: EnsembleParams,
    dims: Dims,
    product_kind: str,
    seed_base: int,
) -> list[SpectrumSample]:
    """config.trials spectra at consecutive derived seeds, trial-ordered."""
    seeds = [derive_seed(config.base_seed, seed_base + t) for t in range(config.trials)]
    return [spectrum(sample_pair(params, dims, s), product_kind) for s in seeds]


def _support(
    params: EnsembleParams, alpha: float, product_kind: str
) -> EllipseSupport | DiscSupport:
    """The product's predicted support; AlphaOneUnsupported for X Y† at alpha = 1."""
    if product_kind == CONJ_TRANSPOSE:
        return ellipse_support(params, alpha)
    return disc_support(params, alpha)


def _later(pool: Executor | None, fn: Callable[..., Any], *args: Any) -> Callable[[], Any]:
    """Start fn(*args) on the pool's helper thread, or run it now without one.

    Returns a getter for the result; on the helper it waits for it.
    """
    if pool is None:
        value = fn(*args)
        return lambda: value
    return pool.submit(fn, *args).result


def _eig_sum(params: EnsembleParams, dims: Dims, seed: int) -> complex:
    """Sum of the eigenvalues of X Y* for the pair drawn at ``seed``."""
    return complex(np.sum(spectrum(sample_pair(params, dims, seed), CONJ_TRANSPOSE).eigs))


def _trial_records(
    config: ExperimentConfig, pool: Executor | None
) -> dict[str, list[list[Any]]]:
    """Draw each (dims, trial) pair once and reduce it for the enabled checks.

    Returns, for each check name, one list per dims entry of its per-trial
    scalars in trial order: the largest Penrose residual, the product-
    ordering (verdict, mismatch), the zero count of X Y† on the SVD
    reference path (p < n only), the CoverageReport and the eigenvalue sum
    (under ``mean_eigenvalue``), and, for the first dims entry only, the
    eigenvalue sums of rotation's seed-matched base and rotated pairs.  A
    list stays empty unless its check is enabled.  The pairs are the ones
    ``cmd_sample`` writes; one SVD pseudo-inverse per pair feeds both
    ``penrose`` and ``zero_atoms``, and one reduced-path spectrum both
    ``coverage`` and ``mean_eigenvalue``.

    With a ``pool``, a trial with max(n, p) >= OVERLAP_MIN_DIM runs in two
    halves at once over its read-only pair: the product-ordering check's
    two full-size eigensolves on the helper thread, the rest on the
    calling thread (rotation: the base pair on the helper, the rotated one
    here).  Each trial joins before the next starts.
    """
    on = set(config.checks)
    params = config.ensemble_params()
    records = {name: [[] for _ in config.dims] for name in CHECK_NAMES}
    for d_i, (n, p) in enumerate(config.dims):
        rec = {name: lists[d_i] for name, lists in records.items()}
        helper = pool if max(n, p) >= OVERLAP_MIN_DIM else None
        support = None
        if "coverage" in on:
            with contextlib.suppress(AlphaOneUnsupported):  # coverage reports it
                support = _support(params, p / n, config.product_kind)
        zeros = "zero_atoms" in on and p < n
        spec = support is not None or "mean_eigenvalue" in on
        wa = "weinstein_aronszajn" in on
        if not (zeros or spec or wa or "penrose" in on):
            continue
        base = _SAMPLE_SEED_BASE + d_i * config.trials
        for trial in range(config.trials):
            seed = derive_seed(config.base_seed, base + trial)
            pair = sample_pair(params, Dims(n, p), seed)
            if wa:
                wa_result = _later(helper, wa_identity_check, pair, WA_TOL)
            if "penrose" in on or zeros:
                pinv = pseudo_inverse(pair.y_mat).pinv
            if "penrose" in on:
                res = penrose_residuals(pair.y_mat, pinv)
                rec["penrose"].append(max(res.values()))
            if zeros:  # what reference_spectrum computes for X Y†
                eigs = eigenvalues(pair.x_mat @ pinv)
                ztol = config.zero_tol or default_zero_tol(eigs)
                rec["zero_atoms"].append(int(np.count_nonzero(np.abs(eigs) <= ztol)))
            pinv = eigs = None  # freed before the spectrum's factorisation
            if spec:
                s = spectrum(pair, config.product_kind)
                rec["mean_eigenvalue"].append(complex(np.sum(s.eigs)))
                if support is not None:
                    rep = coverage(s, support, config.margin, config.zero_tol)
                    rec["coverage"].append(rep)
            if wa:
                rec["weinstein_aronszajn"].append(wa_result())
    if "rotation" in on:
        dims = Dims(*config.dims[0])
        helper = pool if max(dims.n, dims.p) >= OVERLAP_MIN_DIM else None
        base_params, rot_params = _rotation_params(config)
        for trial in range(config.trials):
            seed = derive_seed(config.base_seed, _ROTATION_SEED_BASE + trial)
            base_sum = _later(helper, _eig_sum, base_params, dims, seed)
            rot_sum = _eig_sum(rot_params, dims, seed)
            records["rotation"][0].append((base_sum(), rot_sum))
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def _status(failed: bool, advisory_failed: bool, strict: bool) -> str:
    if failed:
        return "fail"
    if advisory_failed:
        return "fail" if strict else "advisory"
    return "pass"


# ---------------------------------------------------------------------------
# individual checks


def _check_penrose(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """All four pseudo-inverse defining identities hold to 1e-10."""
    residuals = [r for block in records for r in block]
    worst = max(residuals)
    return CheckResult(
        name="penrose",
        status=_status(worst > PENROSE_TOL, False, config.strict),
        stats={"max_residual": worst, "samples": len(residuals), "tol": PENROSE_TOL},
    )


def _check_wa(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """Spectrum of X Y* equals spectrum of Y* X plus |N-P| zeros."""
    results = [r for block in records for r in block]
    worst = max(mismatch for _, mismatch in results)
    return CheckResult(
        name="weinstein_aronszajn",
        status=_status(not all(ok for ok, _ in results), False, config.strict),
        stats={"max_mismatch": worst, "samples": len(results), "tol": WA_TOL},
    )


def _check_zero_atoms(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """X Y† at p < n: at least n-p exact zeros, fraction near 1 - p/n.

    The count bound is an exact rank statement and fails fatally; the
    fraction band (2/sqrt(n) around 1 - p/n) is statistical and advisory,
    since only "at least" is guaranteed.  Spectra come from the SVD
    reference path: the reduced path pads exactly n - p zeros, which would
    pass the count by construction.
    """
    rect = [(n, p, c) for (n, p), c in zip(config.dims, records) if p < n]
    if not rect:
        return CheckResult(
            name="zero_atoms",
            status="pass",
            stats={"dims_checked": 0},
            note="no dims with p < n configured; nothing to check",
        )
    fatal = False
    advisory = False
    per_dims: list[dict[str, Any]] = []
    for n, p, counts in rect:
        min_count = min(counts)
        mean_frac = float(np.mean(counts)) / n
        expected = 1.0 - p / n
        band = 2.0 / math.sqrt(n)
        fatal = fatal or min_count < n - p
        advisory = advisory or abs(mean_frac - expected) > band
        per_dims.append(
            {
                "n": n,
                "p": p,
                "min_zero_count": min_count,
                "required_count": n - p,
                "mean_zero_fraction": mean_frac,
                "expected_fraction": expected,
                "band": band,
            }
        )
    return CheckResult(
        name="zero_atoms",
        status=_status(fatal, advisory, config.strict),
        stats={"dims_checked": len(rect), "per_dims": per_dims},
    )


def _check_coverage(config: ExperimentConfig, records: list[list]) -> CheckResult:
    """Eigenvalue clouds fill the predicted margin-dilated support.

    Support convergence at finite N is conjectural, so a shortfall below
    the 99.5% inside-fraction floor is advisory unless strict.  A support
    that cannot even be constructed (square-aspect pseudo-inverse) is a
    configuration failure and fatal.
    """
    params = config.ensemble_params()
    per_dims: list[dict[str, Any]] = []
    fatal = False
    advisory = False
    note = ""
    for (n, p), reps in zip(config.dims, records):
        try:
            _support(params, p / n, config.product_kind)
        except AlphaOneUnsupported as exc:
            fatal = True
            note = f"dims ({n}, {p}): {exc}"
            per_dims.append({"n": n, "p": p, "error": type(exc).__name__})
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
        status=_status(fatal, advisory, config.strict),
        stats={"per_dims": per_dims, "min_inside_fraction": COVERAGE_MIN_INSIDE},
        note=note,
    )


def _check_disc_equivalence(
    config: ExperimentConfig, _records: list[list]
) -> CheckResult:
    """The correlation route and the disc inequality agree pointwise.

    Random parameters and probe points; points whose disc quadratic form
    sits within 1e-9 of the boundary are excluded (the two routes may
    round a tie differently).  Any remaining disagreement is fatal.
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
        if abs(lam) <= 1e-12:
            skipped_zero += 1
            continue
        d2 = abs(lam - support.center) ** 2
        r2 = support.radius**2
        if abs(d2 - r2) <= EQUIV_BAND * max(1.0, r2):
            skipped_band += 1
            continue
        draws += 1
        via_tau = in_support_via_tau(params, alpha, lam)
        via_disc = bool(support_contains(support, lam))
        if via_tau != via_disc:
            disagreements += 1
    return CheckResult(
        name="disc_equivalence",
        status=_status(disagreements > 0, False, config.strict),
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
        ok = dev <= SE_SIGMAS * se if se > 0.0 else dev <= 1e-9
        failed = failed or not ok
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
        status=_status(failed, False, config.strict),
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
    center, identical semi-axes, and rotation shifted by theta.  Sample
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
        alpha = Dims(n, p).alpha
        e0 = ellipse_support(base_params, alpha)
        e1 = ellipse_support(rot_params, alpha)
        scale = max(1.0, abs(e0.center))
        field_err = max(
            field_err,
            abs(e1.center - phase * e0.center) / scale,
            abs(e1.semi_major - e0.semi_major),
            abs(e1.semi_minor - e0.semi_minor),
            abs(cmath.exp(1j * (e1.rotation - e0.rotation - theta)) - 1.0),
        )
    field_ok = field_err <= FIELD_TOL

    n, p = config.dims[0]
    base_sums, rot_sums = zip(*records[0])
    m0, se0 = grand_mean(base_sums, [n] * config.trials)
    m1, se1 = grand_mean(rot_sums, [n] * config.trials)
    se_joint = math.hypot(se0, se1)
    dev = abs(m1 - phase * m0)
    mean_ok = dev <= SE_SIGMAS * se_joint if se_joint > 0.0 else dev <= 1e-9

    return CheckResult(
        name="rotation",
        status=_status(not (field_ok and mean_ok), False, config.strict),
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


@contextlib.contextmanager
def _trial_pool(config: ExperimentConfig) -> Iterator[Executor | None]:
    """Pin BLAS to one thread for the block; yield the trial helper's pool.

    The pool (one helper thread, started on first use) is None when BLAS
    could not be pinned or ``threads`` leaves one thread: with threads 0,
    the CPUs this process may run on.  Leaving the block joins the helper.
    """
    threads = config.threads
    if not threads:
        affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
        threads = len(affinity(0)) if affinity else os.cpu_count() or 1
    with blas_single_thread() as pinned:
        if not pinned or threads < 2:
            yield None
            return
        # imported here, not at module load, to keep its ~6 ms out of start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="pairspec-trial") as pool:
            yield pool


def _resolve_out(config: ExperimentConfig, out_dir: str | os.PathLike | None) -> Path:
    out = Path(out_dir if out_dir is not None else config.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_sample(
    config: ExperimentConfig, out_dir: str | os.PathLike | None = None
) -> Path:
    """Write every configured spectrum to one CSV; deterministic bytes.

    Columns: trial, n, p, re_lambda, im_lambda.  The trial column counts
    within each dims block; floats are repr-exact, line endings LF.
    """
    out = _resolve_out(config, out_dir)
    params = config.ensemble_params()
    path = out / "eigenvalues.csv"

    blocks: list[tuple[int, int, list[SpectrumSample]]] = []
    with blas_single_thread():
        for d_i, (n, p) in enumerate(config.dims):
            base = _SAMPLE_SEED_BASE + d_i * config.trials
            samples = _spectra(config, params, Dims(n, p), config.product_kind, base)
            blocks.append((n, p, samples))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("trial,n,p,re_lambda,im_lambda\n")
        for n, p, samples in blocks:
            for trial, s in enumerate(samples):
                for lam in s.eigs:
                    fh.write(
                        f"{trial},{n},{p},{_fmt(lam.real)},{_fmt(lam.imag)}\n"
                    )
    return path


def cmd_boundary(
    config: ExperimentConfig, out_dir: str | os.PathLike | None = None
) -> Path:
    """Write the predicted support boundary for the first dims entry.

    512 evenly parameterised boundary points with columns re, im, label
    (label "boundary"), plus one "zero_atom" row at the origin when the
    support carries an atom.  Square-aspect pseudo-inverse configs have
    no boundary and raise.
    """
    out = _resolve_out(config, out_dir)
    params = config.ensemble_params()
    n, p = config.dims[0]
    alpha = Dims(n, p).alpha
    support = _support(params, alpha, config.product_kind)
    pts = boundary_points(support, count=512)
    path = out / "boundary.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("re,im,label\n")
        for z in pts:
            fh.write(f"{_fmt(z.real)},{_fmt(z.imag)},boundary\n")
        if support.zero_atom:
            fh.write("0.0,0.0,zero_atom\n")
    return path


def _run_checks(
    config: ExperimentConfig, shared: dict, pool: Executor | None
) -> VerificationReport:
    """Run the configured checks, taking any named in ``shared`` from it."""
    started = time.perf_counter()
    records = _trial_records(config, pool)
    results = tuple(
        shared[name] if name in shared else _CHECK_FUNCS[name](config, records[name])
        for name in config.checks
    )
    failed = any(r.status == "fail" for r in results)
    return VerificationReport(
        version=PACKAGE_VERSION,
        config=config.to_json_dict(),
        checks=results,
        overall="fail" if failed else "pass",
        exit_code=1 if failed else 0,
        wall_time_s=time.perf_counter() - started,
    )


def _write_report(report: VerificationReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report.to_json())


def cmd_verify(
    config: ExperimentConfig, out_dir: str | os.PathLike | None = None
) -> tuple[VerificationReport, Path]:
    """Run the configured checks, write report.json, return the report.

    The report's exit_code is 0 iff no check ended in status "fail";
    advisory shortfalls do not change it unless the config is strict.
    """
    out = _resolve_out(config, out_dir)
    with _trial_pool(config) as pool:
        report = _run_checks(config, {}, pool)
    path = out / "report.json"
    _write_report(report, path)
    return report, path


def cmd_sweep(
    config: ExperimentConfig, out_dir: str | os.PathLike | None = None
) -> tuple[list[Path], int]:
    """Run verify over the (tau, alpha) grid, one report per cell.

    Cell (i, j) uses sweep_taus[i] and dims (n0, round(alpha_j * n0))
    derived from the first configured shape; its report is written to
    report_tau{i}_alpha{j}.json.  :func:`validate_config` has already
    checked every cell, so a bad cell leaves no reports behind.  The
    returned exit code is 0 iff every cell passed.  Cells share trial seeds
    (common random numbers); ``disc_equivalence``, which reads neither tau
    nor dims, runs once for all of them.
    """
    taus = config.sweep_taus or (config.tau,)
    alphas = config.sweep_alphas or (Dims(*config.dims[0]).alpha,)
    n0 = config.dims[0][0]
    # validate_config has checked every cell, so none of these raises
    cells = [
        (f"report_tau{i}_alpha{j}.json", replace(config, tau=tau, dims=((n0, _sweep_p(a, n0)),)))
        for i, tau in enumerate(taus)
        for j, a in enumerate(alphas)
    ]
    shared = {}
    if "disc_equivalence" in config.checks:
        shared["disc_equivalence"] = _check_disc_equivalence(config, [])
    out = _resolve_out(config, out_dir)
    paths: list[Path] = []
    worst = 0
    with _trial_pool(config) as pool:
        for name, cell in cells:
            report = _run_checks(cell, shared, pool)
            path = out / name
            _write_report(report, path)
            paths.append(path)
            worst = max(worst, report.exit_code)
    return paths, worst
