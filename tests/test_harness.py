"""Config round-trips, seed derivation, commands, and exit-code contract."""

import cmath
import dataclasses
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairspec import (
    CHECK_NAMES,
    CONJ_TRANSPOSE,
    COMPLEX_GENERAL,
    COMPLEX_INDEPENDENT,
    KINDS,
    PRODUCT_KINDS,
    PSEUDO_INVERSE,
    REAL,
    AlphaOneUnsupported,
    ConfigError,
    Dims,
    EnsembleParams,
    ExperimentConfig,
    cmd_boundary,
    cmd_sample,
    cmd_sweep,
    cmd_verify,
    coverage,
    default_zero_tol,
    derive_seed,
    disc_support,
    ellipse_support,
    grand_mean,
    normalised_radius,
    penrose_residuals,
    pseudo_inverse,
    reference_spectrum,
    sample_pair,
    spectrum,
    validate_config,
    wa_identity_check,
)
import pairspec
from pairspec import cli, empirical, harness, matalg
from pairspec.cli import main
from pairspec.harness import EQUIV_DRAWS
from pairspec.matalg import blas_single_thread

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def _fast_config(**overrides):
    base = dict(
        tau=0.5,
        dims=((48, 24),),
        trials=3,
        base_seed=77,
        checks=("penrose", "weinstein_aronszajn", "zero_atoms"),
        threads=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(123, 45) == derive_seed(123, 45)

    def test_neighboring_trials_differ(self):
        s = 2**63 + 17
        assert derive_seed(s, 0) != derive_seed(s, 1)

    def test_outputs_are_u64(self):
        for t in range(100):
            v = derive_seed(0xDEADBEEF, t)
            assert 0 <= v < 2**64

    def test_monobit_balance(self):
        # each of the 64 output bits should be set in 45-55% of outputs
        vals = np.array([derive_seed(9001, t) for t in range(10_000)], dtype=np.uint64)
        for bit in range(64):
            frac = float(np.mean((vals >> np.uint64(bit)) & np.uint64(1)))
            assert 0.45 <= frac <= 0.55, f"bit {bit} frequency {frac}"

    def test_injective_over_contiguous_block(self):
        vals = {derive_seed(5, t) for t in range(4096)}
        assert len(vals) == 4096


_FIELD_NAMES = [f.name for f in dataclasses.fields(ExperimentConfig)]
# JSON values: scalars, with NaN, the infinities and values a config
# accepts drawn often, and lists of them nested two deep.
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(1, 64)
    | st.floats()
    | st.floats(0.0, 1.0)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=8)
    | st.sampled_from(CHECK_NAMES + KINDS + PRODUCT_KINDS)
)
_JSON_VALUES = _JSON_SCALARS | st.lists(
    _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3), max_size=4
)


def _no_constant(name):
    raise AssertionError(f"non-finite number {name} in a config's JSON")


class TestExperimentConfig:
    def test_json_round_trip_defaults(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_json_round_trip_full(self):
        cfg = ExperimentConfig(
            sigma_x=1.5,
            sigma_y=0.5,
            tau=0.3 + 0.4j,
            kind=COMPLEX_GENERAL,
            split=0.6,
            dims=((100, 50), (64, 64)),
            product_kind=CONJ_TRANSPOSE,
            trials=7,
            base_seed=2**60 + 3,
            margin=0.05,
            checks=("penrose", "rotation"),
            strict=True,
            threads=2,
            sweep_taus=(0.1, 0.2 + 0.1j),
            sweep_alphas=(0.5, 2.0),
        )
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_tau_accepts_scalar_or_pair(self):
        assert ExperimentConfig.from_json_dict({"tau": 0.25}).tau == 0.25 + 0j
        pair = {"tau": [0.1, 0.2], "kind": "complex_general"}
        assert ExperimentConfig.from_json_dict(pair).tau == 0.1 + 0.2j

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict({"gamma": 1.0})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    @pytest.mark.parametrize(
        "text", ['{"trials": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000]
    )
    def test_unreadable_json_rejected(self, text):
        # past the int digit limit, and past the decoder's recursion limit
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json(text)

    @settings(max_examples=500, deadline=None)
    @given(st.dictionaries(st.sampled_from(_FIELD_NAMES), _JSON_VALUES, max_size=3))
    def test_parse_rejects_or_round_trips(self, data):
        try:
            cfg = ExperimentConfig.from_json_dict(data)
        except ConfigError:
            return
        text = cfg.to_json()
        json.loads(text, parse_constant=_no_constant)
        assert ExperimentConfig.from_json(text) == cfg

    @pytest.mark.parametrize(
        "data, text",
        [
            ({"dims": [[20, 10, 7]]}, "dims[0] must be a pair, got [20, 10, 7]"),
            ({"dims": 5}, "dims must be a list, got 5"),
            ({"dims": [[20.9, 10]]}, "dims[0] must be an integer, got 20.9"),
            ({"checks": [1]}, "checks[0] must be str, got 1"),
            ({"strict": "false"}, "strict must be bool, got 'false'"),
            ({"trials": 2.7}, "trials must be an integer, got 2.7"),
            ({"trials": True}, "trials must be an integer, got True"),
            ({"margin": "0.1"}, "margin must be a finite number, got '0.1'"),
            ({"sweep_taus": ["x"]}, "sweep_taus[0] must be a finite number, got 'x'"),
            ({"tau": [1, 2, 3]}, "tau must be a pair, got [1, 2, 3]"),
            ({"tau": [1, "x"]}, "tau must be a finite number, got 'x'"),
        ],
    )
    def test_type_error_messages(self, data, text):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_json_dict(data)
        assert str(exc.value) == text

    def test_json_dict_of_every_field(self):
        # the report's "config" block, which perfbench reads dims and tau from
        cfg = ExperimentConfig(
            sigma_x=1.5,
            sigma_y=0.5,
            tau=0.3 + 0.4j,
            kind=COMPLEX_GENERAL,
            split=0.6,
            dims=((100, 50), (64, 64)),
            product_kind=CONJ_TRANSPOSE,
            trials=7,
            base_seed=2**60 + 3,
            margin=0.05,
            checks=("penrose", "rotation"),
            strict=True,
            threads=2,
            sweep_taus=(0.1, 0.2 + 0.1j),
            sweep_alphas=(0.5, 2.0),
        )
        expected = {
            "sigma_x": 1.5,
            "sigma_y": 0.5,
            "tau": [0.3, 0.4],
            "kind": "complex_general",
            "split": 0.6,
            "dims": [[100, 50], [64, 64]],
            "product_kind": "conj_transpose",
            "trials": 7,
            "base_seed": 2**60 + 3,
            "margin": 0.05,
            "checks": ["penrose", "rotation"],
            "strict": True,
            "threads": 2,
            "sweep_taus": [[0.1, 0.0], [0.2, 0.1]],
            "sweep_alphas": [0.5, 2.0],
        }
        got = cfg.to_json_dict()
        assert got == expected  # lists, not tuples
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert sorted(got) == sorted(_FIELD_NAMES)


class TestReadmeConfigSection:
    _README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

    def test_field_table_names_each_field_once(self):
        lines = self._README.splitlines()
        start = lines.index("| field | accepted |") + 2  # past the header rule
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        names = [n for row in rows for n in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(names) == sorted(_FIELD_NAMES)

    def test_example_config_parses(self):
        [block] = re.findall(r"```json\n(.*?)```", self._README, flags=re.DOTALL)
        ExperimentConfig.from_json(block)


class TestValidateConfig:
    def test_default_is_valid(self):
        validate_config(ExperimentConfig())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trials": 0},
            {"dims": ()},
            {"dims": ((0, 5),)},
            {"dims": ((200_000, 200_000),)},  # past physical memory
            {"margin": -0.1},
            {"sigma_x": 2.0**257},  # past the sigma scale bound, 2^256
            {"checks": ("penrose", "nonsense")},
            {"checks": ()},
            {"checks": ("penrose", "coverage", "penrose")},
            {"product_kind": "outer"},
            {"sigma_x": -1.0},
            {"tau": 1.5},
            {"tau": math.nan},
            {"margin": math.inf},
            {"margin": math.nan},
            {"sigma_y": 2.0**-257},
            {"sigma_x": 2.0**200, "sigma_y": 2.0**100},
            {"threads": -2},
            {"base_seed": 2**64},
            {"sweep_alphas": (math.inf,)},
            {"sweep_alphas": (1e308,)},  # finite, but p = alpha * n0 is not
            # past 10**6 trials x dims the rotation stream runs into the trials'
            {"trials": 600_000, "dims": ((400, 200), (400, 800))},
            {"dims": ((10**400, 2),), "sweep_alphas": (0.5,)},  # n0 past the float range
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(**overrides))

    def test_seed_stream_limit_is_inclusive(self):
        validate_config(ExperimentConfig(trials=500_000, dims=((4, 2), (4, 8))))

    @pytest.mark.parametrize("threads", [None, 1])
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_benchmark_configs_validate(self, tmp_path, name, threads):
        # the benchmark's set-up probe makes this very call on these files
        workload = workloads.WORKLOADS[name](11, tmp_path, threads=threads)
        text = workload.config_path.read_text(encoding="utf-8")
        validate_config(ExperimentConfig.from_json(text))

    def test_square_dims_allowed_at_validation(self):
        # a square-aspect pseudo-inverse config is caught by the coverage
        # check itself, not by config validation
        validate_config(
            ExperimentConfig(dims=((32, 32),), product_kind=PSEUDO_INVERSE)
        )


class TestMemoryGuard:
    """A dims entry whose one-trial working set exceeds physical memory is refused.

    The bound is harness._trial_bytes: 8 bytes an entry for the real kind
    and 16 otherwise, at every dims entry and sweep cell.  Rotation's one
    complex pair fits inside the real trial's bound, so it adds no rule.
    The guard tests build configs only; nothing large is allocated.
    """

    _MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    def _edge(self):
        """A square size whose real trial fits in memory and complex one does not."""
        n = math.isqrt(self._MEMORY // harness._trial_bytes(1, 1, 16)) + 1
        assert harness._trial_bytes(n, n, 8) <= self._MEMORY < harness._trial_bytes(n, n, 16)
        return n

    def test_bound_is_per_entry_size(self):
        n = self._edge()
        ExperimentConfig(kind=REAL, dims=((n, n),), checks=("penrose",))
        with pytest.raises(ConfigError, match="GiB"):
            ExperimentConfig(kind=COMPLEX_INDEPENDENT, dims=((n, n),), checks=("penrose",))

    def test_rotation_on_the_first_entry_is_charged_at_the_kinds_size(self):
        n = self._edge()
        # rotation's complex pair at dims[0] needs 48n^2 bytes; the real trial 88n^2
        ExperimentConfig(kind=REAL, dims=((n, n), (4, 2)), checks=("rotation",))

    def test_sweep_cell_is_checked(self):
        # every sweep cell is checked when the config is built
        with pytest.raises(ConfigError, match=r"\(40, 40000000\).*GiB"):
            _fast_config(dims=((40, 80),), sweep_alphas=(0.5, 10.0**6))

    @pytest.mark.parametrize("kind", [REAL, COMPLEX_GENERAL])
    @pytest.mark.parametrize(
        "dims", [(120, 60), (60, 120), (100, 100), (150, 30), (30, 150), (300, 80), (400, 40)]
    )
    def test_bound_covers_the_traced_peak(self, kind, dims):
        product = CONJ_TRANSPOSE if dims[0] == dims[1] else PSEUDO_INVERSE
        peak = self._traced_peak(kind, dims, product)
        assert peak <= harness._trial_bytes(*dims, 8 if kind == REAL else 16)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX_GENERAL])
    @pytest.mark.parametrize(
        "dims", [(120, 60), (60, 120), (150, 30), (30, 150), (300, 80), (400, 40)]
    )
    def test_bound_covers_the_traced_peak_of_the_svd_fallback(self, monkeypatch, kind, dims):
        _plant_rank_deficient_y(monkeypatch)
        peak = self._traced_peak(kind, dims, PSEUDO_INVERSE)
        assert peak <= harness._trial_bytes(*dims, 8 if kind == REAL else 16)

    @staticmethod
    def _traced_peak(kind, dims, product):
        """tracemalloc peak of one trial of every check, on the calling thread."""
        cfg = ExperimentConfig(
            kind=kind, dims=(dims,), trials=1, checks=CHECK_NAMES, product_kind=product
        )
        with blas_single_thread():
            harness._trial_records(cfg)  # first-call allocations
            gc.collect()
            tracemalloc.start()
            try:
                harness._trial_records(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()


class TestCmdSample:
    def test_row_count_tiny(self, tmp_path):
        cfg = _fast_config(dims=((2, 2),), trials=1)
        path = cmd_sample(cfg, out_dir=tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,n,p,re_lambda,im_lambda"
        assert len(lines) == 1 + 2

    def test_row_count_multiple_trials(self, tmp_path):
        cfg = _fast_config(dims=((10, 10),), trials=3)
        path = cmd_sample(cfg, out_dir=tmp_path)
        assert len(path.read_text().splitlines()) == 1 + 30

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = _fast_config()
        b1 = cmd_sample(cfg, out_dir=tmp_path / "a").read_bytes()
        b2 = cmd_sample(cfg, out_dir=tmp_path / "b").read_bytes()
        assert b1 == b2

    def test_lf_line_endings(self, tmp_path):
        data = cmd_sample(_fast_config(), out_dir=tmp_path).read_bytes()
        assert b"\r" not in data

    def test_seed_changes_bytes(self, tmp_path):
        b1 = cmd_sample(_fast_config(base_seed=1), out_dir=tmp_path / "a").read_bytes()
        b2 = cmd_sample(_fast_config(base_seed=2), out_dir=tmp_path / "b").read_bytes()
        assert b1 != b2

    def test_rows_are_written_as_each_trial_is_drawn(self, tmp_path):
        # memory does not grow with the trial count
        def peak(trials):
            cfg = _fast_config(dims=((40, 20),), trials=trials)
            gc.collect()
            tracemalloc.start()
            try:
                cmd_sample(cfg, out_dir=tmp_path / str(trials))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations
        assert peak(2000) <= 2 * peak(2)

    @pytest.mark.parametrize("product_kind", PRODUCT_KINDS)
    def test_pinned_spectrum_gives_the_rows_sample_writes(self, tmp_path, product_kind):
        # a library call runs at the process's BLAS thread count; pinned, it
        # gives the commands' bits
        cfg = _fast_config(kind=REAL, dims=((40, 20), (20, 40)), product_kind=product_kind)
        rows = ["trial,n,p,re_lambda,im_lambda"]
        with blas_single_thread():
            for d_i, (n, p) in enumerate(cfg.dims):
                for trial, pair in enumerate(harness._pairs(cfg, d_i)):
                    rows += [
                        f"{trial},{n},{p},{float(lam.real)!r},{float(lam.imag)!r}"
                        for lam in spectrum(pair, product_kind).eigs
                    ]
        assert cmd_sample(cfg, out_dir=tmp_path).read_text().splitlines() == rows


class TestCmdBoundary:
    def test_disc_rows_on_circle(self, tmp_path):
        # sigma_x = sigma_y, tau = 0, alpha = 2: unit disc at the origin
        cfg = _fast_config(tau=0.0, dims=((32, 64),), product_kind=PSEUDO_INVERSE)
        path = cmd_boundary(cfg, out_dir=tmp_path)
        rows = path.read_text().splitlines()
        assert rows[0] == "re,im,label"
        pts = [r.split(",") for r in rows[1:]]
        assert len(pts) == 512
        for re_s, im_s, label in pts:
            assert label == "boundary"
            assert abs(float(re_s) ** 2 + float(im_s) ** 2 - 1.0) < 1e-12

    def test_ellipse_rows_satisfy_quadratic_form(self, tmp_path):
        cfg = _fast_config(tau=0.0, dims=((32, 64),), product_kind=CONJ_TRANSPOSE)
        path = cmd_boundary(cfg, out_dir=tmp_path)
        a = b = np.sqrt(2.0)  # semi-axes for tau=0, alpha=2, unit sigmas
        for row in path.read_text().splitlines()[1:]:
            re_s, im_s, _ = row.split(",")
            q = (float(re_s) / a) ** 2 + (float(im_s) / b) ** 2
            assert abs(q - 1.0) < 1e-12

    def test_zero_atom_flag_row_when_narrow(self, tmp_path):
        cfg = _fast_config(tau=0.0, dims=((64, 32),), product_kind=PSEUDO_INVERSE)
        rows = cmd_boundary(cfg, out_dir=tmp_path).read_text().splitlines()
        assert rows[-1] == "0.0,0.0,zero_atom"
        assert len(rows) == 1 + 512 + 1

    def test_square_aspect_pseudo_inverse_raises(self, tmp_path):
        cfg = _fast_config(dims=((32, 32),), product_kind=PSEUDO_INVERSE)
        with pytest.raises(AlphaOneUnsupported):
            cmd_boundary(cfg, out_dir=tmp_path)


class TestCmdVerify:
    def test_report_lists_each_check_once(self, tmp_path):
        cfg = _fast_config()
        report, path = cmd_verify(cfg, out_dir=tmp_path)
        assert [c.name for c in report.checks] == list(cfg.checks)
        on_disk = json.loads(path.read_text())
        assert [c["name"] for c in on_disk["checks"]] == list(cfg.checks)
        assert on_disk["version"]

    def test_exact_checks_pass_on_small_config(self, tmp_path):
        report, _ = cmd_verify(_fast_config(), out_dir=tmp_path)
        assert report.exit_code == 0
        assert {c.status for c in report.checks} <= {"pass", "advisory"}

    def test_reports_semantically_identical_across_runs(self, tmp_path):
        cfg = _fast_config()
        r1 = json.loads(cmd_verify(cfg, out_dir=tmp_path / "a")[1].read_text())
        r2 = json.loads(cmd_verify(cfg, out_dir=tmp_path / "b")[1].read_text())
        r1.pop("wall_time_s")
        r2.pop("wall_time_s")
        assert r1 == r2

    def test_square_aspect_coverage_is_a_fatal_config_failure(self, tmp_path):
        cfg = _fast_config(
            dims=((32, 32),), product_kind=PSEUDO_INVERSE, checks=("coverage",)
        )
        report, _ = cmd_verify(cfg, out_dir=tmp_path)
        assert report.exit_code != 0
        check = report.checks[0]
        assert check.status == "fail"
        assert "AlphaOneUnsupported" in str(check.stats)

    def test_invalid_config_aborts(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_verify(_fast_config(trials=0), out_dir=tmp_path)

    def test_strict_promotes_advisory_coverage(self, tmp_path):
        # tiny size with zero margin: some eigenvalues stray outside, so
        # coverage falls short; advisory by default, fatal under strict
        squeeze = dict(
            tau=0.0,
            kind=COMPLEX_GENERAL,
            dims=((24, 24),),
            product_kind=CONJ_TRANSPOSE,
            trials=2,
            margin=0.0,
            base_seed=5,
            checks=("coverage",),
            threads=1,
        )
        lax, _ = cmd_verify(ExperimentConfig(**squeeze), out_dir=tmp_path / "a")
        assert lax.checks[0].status == "advisory"
        assert lax.exit_code == 0
        strict, _ = cmd_verify(
            ExperimentConfig(**squeeze, strict=True), out_dir=tmp_path / "b"
        )
        assert strict.checks[0].status == "fail"
        assert strict.exit_code == 1

    def test_reports_are_utf8_with_lf_endings(self, tmp_path):
        # verify's and sweep's reports, as test_lf_line_endings requires of the CSV
        cfg = _fast_config(sweep_alphas=(0.5, 2.0))
        report, path = cmd_verify(cfg, out_dir=tmp_path / "verify")
        assert path.read_bytes() == report.to_json().encode("utf-8")
        paths, _ = cmd_sweep(cfg, out_dir=tmp_path / "sweep")
        for data in map(Path.read_bytes, (path, *paths)):
            data.decode("utf-8")
            assert b"\r" not in data
            assert data.endswith(b"\n")


_SIGMA_EDGE = 2.0**256
_NUDGE = 1.0 + 2**-52
# Sigmas up to, at and just past both edges of the accepted range.
_SIGMAS = st.floats(-260.0, 260.0).map(lambda e: 2.0**e) | st.builds(
    lambda s, nudge: s * nudge,
    st.sampled_from([1.0 / _SIGMA_EDGE, 2.0**-128, 1.0, 2.0**128, _SIGMA_EDGE]),
    st.sampled_from([1.0, _NUDGE, 1.0 / _NUDGE]),
)
_TINY_DIMS = st.tuples(st.integers(1, 4), st.integers(1, 4))


class TestReportsAreFinite:
    """Every config either fails to build or runs to a finite report."""

    @settings(max_examples=80, deadline=None)
    @given(
        sigma_x=_SIGMAS,
        sigma_y=_SIGMAS,
        tau=st.sampled_from([0.0, 0.5, 1.0, -1.0, 0.999999]),
        kind=st.sampled_from([REAL, COMPLEX_GENERAL]),
        product_kind=st.sampled_from(PRODUCT_KINDS),
        dims=st.lists(_TINY_DIMS, min_size=1, max_size=2),
        trials=st.integers(1, 2),
    )
    def test_verify_report_parses_with_every_status_known(self, **fields):
        try:
            cfg = ExperimentConfig(base_seed=3, threads=1, **fields)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as out:
            _, path = cmd_verify(cfg, out_dir=out)
            report = json.loads(path.read_text(), parse_constant=_no_constant)
        assert {c["status"] for c in report["checks"]} <= {"pass", "fail", "advisory"}

    @pytest.mark.parametrize(
        "sigmas", [(2.0**128, 2.0**128), (2.0**128, 2.0**-128), (2.0**-128, 2.0**-128)]
    )
    def test_report_at_the_sigma_bound_is_finite(self, tmp_path, sigmas):
        # exactly at the bound the squared scales, summed, still fit in float64
        def verify(sigma_x, sigma_y, out):
            out.mkdir()
            fields = {"sigma_x": sigma_x, "sigma_y": sigma_y, "tau": 0.5, "kind": "real"}
            cfg_path = out / "cfg.json"
            cfg_path.write_text(json.dumps({**fields, "dims": [[6, 3], [3, 6]], "trials": 3}))
            main(["verify", "--config", str(cfg_path), "--out", str(out)])
            text = (out / "report.json").read_text()
            return {c["name"]: c for c in json.loads(text, parse_constant=_no_constant)["checks"]}

        checks = verify(*sigmas, tmp_path / "bound")
        exact = {"penrose", "weinstein_aronszajn", "zero_atoms", "disc_equivalence"}
        assert {checks[name]["status"] for name in exact} == {"pass"}
        # the spectra are powers of two times the unit-scale ones, and
        # every check measures them relative to what it tests
        unit = verify(1.0, 1.0, tmp_path / "unit")
        assert {n: c["status"] for n, c in checks.items()} == {
            n: c["status"] for n, c in unit.items()
        }
        assert len(checks) == len(CHECK_NAMES)

        def classified(check):
            rows = check["stats"]["per_dims"]
            return check["status"], [(r["inside_fraction"], r["zero_count_total"]) for r in rows]

        assert classified(checks["coverage"]) == classified(unit["coverage"])


# Each kind with the taus it accepts: real entries need a real tau.
_KIND_TAUS = [(REAL, 0.5)] + [(COMPLEX_GENERAL, t) for t in (0.5, 0.5 + 0.3j, -0.6j)]


class TestStatusesAreScaleFree:
    """Every check's status is unchanged when sigma_x and sigma_y scale by 2^k."""

    @settings(max_examples=64, deadline=None)
    @given(
        k=st.integers(-100, 100),
        j=st.integers(-100, 100),
        kind_tau=st.sampled_from(_KIND_TAUS),
        product_kind=st.sampled_from(PRODUCT_KINDS),
        dims=st.lists(_TINY_DIMS, min_size=1, max_size=2),
        # one trial gates the means by an absolute 1e-9, which is not scale-free
        trials=st.integers(2, 3),
        base_seed=st.integers(0, 2**16),
    )
    def test_verify_statuses_do_not_move_under_a_power_of_two(
        self, k, j, kind_tau, product_kind, dims, trials, base_seed
    ):
        kind, tau = kind_tau
        fields = dict(
            kind=kind, tau=tau, product_kind=product_kind, dims=tuple(dims),
            trials=trials, base_seed=base_seed, threads=1,
        )

        def statuses(sigma_x, sigma_y):
            cfg = ExperimentConfig(sigma_x=sigma_x, sigma_y=sigma_y, **fields)
            with tempfile.TemporaryDirectory() as out:
                report, _ = cmd_verify(cfg, out_dir=out)
            return {c.name: c.status for c in report.checks}

        unit = statuses(1.0, 1.0)
        assert len(unit) == len(CHECK_NAMES)
        assert statuses(2.0**k, 2.0**j) == unit

    def test_rotation_field_check_passes_at_sigma_100(self, tmp_path):
        cfg = ExperimentConfig(
            sigma_x=100.0,
            sigma_y=100.0,
            tau=0.5 + 0.3j,
            kind=COMPLEX_GENERAL,
            dims=((400, 200), (400, 800)),
            checks=("rotation",),
        )
        report, _ = cmd_verify(cfg, out_dir=tmp_path)
        assert report.checks[0].status == "pass"
        assert report.checks[0].stats["field_max_error"] <= harness.FIELD_TOL
        assert report.exit_code == 0

    def test_disc_band_is_in_normalised_radius(self, monkeypatch):
        # a band of 0.1 around rho = 1 skips 0.2 / 1.6 of the drawn points,
        # whatever the disc's radius
        monkeypatch.setattr(harness, "EQUIV_BAND", 0.1)
        stats = harness._check_disc_equivalence(_fast_config(), []).stats
        drawn = stats["draws"] + stats["skipped_band"]
        share, want = stats["skipped_band"] / drawn, 0.2 / 1.6
        assert abs(share - want) <= 5.0 * math.sqrt(want * (1.0 - want) / drawn)
        assert stats["disagreements"] == 0


class TestCmdSweep:
    def test_grid_of_reports(self, tmp_path):
        cfg = _fast_config(
            dims=((32, 16),),
            checks=("penrose",),
            trials=1,
            sweep_taus=(0.0, 0.5),
            sweep_alphas=(0.5, 2.0),
        )
        paths, code = cmd_sweep(cfg, out_dir=tmp_path)
        assert len(paths) == 4
        assert code == 0
        names = sorted(p.name for p in paths)
        assert names == [
            "report_tau0_alpha0.json",
            "report_tau0_alpha1.json",
            "report_tau1_alpha0.json",
            "report_tau1_alpha1.json",
        ]
        cell = json.loads(paths[0].read_text())
        assert cell["config"]["dims"] == [[32, 16]]

    def test_bad_later_cell_fails_before_any_cell_runs(self, tmp_path):
        # complex tau is invalid for complex_independent; only the second
        # cell has one, and no report may be written for the first
        fields = dict(kind=COMPLEX_INDEPENDENT, dims=((20, 40),), sweep_taus=(0.0, 0.3 + 0.3j))
        with pytest.raises(ConfigError, match="requires real tau"):
            _fast_config(trials=2, **fields)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"kind": COMPLEX_INDEPENDENT, "dims": [[20, 40]], "trials": 2,
                        "sweep_taus": [0.0, [0.3, 0.3]]})
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("product_kind", PRODUCT_KINDS)
    def test_each_cell_report_is_the_verify_report_of_its_config(self, tmp_path, product_kind):
        # guards the cell derivation and the one disc_equivalence run all cells share
        cfg = _fast_config(
            dims=((16, 8),),
            product_kind=product_kind,
            checks=CHECK_NAMES,
            sweep_taus=(0.0, 0.5),
            sweep_alphas=(0.5, 2.0),
        )
        paths, _ = cmd_sweep(cfg, out_dir=tmp_path / "sweep")
        assert len(paths) == 4
        for path in paths:
            cell = json.loads(path.read_text())
            cell_cfg = ExperimentConfig.from_json_dict(cell["config"])
            _, verify_path = cmd_verify(cell_cfg, out_dir=tmp_path / path.stem)
            alone = json.loads(verify_path.read_text())
            cell.pop("wall_time_s")
            alone.pop("wall_time_s")
            assert cell == alone

    def test_alpha_rounding_to_square_pseudo_inverse_is_a_config_error(self, tmp_path):
        fields = dict(dims=((40, 80),), product_kind=PSEUDO_INVERSE, sweep_alphas=(0.5, 1.01))
        with pytest.raises(ConfigError, match="1.01"):
            _fast_config(checks=("coverage",), trials=1, **fields)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"dims": [[40, 80]], "product_kind": PSEUDO_INVERSE,
                        "checks": ["coverage"], "trials": 1, "sweep_alphas": [0.5, 1.01]})
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()

    def test_strict_promotes_advisory_coverage_in_every_cell(self, tmp_path):
        # margin 0 at n = 40: coverage falls short in all six cells; strict
        # turns that status to fail and moves no other status or statistic
        grid = dict(
            kind=COMPLEX_GENERAL,
            dims=((40, 80),),
            trials=4,
            margin=0.0,
            checks=CHECK_NAMES,
            sweep_taus=(0.5, 0.35 + 0.35j),
            sweep_alphas=(0.25, 1.5, 3.0),
        )
        runs = []
        for strict in (False, True):
            paths, code = cmd_sweep(_fast_config(strict=strict, **grid), tmp_path / str(strict))
            assert len(paths) == 6
            assert code == int(strict)
            runs.append([json.loads(p.read_text()) for p in paths])
        equivalence = set()
        for lax, strict in zip(*runs):
            lax_checks = {c["name"]: c for c in lax["checks"]}
            strict_checks = {c["name"]: c for c in strict["checks"]}
            assert lax_checks["coverage"]["status"] == "advisory"
            assert strict_checks["coverage"]["status"] == "fail"
            for name in CHECK_NAMES:
                assert lax_checks[name]["stats"] == strict_checks[name]["stats"]
                if name != "coverage":
                    assert lax_checks[name]["status"] == strict_checks[name]["status"]
            for checks in (lax_checks, strict_checks):
                equivalence.add(json.dumps(checks["disc_equivalence"]["stats"], sort_keys=True))
        assert len(equivalence) == 1


class TestCli:
    def test_verify_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_fast_config().to_json())
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "penrose: pass" in out

    def test_sample_writes_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_fast_config(dims=((4, 4),), trials=1).to_json())
        code = main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "eigenvalues.csv").exists()

    def test_bad_config_exits_two(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"trials": 0}')
        assert main(["verify", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"tau": NaN}',
            '{"margin": Infinity}',
            '{"zero_tol": Infinity}',
            '{"sweep_alphas": [Infinity]}',
        ],
    )
    def test_non_finite_json_value_exits_two(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()
        field = text.split('"')[1]
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"strict": "false"},
            {"trials": 2.7},
            {"trials": True},
            {"base_seed": 1.9},
            {"dims": [[20, 10, 7]]},
            {"dims": [[20.9, 10]]},
            {"margin": "0.1"},
            {"zero_tol": True},
            {"tau": True},
            {"sweep_alphas": [True]},
            {"checks": ["penrose", "penrose"]},
            # out_dir is no longer a field: --out is the command's argument
            {"out_dir": "results"},
            {"dims": [[200_000, 200_000]]},
            # sweep-cell rules hold for every command
            {"kind": "complex_independent", "dims": [[20, 40]], "sweep_taus": [0.0, [0.3, 0.3]]},
            {"dims": [[40, 80]], "sweep_alphas": [0.5, 1.01]},
            # zero_tol is no longer a field: default_zero_tol is the one threshold
            {"zero_tol": 1e-9},
            # past the sigma scale bound, 2^256
            {"sigma_x": 2.0**128 * (1.0 + 2**-52), "sigma_y": 2.0**128},
            {"sigma_x": 2.0**-256 / (1.0 + 2**-52)},
        ],
    )
    def test_mistyped_field_exits_two(self, tmp_path, monkeypatch, capsys, fields):
        # each of these used to run after a silent coercion, or crash
        cfg_path = tmp_path / "cfg.json"
        config = {"dims": [[20, 10]], "trials": 2, "checks": ["penrose"], **fields}
        cfg_path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(run_dir.iterdir()) == []

    def test_non_utf8_config_exits_two(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe" + '{"trials": 2}'.encode("utf-16-le"))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main(["verify", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(run_dir.iterdir()) == []

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2

    def test_square_aspect_boundary_exits_nonzero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            _fast_config(dims=((16, 16),), product_kind=PSEUDO_INVERSE).to_json()
        )
        code = main(["boundary", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 2

    def test_square_aspect_verify_exits_nonzero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            _fast_config(
                dims=((16, 16),), product_kind=PSEUDO_INVERSE, checks=("coverage",)
            ).to_json()
        )
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == 1

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_fast_config(dims=((6, 6),), trials=1).to_json())
        main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(
            [
                "sample",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "b"),
                "--seed",
                "999",
            ]
        )
        a = (tmp_path / "a" / "eigenvalues.csv").read_bytes()
        b = (tmp_path / "b" / "eigenvalues.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize("command", ["sample", "boundary", "verify", "sweep"])
    def test_out_reaches_the_command_through_the_config(self, tmp_path, monkeypatch, command):
        """--out reaches the command as its argument; the config holds no path."""
        seen = []
        real = getattr(cli, f"cmd_{command}")

        def spy(*args, **kwargs):
            seen.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, f"cmd_{command}", spy)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_fast_config(dims=((6, 3),), trials=1).to_json())
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        [(args, kwargs)] = seen
        assert kwargs == {} and args[1] == str(out)
        assert str(out) not in args[0].to_json()
        assert any(out.iterdir())

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_reports_do_not_depend_on_the_out_path(self, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_fast_config(dims=((12, 6),), trials=2, sweep_alphas=(0.5, 2.0)).to_json())
        texts = []
        for out in (tmp_path / "a", tmp_path / "deeper" / "b"):
            assert main([command, "--config", str(cfg_path), "--out", str(out.resolve())]) == 0
            texts.append({
                path.name: [line for line in path.read_text().splitlines()
                            if '"wall_time_s"' not in line]
                for path in out.iterdir()
            })
        assert texts[0] == texts[1]
        assert len(texts[0]) == (1 if command == "verify" else 2)

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--out", str(tmp_path), "--threads", "1"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestThreadCountDeterminism:
    """threads = 1 and threads = 2 give the same CSV bytes and reports.

    ``threads`` selects nothing, and OpenBLAS is pinned to one thread
    whatever OPENBLAS_NUM_THREADS says, so every LAPACK call runs
    single-threaded.
    """

    @pytest.mark.parametrize("kind", [COMPLEX_INDEPENDENT, REAL])
    def test_sample_and_verify_do_not_depend_on_threads(self, tmp_path, kind):
        cfg = ExperimentConfig(
            kind=kind,
            tau=0.5,
            dims=((400, 200), (300, 600)),
            trials=2,
            base_seed=31337,
        )
        csvs, reports = [], []
        for threads in (1, 2):
            run = replace(cfg, threads=threads)
            out = tmp_path / f"threads{threads}"
            csvs.append(cmd_sample(run, out_dir=out).read_bytes())
            report = json.loads(cmd_verify(run, out_dir=out)[1].read_text())
            report.pop("wall_time_s")
            report["config"].pop("threads")
            reports.append(report)
        assert csvs[0] == csvs[1]
        assert reports[0] == reports[1]

    def test_cli_output_does_not_depend_on_blas_or_harness_threads(self, tmp_path):
        with blas_single_thread() as pinned:
            if not pinned:
                pytest.skip("no OpenBLAS to pin")
        config = {"kind": REAL, "tau": 0.5, "dims": [[400, 200], [300, 600]],
                  "trials": 2, "base_seed": 31337}
        src = str(Path(pairspec.__file__).resolve().parent.parent)
        outputs = []
        for blas in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": src}
            for threads in (1, 2):
                run_dir = tmp_path / f"blas{blas}_threads{threads}"
                run_dir.mkdir()
                cfg_path = run_dir / "cfg.json"
                cfg_path.write_text(json.dumps({**config, "threads": threads}))
                for command in ("sample", "verify"):
                    argv = [sys.executable, "-m", "pairspec.cli", command, "--config",
                            str(cfg_path), "--out", "out"]
                    done = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True)
                    assert done.returncode in (0, 1), done.stderr
                report = json.loads((run_dir / "out" / "report.json").read_text())
                report.pop("wall_time_s")
                report["config"].pop("threads")
                csv = (run_dir / "out" / "eigenvalues.csv").read_bytes()
                outputs.append((csv, report))
        assert all(out == outputs[0] for out in outputs[1:])


def _count_calls(monkeypatch, name, calls):
    """Replace harness.<name> with a wrapper that counts its calls."""
    real = getattr(harness, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)


def _count_linalg_calls(monkeypatch, name, calls):
    """Count np.linalg.<name> calls, from whichever module makes them."""
    real = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)


def _plant_rank_deficient_y(monkeypatch):
    """Make every pair harness draws have a numerically rank-deficient Y.

    Two equal columns when Y is tall, two equal rows otherwise: rank
    min(n, p) - 1, so R of Y's (or Y*'s) QR is numerically singular.
    """
    real = harness.sample_pair

    def planted(*args, **kwargs):
        pair = real(*args, **kwargs)
        y = pair.y_mat.copy()
        n, p = y.shape
        if p < n:
            y[:, 5] = y[:, 2]
        else:
            y[7, :] = y[3, :]
        return dataclasses.replace(pair, y_mat=y)

    monkeypatch.setattr(harness, "sample_pair", planted)


class TestTrialPipeline:
    """verify draws each (dims, trial) pair once and reduces it for every check."""

    def test_each_pair_is_drawn_and_solved_once(self, tmp_path, monkeypatch):
        cfg = _fast_config(dims=((24, 12), (20, 40)), checks=CHECK_NAMES)
        calls = Counter()
        _count_calls(monkeypatch, "sample_pair", calls)
        _count_calls(monkeypatch, "spectrum", calls)
        _count_calls(monkeypatch, "qr_factor", calls)
        _count_calls(monkeypatch, "_support", calls)
        monkeypatch.setattr(empirical, "qr_factor", harness.qr_factor)
        _count_linalg_calls(monkeypatch, "svd", calls)
        _count_linalg_calls(monkeypatch, "qr", calls)
        householder_qr = matalg._householder_qr
        monkeypatch.setattr(
            matalg,
            "_householder_qr",
            lambda *args: calls.update(["in_place_qr"]) or householder_qr(*args),
        )
        cmd_verify(cfg, out_dir=tmp_path)
        # one pass over dims x trials, plus rotation's two seed-matched streams
        pairs = len(cfg.dims) * cfg.trials
        want = pairs + 2 * cfg.trials
        # one QR factor, one Householder QR (in place where LAPACK's routines
        # are found, else np.linalg.qr), no SVD and one spectrum per
        # full-rank pair, zero_atoms' tall ones included; rotation reduces
        # traces; one support per dims entry
        assert calls == {
            "sample_pair": want,
            "spectrum": pairs,
            "qr_factor": pairs,
            "_support": len(cfg.dims),
            "in_place_qr" if matalg._lapack_qr() else "qr": pairs,
        }
        assert calls["svd"] == 0

    @pytest.mark.parametrize("kind", [REAL, COMPLEX_GENERAL])
    def test_numpy_qr_in_place_of_lapack_gives_the_same_bytes(self, tmp_path, monkeypatch, kind):
        cfg = _fast_config(kind=kind, dims=((48, 24), (24, 48), (30, 30)), checks=CHECK_NAMES)
        outputs = []
        for run in ("found", "forced_empty"):
            if run == "forced_empty":
                monkeypatch.setattr(matalg, "_lapack_qr", lambda: {})
            out = tmp_path / run
            csv = cmd_sample(cfg, out_dir=out).read_bytes()
            report = json.loads(cmd_verify(cfg, out_dir=out)[1].read_text())
            report.pop("wall_time_s")
            outputs.append((csv, report))
        assert outputs[0] == outputs[1]

    def test_rotation_reduces_traces_of_each_pair_drawn_once(self, tmp_path, monkeypatch):
        cfg = _fast_config(dims=((24, 40),), trials=4, checks=("rotation",))
        calls = Counter()
        _count_calls(monkeypatch, "sample_pair", calls)
        _count_calls(monkeypatch, "spectrum", calls)
        report, _ = cmd_verify(cfg, out_dir=tmp_path)
        assert calls == {"sample_pair": 2 * cfg.trials}
        stats = report.checks[0].stats
        # the same statistic from eigenvalue sums of the same pairs
        dims = Dims(*cfg.dims[0])
        sums = [
            [
                np.sum(spectrum(sample_pair(params, dims, seed), CONJ_TRANSPOSE).eigs)
                for seed in (
                    derive_seed(cfg.base_seed, harness._ROTATION_SEED_BASE + t)
                    for t in range(cfg.trials)
                )
            ]
            for params in harness._rotation_params(cfg)
        ]
        (m0, se0), (m1, se1) = (grand_mean(s, [dims.n] * cfg.trials) for s in sums)
        dev = abs(m1 - cmath.exp(1j * harness.ROTATION_ANGLE) * m0)
        assert abs(stats["mean_deviation"] - dev) <= 1e-12 * max(1.0, abs(m0))
        assert abs(stats["joint_standard_error"] - math.hypot(se0, se1)) <= 1e-12

    def test_mean_eigenvalue_reduces_the_sampled_spectra(self, tmp_path):
        cfg = _fast_config(
            dims=((24, 12), (20, 40)), trials=4, checks=("mean_eigenvalue",)
        )
        csv = cmd_sample(cfg, out_dir=tmp_path).read_text()
        rows = [r.split(",") for r in csv.splitlines()[1:]]
        report, _ = cmd_verify(cfg, out_dir=tmp_path)
        for entry in report.checks[0].stats["per_dims"]:
            lams = [
                complex(float(re), float(im))
                for _, n, p, re, im in rows
                if (int(n), int(p)) == (entry["n"], entry["p"])
            ]
            assert len(lams) == entry["n"] * cfg.trials
            want = sum(lams) / len(lams)
            got = complex(entry["mean_re"], entry["mean_im"])
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("product", PRODUCT_KINDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_mean_traces_match_the_eigenvalue_sums(self, monkeypatch, product, kind):
        cfg = _fast_config(
            kind=kind,
            tau=0.3 if kind != COMPLEX_GENERAL else 0.3 + 0.2j,
            dims=((24, 12), (20, 40)),
            product_kind=product,
            checks=("mean_eigenvalue",),
        )
        calls = Counter()
        _count_linalg_calls(monkeypatch, "eigvals", calls)
        got = harness._trial_records(cfg)["mean_eigenvalue"]
        assert calls["eigvals"] == 0  # with coverage off, no eigensolve runs
        for d_i, sums in enumerate(got):
            for trace, pair in zip(sums, harness._pairs(cfg, d_i), strict=True):
                eigs = spectrum(pair, product).eigs
                assert abs(trace - np.sum(eigs)) <= 1e-12 * float(np.sum(np.abs(eigs)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_records_are_the_library_paths_bit_for_bit(self, kind):
        # with zero_atoms on, verify still factors Y as spectrum() does
        cfg = _fast_config(
            kind=kind,
            tau=0.3 if kind != COMPLEX_GENERAL else 0.3 + 0.2j,
            dims=((60, 30), (30, 60)),
            base_seed=7,
            checks=("zero_atoms", "coverage", "mean_eigenvalue"),
        )
        records = harness._trial_records(cfg)
        for d_i, (n, p) in enumerate(cfg.dims):
            support = disc_support(cfg.ensemble_params(), p / n)
            got = zip(records["coverage"][d_i], records["mean_eigenvalue"][d_i], strict=True)
            for (report, trace), pair in zip(got, harness._pairs(cfg, d_i), strict=True):
                sample = spectrum(pair, PSEUDO_INVERSE)
                assert report == coverage(sample, support, cfg.margin)
                assert trace == complex(np.trace(harness.qr_factor(pair.y_mat).reduced(pair.x_mat)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_deficient_y_takes_the_svd_fallback(self, tmp_path, monkeypatch, kind):
        _plant_rank_deficient_y(monkeypatch)
        cfg = _fast_config(
            kind=kind,
            tau=0.3 if kind != COMPLEX_GENERAL else 0.3 + 0.2j,
            dims=((24, 12),),
            checks=("penrose", "zero_atoms", "coverage", "mean_eigenvalue"),
        )
        # one SVD per pair, whichever checks read the pair's Y†
        for checks in (("coverage",), cfg.checks):
            calls = Counter()
            with monkeypatch.context() as m:
                _count_linalg_calls(m, "svd", calls)
                cmd_verify(replace(cfg, checks=checks), out_dir=tmp_path)
            assert calls["svd"] == cfg.trials
        report, _ = cmd_verify(cfg, out_dir=tmp_path)
        results = {c.name: c for c in report.checks}
        assert results["penrose"].status == "pass"
        assert results["zero_atoms"].status == "pass"
        assert results["zero_atoms"].stats["per_dims"][0]["min_zero_count"] == 24 - 12
        # coverage counts the reference spectrum's zeros, the planted extra
        # kernel zero among them, and the mean is the trace of X Y†
        records = harness._trial_records(cfg)
        reports, traces = records["coverage"][0], records["mean_eigenvalue"][0]
        for rep, trace, pair in zip(reports, traces, harness._pairs(cfg, 0), strict=True):
            eigs = reference_spectrum(pair, PSEUDO_INVERSE).eigs
            zeros = int(np.count_nonzero(np.abs(eigs) <= default_zero_tol(eigs)))
            assert rep.zero_count == zeros >= 24 - 12 + 1
            assert abs(trace - np.sum(eigs)) <= 1e-12 * float(np.sum(np.abs(eigs)))

    def test_the_svd_fallback_eigensolves_at_min_n_p(self, tmp_path, monkeypatch):
        # as on the QR path, the SVD-held factor's reduced matrix is min(n, p) square
        _plant_rank_deficient_y(monkeypatch)
        cfg = _fast_config(dims=((24, 12), (12, 24)), checks=CHECK_NAMES)
        calls, shapes = Counter(), []
        _count_linalg_calls(monkeypatch, "svd", calls)
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(a.shape) or real(a))
        cmd_sample(cfg, out_dir=tmp_path)
        cmd_verify(cfg, out_dir=tmp_path)
        pairs = len(cfg.dims) * cfg.trials
        assert calls["svd"] == 2 * pairs  # every pair, in sample and in verify
        assert shapes == [(12, 12)] * 2 * pairs

    @pytest.mark.parametrize("planted", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_counts_match_the_reference_spectrum(self, monkeypatch, kind, planted):
        if planted:
            _plant_rank_deficient_y(monkeypatch)
        cfg = _fast_config(
            kind=kind,
            tau=0.3 if kind != COMPLEX_GENERAL else 0.3 + 0.2j,
            dims=((24, 12), (30, 7), (12, 24)),
            checks=("zero_atoms",),
        )
        records = harness._trial_records(cfg)["zero_atoms"]
        assert records[2] == []  # p >= n: nothing to certify
        for d_i, (n, p) in enumerate(cfg.dims[:2]):
            pairs = harness._pairs(cfg, d_i)
            for residual, pair in zip(records[d_i], pairs, strict=True):
                assert residual <= harness.KERNEL_TOL  # n - p zeros certified
                eigs = reference_spectrum(pair, PSEUDO_INVERSE).eigs
                count = int(np.count_nonzero(np.abs(eigs) <= default_zero_tol(eigs)))
                assert count >= n - p + planted

    def test_sweep_runs_disc_equivalence_once(self, tmp_path, monkeypatch):
        cfg = _fast_config(
            dims=((20, 40),),
            trials=1,
            checks=("penrose", "disc_equivalence"),
            sweep_taus=(0.0, 0.5),
            sweep_alphas=(0.5, 2.0),
        )
        calls = Counter()
        _count_calls(monkeypatch, "in_support_via_tau", calls)
        paths, code = cmd_sweep(cfg, out_dir=tmp_path)
        assert code == 0
        assert calls["in_support_via_tau"] == EQUIV_DRAWS
        stats = [
            c["stats"]
            for path in paths
            for c in json.loads(path.read_text())["checks"]
            if c["name"] == "disc_equivalence"
        ]
        assert len(stats) == 4
        assert all(s == stats[0] for s in stats)

    def test_trials_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        # threads = 2 and max(n, p) >= 256, where a helper thread used to run
        before = threading.active_count()
        seen = []
        real = harness.sample_pair

        def spy(*args, **kwargs):
            seen.append(threading.active_count())
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_pair", spy)
        verify = _fast_config(dims=((24, 12), (20, 300)), checks=CHECK_NAMES, threads=2)
        cmd_verify(verify, out_dir=tmp_path / "v")
        sweep = _fast_config(
            dims=((20, 300),), checks=CHECK_NAMES, threads=2, sweep_alphas=(0.5, 13.0)
        )
        cmd_sweep(sweep, out_dir=tmp_path / "s")
        assert seen
        assert set(seen) == {before}


# Tall shapes, p < n, on both sides of the plant's p >= 6.
_TALL_DIMS = st.integers(1, 40).flatmap(
    lambda p: st.tuples(st.integers(p + 1, p + 40), st.just(p))
)


class TestKernelCertificate:
    """zero_atoms certifies Y†'s kernel; the full N x N eigensolve is its reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        dims=_TALL_DIMS,
        kind=st.sampled_from(KINDS),
        modulus=st.sampled_from([0.0, 0.5, 0.999999, 1.0]),
        planted=st.booleans(),
        base_seed=st.integers(0, 2**16),
    )
    def test_certified_zeros_are_found_by_the_reference(
        self, dims, kind, modulus, planted, base_seed
    ):
        n, p = dims
        planted = planted and p >= 6  # the plant copies column 2 into column 5
        tau = modulus * (0.6 + 0.8j) if kind == COMPLEX_GENERAL else -modulus
        cfg = _fast_config(
            kind=kind, tau=tau, dims=(dims,), trials=2, base_seed=base_seed,
            checks=("zero_atoms",),
        )
        with pytest.MonkeyPatch.context() as mp:
            if planted:
                _plant_rank_deficient_y(mp)
            residuals = harness._trial_records(cfg)["zero_atoms"][0]
            pairs = list(harness._pairs(cfg, 0))
        check = harness._check_zero_atoms(cfg, [residuals])
        assert check.status == "pass"
        assert check.stats["per_dims"][0]["min_zero_count"] == n - p
        for residual, pair in zip(residuals, pairs, strict=True):
            assert residual <= harness.KERNEL_TOL
            eigs = reference_spectrum(pair, PSEUDO_INVERSE).eigs
            assert np.count_nonzero(np.abs(eigs) <= default_zero_tol(eigs)) >= n - p

    @pytest.mark.parametrize(
        "kind, dims", [(REAL, (40, 10)), (COMPLEX_INDEPENDENT, (200, 100)), (REAL, (60, 59))]
    )
    def test_planted_pinv_error_fails(self, tmp_path, monkeypatch, kind, dims):
        # 1e-9 * ||Y†|| in one entry of Y†; at (60, 59) it moves one kernel vector
        real = harness.qr_factor

        def planted(y):  # a factor that holds the off Y† as its Y†, beside Y's Q
            factor = real(y)
            g = factor.pinv().copy()
            g[0, 0] += 1e-9 * np.linalg.norm(g)
            return dataclasses.replace(factor, r=None, svd_pinv=g)

        monkeypatch.setattr(harness, "qr_factor", planted)
        cfg = _fast_config(kind=kind, dims=(dims,), checks=("zero_atoms",))
        report, _ = cmd_verify(cfg, out_dir=tmp_path)
        assert report.checks[0].status == "fail"
        assert report.exit_code == 1
        entry = report.checks[0].stats["per_dims"][0]
        assert entry["max_certificate_residual"] > 10 * harness.KERNEL_TOL
        assert entry["min_zero_count"] == 0

    @pytest.mark.parametrize("planted", [False, True])
    def test_no_eigensolve_runs(self, tmp_path, monkeypatch, planted):
        if planted:
            _plant_rank_deficient_y(monkeypatch)
        calls = Counter()
        _count_linalg_calls(monkeypatch, "eigvals", calls)
        cfg = _fast_config(dims=((24, 12), (30, 7), (12, 24)), checks=("zero_atoms",))
        report, _ = cmd_verify(cfg, out_dir=tmp_path)
        assert report.checks[0].status == "pass"
        assert calls["eigvals"] == 0

    def test_residual_is_unchanged_under_a_power_of_two(self):
        def residuals(sigma_x, sigma_y):
            cfg = _fast_config(
                sigma_x=sigma_x, sigma_y=sigma_y, kind=COMPLEX_GENERAL, tau=0.5 + 0.3j,
                dims=((40, 10), (30, 29)), checks=("zero_atoms",),
            )
            return harness._trial_records(cfg)["zero_atoms"]

        assert residuals(2.0**90, 2.0**-70) == residuals(1.0, 1.0)


def _reference_records(cfg):
    """Every per-pair record ``verify`` reduces for ``cfg``, from first principles.

    The slow path that ``harness._trial_records`` is held to.  Each pair is
    drawn at derive_seed(base_seed, stream base + counter), not through
    ``harness._pairs``; Y† is ``pseudo_inverse``'s SVD, every eigenvalue
    comes from the full N x N ``reference_spectrum``, product ordering from
    ``wa_identity_check``, and zeros are counted under ``default_zero_tol``.
    A ``zero_atoms`` record is 0 where the pair has at least n - p zeros and
    1 where it has fewer, so ``_check_zero_atoms`` reads it as a residual
    that passes or fails.  Traces are eigenvalue sums; rotation draws its
    own seed-matched pairs.  Returns the records, keyed and shaped as
    ``_trial_records``' are, and beside them each pair's reference spectrum
    (under "coverage") and each trace's Cauchy-Schwarz scale,
    ||X||_F ||Y†||_F or ||X||_F ||Y||_F (under "mean_eigenvalue" and
    "rotation").
    """
    on, kind = set(cfg.checks), cfg.product_kind
    params = cfg.ensemble_params()
    records = {name: [[] for _ in cfg.dims] for name in CHECK_NAMES}
    extras = {name: [[] for _ in cfg.dims] for name in ("coverage", "mean_eigenvalue")}
    for d_i, (n, p) in enumerate(cfg.dims):
        try:
            support = (ellipse_support if kind == CONJ_TRANSPOSE else disc_support)(
                params, p / n
            )
        except AlphaOneUnsupported as exc:
            support = exc
        for trial in range(cfg.trials):
            counter = harness._SAMPLE_SEED_BASE + d_i * cfg.trials + trial
            pair = harness.sample_pair(params, Dims(n, p), derive_seed(cfg.base_seed, counter))
            x, y = pair.x_mat, pair.y_mat
            pinv = pseudo_inverse(y).pinv
            sample = reference_spectrum(pair, kind)
            if "penrose" in on:
                records["penrose"][d_i].append(max(penrose_residuals(y, pinv).values()))
            if "weinstein_aronszajn" in on:
                records["weinstein_aronszajn"][d_i].append(wa_identity_check(pair))
            if "zero_atoms" in on and p < n:
                eigs = reference_spectrum(pair, PSEUDO_INVERSE).eigs
                zeros = np.count_nonzero(np.abs(eigs) <= default_zero_tol(eigs))
                records["zero_atoms"][d_i].append(0.0 if zeros >= n - p else 1.0)
            if "coverage" in on and not isinstance(support, AlphaOneUnsupported):
                records["coverage"][d_i].append(coverage(sample, support, cfg.margin))
                extras["coverage"][d_i].append((sample.eigs, support))
            if "mean_eigenvalue" in on:
                g = pinv if kind == PSEUDO_INVERSE else y.conj().T
                records["mean_eigenvalue"][d_i].append(complex(np.sum(sample.eigs)))
                extras["mean_eigenvalue"][d_i].append(np.linalg.norm(x) * np.linalg.norm(g))
        if "coverage" in on and isinstance(support, AlphaOneUnsupported):
            records["coverage"][d_i] = support
    if "rotation" in on:
        tau = cfg.tau if abs(cfg.tau) > 1e-12 else 0.5 + 0.0j
        ensembles = [
            EnsembleParams(cfg.sigma_x, cfg.sigma_y, t, kind=COMPLEX_GENERAL)
            for t in (tau, tau * cmath.exp(1j * harness.ROTATION_ANGLE))
        ]
        extras["rotation"] = []
        for trial in range(cfg.trials):
            seed = derive_seed(cfg.base_seed, harness._ROTATION_SEED_BASE + trial)
            pairs = [harness.sample_pair(e, Dims(*cfg.dims[0]), seed) for e in ensembles]
            records["rotation"][0].append(
                tuple(complex(np.sum(reference_spectrum(q, CONJ_TRANSPOSE).eigs)) for q in pairs)
            )
            extras["rotation"].append(
                [np.linalg.norm(q.x_mat) * np.linalg.norm(q.y_mat) for q in pairs]
            )
    return records, extras


def _near_a_threshold(eigs, support, margin):
    """Whether an eigenvalue lies within 1e-9 of the boundary or of the zero rule.

    Within 1e-9 of normalised radius 1, or with |lambda| within 1e-9 times
    the largest |lambda| of ``default_zero_tol``: there two correct paths
    may classify it differently.
    """
    radius = normalised_radius(support, eigs, margin)
    size = np.abs(eigs)
    return bool(
        np.any(np.abs(radius - 1.0) <= 1e-9)
        or np.any(np.abs(size - default_zero_tol(eigs)) <= 1e-9 * size.max())
    )


def _gate_is_tied(check, slack):
    """Whether a mean check's deviation sits within ``slack`` of its gate.

    ``mean_eigenvalue`` and ``rotation`` pass at deviation <= 4 SE, or
    <= 1e-9 at SE 0; where the traces are equal to rounding in every trial
    (X Y† at |tau| = 1) both sides of that test are rounding noise.
    """
    stats = check.stats
    pairs = [(d["deviation"], d["standard_error"]) for d in stats.get("per_dims", [])]
    if check.name == "rotation":
        pairs = [(stats["mean_deviation"], stats["joint_standard_error"])]
    gates = [(dev, harness.SE_SIGMAS * se if se > 0.0 else 1e-9) for dev, se in pairs]
    return any(abs(dev - gate) <= slack for dev, gate in gates)


class TestReferenceVerify:
    """verify's trial pipeline against the reference built from first principles."""

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=2
        ),
        trials=st.integers(1, 3),
        kind=st.sampled_from(KINDS),
        product_kind=st.sampled_from(PRODUCT_KINDS),
        modulus=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        phase=st.floats(0.0, 2.0 * math.pi),
        planted=st.booleans(),
        checks=st.sets(st.sampled_from(CHECK_NAMES), min_size=1),
        base_seed=st.integers(0, 2**16),
    )
    def test_statuses_and_records_match_the_reference(
        self, dims, trials, kind, product_kind, modulus, phase, planted, checks, base_seed
    ):
        tau = modulus * cmath.exp(1j * phase) if kind == COMPLEX_GENERAL else -modulus
        cfg = ExperimentConfig(
            kind=kind, tau=tau, dims=tuple(dims), trials=trials, product_kind=product_kind,
            checks=tuple(c for c in CHECK_NAMES if c in checks), base_seed=base_seed,
        )
        with pytest.MonkeyPatch.context() as mp:
            # the plant copies column 2 into 5 of a tall Y, row 3 into 7 of a wide one
            if planted and all(p >= 6 if p < n else n >= 8 for n, p in dims):
                _plant_rank_deficient_y(mp)
            with blas_single_thread():
                got = harness._trial_records(cfg)
                want, extras = _reference_records(cfg)
        # the same records, in the same places; a disabled check records nothing
        for name in CHECK_NAMES:
            for mine, ref in zip(got[name], want[name], strict=True):
                if isinstance(ref, AlphaOneUnsupported):
                    assert isinstance(mine, AlphaOneUnsupported)
                else:
                    assert len(mine) == len(ref)
        for traces, refs, scales in zip(
            got["mean_eigenvalue"], want["mean_eigenvalue"], extras["mean_eigenvalue"]
        ):
            for trace, ref, scale in zip(traces, refs, scales):
                assert abs(trace - ref) <= 1e-9 * scale
        for sums, refs, scales in zip(
            got["rotation"][0], want["rotation"][0], extras.get("rotation", [])
        ):
            for trace, ref, scale in zip(sums, refs, scales):
                assert abs(trace - ref) <= 1e-9 * scale
        # a certified kernel is a kernel: the reference counts n - p zeros
        for residuals, refs in zip(got["zero_atoms"], want["zero_atoms"]):
            for residual, ref in zip(residuals, refs):
                assert residual > harness.KERNEL_TOL or ref == 0.0
        # coverage counts agree unless an eigenvalue sits on a threshold
        ties = False
        for reps, refs, spectra in zip(got["coverage"], want["coverage"], extras["coverage"]):
            if isinstance(refs, AlphaOneUnsupported):
                continue
            for rep, ref, (eigs, support) in zip(reps, refs, spectra):
                if (rep.outlier_count, rep.zero_count) != (ref.outlier_count, ref.zero_count):
                    assert _near_a_threshold(eigs, support, cfg.margin)
                    ties = True
        # the means' gates agree unless the traces' tolerance can tip them
        slack = 1e-8 * max(
            [s for block in extras["mean_eigenvalue"] for s in block]
            + [s for pair in extras.get("rotation", []) for s in pair],
            default=0.0,
        )
        for name in cfg.checks:
            mine, ref = (harness._CHECK_FUNCS[name](cfg, r[name]) for r in (got, want))
            if (name == "coverage" and ties) or (
                name in ("mean_eigenvalue", "rotation") and _gate_is_tied(ref, slack)
            ):
                continue
            assert mine.status == ref.status, name
