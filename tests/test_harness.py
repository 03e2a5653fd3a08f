"""Config round-trips, seed derivation, commands, and exit-code contract."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
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
    ExperimentConfig,
    cmd_boundary,
    cmd_sample,
    cmd_sweep,
    cmd_verify,
    derive_seed,
    validate_config,
)
import pairspec
from pairspec import empirical, harness, matalg
from pairspec.cli import main
from pairspec.harness import EQUIV_DRAWS, OVERLAP_MIN_DIM
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
            zero_tol=1e-9,
            checks=("penrose", "rotation"),
            strict=True,
            threads=2,
            out_dir="results",
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
            {"zero_tol": 0.0},
            {"checks": ("penrose", "nonsense")},
            {"checks": ()},
            {"checks": ("penrose", "coverage", "penrose")},
            {"product_kind": "outer"},
            {"sigma_x": -1.0},
            {"tau": 1.5},
            {"tau": math.nan},
            {"margin": math.inf},
            {"margin": math.nan},
            {"zero_tol": math.inf},
            {"zero_tol": math.nan},
            {"threads": -2},
            {"base_seed": 2**64},
            {"sweep_alphas": (math.inf,)},
            {"sweep_alphas": (1e308,)},  # finite, but p = alpha * n0 is not
            # past 10**6 trials x dims the rotation stream runs into the trials'
            {"trials": 600_000, "dims": ((400, 200), (400, 800))},
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

    The bound is harness._trial_bytes: 8 bytes an entry for the real kind,
    16 otherwise, and 16 wherever rotation draws its complex pairs.  The
    guard tests build configs only; nothing large is allocated.
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

    def test_rotation_counts_complex_on_the_first_entry(self):
        n = self._edge()
        # rotation runs at dims[0] only, on complex pairs
        ExperimentConfig(kind=REAL, dims=((4, 2), (n, n)), checks=("rotation",))
        with pytest.raises(ConfigError, match="GiB"):
            ExperimentConfig(kind=REAL, dims=((n, n), (4, 2)), checks=("rotation",))

    def test_sweep_cell_is_checked(self):
        # every sweep cell is checked when the config is built
        with pytest.raises(ConfigError, match=r"\(40, 40000000\).*GiB"):
            _fast_config(dims=((40, 80),), sweep_alphas=(0.5, 10.0**6))

    @pytest.mark.parametrize("kind", [REAL, COMPLEX_GENERAL])
    @pytest.mark.parametrize("dims", [(120, 60), (60, 120), (100, 100), (150, 30), (30, 150)])
    def test_bound_covers_the_traced_peak(self, monkeypatch, kind, dims):
        # every check, each trial split across the helper thread
        monkeypatch.setattr(harness, "OVERLAP_MIN_DIM", 0)
        product = CONJ_TRANSPOSE if dims[0] == dims[1] else PSEUDO_INVERSE
        cfg = ExperimentConfig(
            kind=kind, dims=(dims,), trials=1, checks=CHECK_NAMES, product_kind=product
        )
        with ThreadPoolExecutor(max_workers=1) as pool, blas_single_thread():
            harness._trial_records(cfg, pool)  # first-call allocations
            gc.collect()
            tracemalloc.start()
            try:
                harness._trial_records(cfg, pool)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= harness._trial_bytes(*dims, 16)  # rotation's pairs are complex


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
            {"out_dir": 5},
            {"dims": [[200_000, 200_000]]},
            # sweep-cell rules hold for every command
            {"kind": "complex_independent", "dims": [[20, 40]], "sweep_taus": [0.0, [0.3, 0.3]]},
            {"dims": [[40, 80]], "sweep_alphas": [0.5, 1.01]},
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


class TestThreadCountDeterminism:
    """threads = 1 and threads = 2 give the same CSV bytes and reports.

    threads = 2 splits each trial of these dims across a helper thread
    (max(n, p) >= OVERLAP_MIN_DIM) and threads = 1 does not; OpenBLAS is
    pinned to one thread in both, so every LAPACK call runs single-threaded.
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
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        src = str(Path(pairspec.__file__).resolve().parent.parent)
        outputs = []
        for blas in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": src}
            for threads in ("1", "2"):
                run_dir = tmp_path / f"blas{blas}_threads{threads}"
                run_dir.mkdir()
                for command in ("sample", "verify"):
                    argv = [sys.executable, "-m", "pairspec.cli", command, "--config",
                            str(cfg_path), "--out", "out", "--threads", threads]
                    done = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True)
                    assert done.returncode in (0, 1), done.stderr
                report = json.loads((run_dir / "out" / "report.json").read_text())
                report.pop("wall_time_s")
                report["config"].pop("threads")
                csv = (run_dir / "out" / "eigenvalues.csv").read_bytes()
                outputs.append((csv, report))
        assert all(out == outputs[0] for out in outputs[1:])


class TestTrialOverlap:
    """Trials at or above OVERLAP_MIN_DIM split across one helper thread."""

    def _config(self, threads):
        # both aspects at the size constant, small enough to run quickly
        dims = ((20, OVERLAP_MIN_DIM), (OVERLAP_MIN_DIM, 20))
        return _fast_config(dims=dims, trials=2, checks=CHECK_NAMES, threads=threads)

    def _run(self, tmp_path, monkeypatch, threads):
        """The report of cmd_verify, and the threads that ran trial work."""
        seen = set()
        with monkeypatch.context() as spies:
            for name in ("sample_pair", "wa_identity_check"):
                real = getattr(harness, name)

                def spy(*args, _real=real, **kwargs):
                    seen.add(threading.current_thread())
                    return _real(*args, **kwargs)

                spies.setattr(harness, name, spy)
            report, _ = cmd_verify(self._config(threads), out_dir=tmp_path / f"t{threads}")
        report = report.to_json_dict()
        report.pop("wall_time_s")
        report["config"].pop("threads")
        report["config"].pop("out_dir")
        return report, seen

    def test_one_helper_and_none_left_running(self, tmp_path, monkeypatch):
        with blas_single_thread() as pinned:
            if not pinned:
                pytest.skip("no OpenBLAS to pin")
        before = set(threading.enumerate())
        report, seen = self._run(tmp_path, monkeypatch, threads=2)
        helpers = seen - {threading.current_thread()}
        assert len(helpers) == 1
        assert set(threading.enumerate()) == before
        assert report == self._run(tmp_path, monkeypatch, threads=1)[0]

    def test_no_helper_without_the_pin(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matalg, "_openblas_controls", lambda: [])
        report, seen = self._run(tmp_path, monkeypatch, threads=2)
        assert seen == {threading.current_thread()}
        assert [c["name"] for c in report["checks"]] == list(CHECK_NAMES)
        assert report["overall"] in ("pass", "fail")
        assert report == self._run(tmp_path, monkeypatch, threads=1)[0]

    def test_threads_zero_follows_cpu_affinity(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _, seen = self._run(tmp_path, monkeypatch, threads=0)
        assert seen == {threading.current_thread()}


def _count_calls(monkeypatch, name, calls):
    """Replace harness.<name> with a wrapper that counts its calls."""
    real = getattr(harness, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)


class TestTrialPipeline:
    """verify draws each (dims, trial) pair once and reduces it for every check."""

    def test_each_pair_is_drawn_and_solved_once(self, tmp_path, monkeypatch):
        cfg = _fast_config(dims=((24, 12), (20, 40)), checks=CHECK_NAMES)
        calls = Counter()
        _count_calls(monkeypatch, "sample_pair", calls)
        _count_calls(monkeypatch, "spectrum", calls)
        _count_calls(monkeypatch, "pseudo_inverse", calls)
        monkeypatch.setattr(empirical, "pseudo_inverse", harness.pseudo_inverse)
        cmd_verify(cfg, out_dir=tmp_path)
        # one pass over dims x trials, plus rotation's two seed-matched streams
        want = len(cfg.dims) * cfg.trials + 2 * cfg.trials
        # one SVD per pair, shared by penrose and zero_atoms
        pinvs = len(cfg.dims) * cfg.trials
        assert calls == {"sample_pair": want, "spectrum": want, "pseudo_inverse": pinvs}

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
        before = threading.active_count()
        seen = []
        real = harness.sample_pair

        def spy(*args, **kwargs):
            seen.append(threading.active_count())
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_pair", spy)
        cmd_verify(_fast_config(checks=CHECK_NAMES, threads=2), out_dir=tmp_path / "v")
        sweep = _fast_config(checks=CHECK_NAMES, threads=2, sweep_alphas=(0.5, 2.0))
        cmd_sweep(sweep, out_dir=tmp_path / "s")
        assert seen
        assert set(seen) == {before}
