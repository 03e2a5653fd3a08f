"""The benchmark's own checks accept real outputs and reject planted errors.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from pairspec import REAL, Dims, EnsembleParams, ExperimentConfig, cmd_verify, sample_pair, spectrum  # noqa: E402

TAU = 0.5
# Small samples spill past the dilated support more than N = 1000 does.
LOOSE_FLOOR = 0.9


def _trial(product, n, p, seed=3):
    pair = sample_pair(EnsembleParams(1.0, 1.0, TAU, kind=REAL), Dims(n, p), seed)
    return spectrum(pair, product).eigs.copy(), pair.x_mat, pair.y_mat


def _problems(eigs, x, y, product):
    return checks.check_trial(eigs, x, y, product, 1.0, 1.0, TAU, coverage_floor=LOOSE_FLOOR)


@pytest.mark.parametrize("product", ["conj_transpose", "pseudo_inverse"])
@pytest.mark.parametrize("n, p", [(120, 60), (120, 240)])
def test_real_trial_passes(product, n, p):
    eigs, x, y = _trial(product, n, p)
    assert _problems(eigs, x, y, product) == []


@pytest.mark.parametrize("product", ["conj_transpose", "pseudo_inverse"])
def test_gram_trace_matches_eigenvalue_sum(product):
    for n, p in [(80, 40), (80, 160)]:
        eigs, x, y = _trial(product, n, p)
        total = complex(np.sum(eigs))
        assert abs(checks.gram_trace(x, y, product) - total) <= 1e-12 * max(1.0, abs(total))


def test_moved_eigenvalue_breaks_trace():
    eigs, x, y = _trial("pseudo_inverse", 120, 240)
    eigs[7] += 1e-3
    assert any("sum of eigenvalues" in w for w in _problems(eigs, x, y, "pseudo_inverse"))


def test_eigenvalue_moved_outside_support_lowers_coverage():
    eigs, _, _ = _trial("pseudo_inverse", 120, 240)
    before = checks.inside_fraction(eigs, "pseudo_inverse", 1.0, 1.0, TAU, 2.0)
    eigs[int(np.argmax(np.abs(eigs)))] *= 10.0
    after = checks.inside_fraction(eigs, "pseudo_inverse", 1.0, 1.0, TAU, 2.0)
    assert after == pytest.approx(before - 1 / 120)


def test_missing_zero_is_rejected():
    eigs, x, y = _trial("pseudo_inverse", 120, 60)
    zero = int(np.argmin(np.abs(eigs)))
    bulk = int(np.argmax(np.abs(eigs)))
    # Move one kernel zero into the bulk and keep the trace unchanged.
    eigs[zero] = 0.3
    eigs[bulk] -= 0.3
    problems = _problems(eigs, x, y, "pseudo_inverse")
    assert problems == ["59 kernel zeros < N - P = 60"]


def test_mean_five_se_off_is_rejected():
    assert checks.mean_within(0.25 + 4.0 * 0.01, 0.25, 0.01)
    assert not checks.mean_within(0.25 + 5.0 * 0.01, 0.25, 0.01)
    assert not checks.mean_within(0.25 + 5.0j * 0.01, 0.25, 0.01)


def test_closed_forms_match_paper():
    c, a, b, rot = checks.ellipse(1.0, 2.0, 0.5j, 4.0)
    assert (c, a, b, rot) == pytest.approx((5j, 5.0, 3.0, np.pi / 2))
    c, r = checks.disc(2.0, 1.0, 0.6, 0.5)
    assert (c, r) == pytest.approx((1.2, 1.6))
    assert checks.mean_prediction(1.0, 1.0, 0.5, 2.0, "conj_transpose") == 1.0
    assert checks.mean_prediction(1.0, 1.0, 0.5, 0.5, "pseudo_inverse") == 0.25


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    dims = ((30, 15), (30, 60))
    config = ExperimentConfig(dims=dims, trials=4, threads=1)
    report, _ = cmd_verify(config, out_dir=tmp_path_factory.mktemp("verify"))
    return json.loads(report.to_json()), dims


def _report_problems(report, dims):
    found = checks.check_report(report, dims, 4, TAU, coverage_floor=None)
    return {name: why for name, why in found.items() if why}


def test_real_report_passes(verify_report):
    report, dims = verify_report
    assert _report_problems(report, dims) == {}


def test_missing_check_is_rejected(verify_report):
    report, dims = verify_report
    report = json.loads(json.dumps(report))
    report["checks"] = [c for c in report["checks"] if c["name"] != "rotation"]
    assert _report_problems(report, dims) == {"rotation": ["missing from report"]}


def test_nan_in_report_is_rejected(verify_report):
    report, dims = verify_report
    report = json.loads(json.dumps(report))
    report["checks"][0]["stats"]["max_residual"] = float("nan")
    assert list(_report_problems(report, dims)) == ["penrose"]


def test_short_sample_count_is_rejected(verify_report):
    report, dims = verify_report
    report = json.loads(json.dumps(report))
    wa = next(c for c in report["checks"] if c["name"] == "weinstein_aronszajn")
    wa["stats"]["samples"] -= 1
    assert list(_report_problems(report, dims)) == ["weinstein_aronszajn"]


def test_report_mean_five_se_off_is_rejected(verify_report):
    report, dims = verify_report
    report = json.loads(json.dumps(report))
    entry = next(c for c in report["checks"] if c["name"] == "mean_eigenvalue")["stats"]["per_dims"][1]
    entry["mean_re"] = entry["predicted_re"] + 5.0 * entry["standard_error"]
    assert list(_report_problems(report, dims)) == ["mean_eigenvalue"]


def test_failed_status_is_rejected(verify_report):
    report, dims = verify_report
    report = json.loads(json.dumps(report))
    report["checks"][2]["status"] = "fail"
    assert list(_report_problems(report, dims)) == ["zero_atoms"]


class TinySweep(workloads.SweepSmallGrid):
    n0 = 20
    trials = 3
    taus = (0.5, 0.2 + 0.3j)
    alphas = (0.5, 2.0)


def test_sweep_missing_cell_is_rejected(tmp_path):
    wl = TinySweep(seed=5, work=tmp_path, threads=1)
    rnd, out = wl.run_round()
    assert (rnd.attempted, rnd.failed) == (4, 0)
    (out / "report_tau1_alpha0.json").unlink()
    rnd = workloads.Round()
    wl.check(rnd, out, 0)
    assert (rnd.attempted, rnd.failed) == (4, 1)


def test_report_bytes_do_not_depend_on_the_output_path(tmp_path):
    short = TinySweep(seed=5, work=tmp_path, threads=1)
    deep = tmp_path / ("d" * 40)
    deep.mkdir()
    long = TinySweep(seed=5, work=deep, threads=1)
    (_, out_a), (_, out_b) = short.run_round(), long.run_round()
    assert workloads.report_bytes(out_a) == workloads.report_bytes(out_b)


def test_traced_run_reports_the_per_layer_metrics_of_benchmark_json(tmp_path):
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics, attempted, failed, _ = run.traced_run(TinySweep(seed=5, work=tmp_path, threads=1))
    assert (attempted, failed) == (4, 0)
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert metrics["harness.cmd_sweep.calls"]["value"] == 1
    assert metrics["trace.overhead_s"]["value"] > 0
