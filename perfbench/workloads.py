"""The three workloads: their inputs, one round of commands, and its checks.

A round runs the same operations on the same inputs every time, so the
share of failed operations cannot depend on how many rounds fit in a
run.  ``run_round`` times only the program's own calls; the checks in
``checks`` run between them, off the clock.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

CHECK_NAMES = checks.CHECK_NAMES


@dataclass
class Round:
    """Timed figures and check outcome of one round."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, op: str, why: list[str]) -> None:
        if why:
            self.failed += 1
            self.problems.extend(f"{op}: {w}" for w in why)


@contextlib.contextmanager
def clock(rnd: Round):
    """Add the block's wall and process CPU time (all threads) to ``rnd``."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        yield
    finally:
        rnd.wall_s += time.perf_counter() - w0
        rnd.cpu_s += time.process_time() - c0


def _cli(argv: list[str]) -> int:
    from pairspec.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def report_bytes(out: Path) -> int:
    """Bytes of the reports in ``out``, less their wall time and ``out``.

    ``wall_time_s`` differs between runs and the output directory's path
    (each report's ``config.out_dir``) between checkouts, so their text
    is left out; the rest is expected to be byte-identical.
    """
    out_text = json.dumps(str(out))
    total = 0
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        total += len(text.encode()) - len(out_text.encode()) * text.count(out_text)
        if path.suffix == ".json":
            total -= len(repr(float(json.loads(text)["wall_time_s"])))
    return total


class Workload:
    """Inputs made from the seed, as a pairspec config written once per run."""

    def __init__(self, seed: int, work: Path, threads: int | None = None) -> None:
        self.seed = seed
        self.work = work
        self.config = self.make_config()
        if threads is not None:
            self.config["threads"] = threads
        self.config_path = self.write_config(self.config, "config.json")

    def make_config(self) -> dict:
        raise NotImplementedError

    def write_config(self, config: dict, name: str) -> Path:
        path = self.work / name
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def run_round(self) -> tuple[Round, Path | None]:
        raise NotImplementedError


class CliWorkload(Workload):
    """A ``pairspec`` CLI command; one operation per check or sweep cell."""

    command = ""
    _outs = 0

    def fresh_out(self) -> Path:
        self._outs += 1
        out = self.work / f"out{self._outs}"
        out.mkdir()
        return out

    def run_round(self) -> tuple[Round, Path]:
        rnd = Round()
        out = self.fresh_out()
        with clock(rnd):
            code = _cli([self.command, "--config", str(self.config_path), "--out", str(out)])
        self.check(rnd, out, code)
        return rnd, out

    def run_single_check(self, name: str) -> float:
        """Wall time of the same command with only check ``name`` enabled."""
        path = self.write_config({**self.config, "checks": [name]}, f"config_{name}.json")
        rnd = Round()
        out = self.fresh_out()
        with clock(rnd):
            _cli([self.command, "--config", str(path), "--out", str(out)])
        return rnd.wall_s

    def check(self, rnd: Round, out: Path, code: int) -> None:
        raise NotImplementedError


class VerifyTwoAspects(CliWorkload):
    """``pairspec verify``, all seven checks, one aspect ratio each side of 1."""

    command = "verify"
    dims = ((400, 200), (400, 800))
    tau = 0.5
    trials = 6

    def make_config(self) -> dict:
        return {
            "kind": "complex_independent",
            "product_kind": "pseudo_inverse",
            "tau": self.tau,
            "dims": [list(d) for d in self.dims],
            "trials": self.trials,
            "base_seed": self.seed,
        }

    def check(self, rnd: Round, out: Path, code: int) -> None:
        rnd.attempted += len(CHECK_NAMES)
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}  # every check is then missing from it
        found = checks.check_report(report, self.dims, self.trials, self.tau)
        if code and not any(found.values()):
            found = {name: [f"exit code {code} with no check failing"] for name in CHECK_NAMES}
        for name in CHECK_NAMES:
            rnd.fail(name, found[name])


class SweepSmallGrid(CliWorkload):
    """``pairspec sweep`` over a 5 x 5 (tau, alpha) grid of tiny matrices."""

    command = "sweep"
    n0 = 40
    trials = 8
    taus = (0.2, 0.5, -0.7, 0.35 + 0.35j, -0.6j)
    alphas = (0.25, 0.5, 0.75, 1.5, 3.0)

    def make_config(self) -> dict:
        return {
            "kind": "complex_general",
            "product_kind": "pseudo_inverse",
            "dims": [[self.n0, 2 * self.n0]],
            "trials": self.trials,
            "sweep_taus": [[t.real, t.imag] for t in map(complex, self.taus)],
            "sweep_alphas": list(self.alphas),
            "base_seed": self.seed,
        }

    def check(self, rnd: Round, out: Path, code: int) -> None:
        cells = [(i, j) for i in range(len(self.taus)) for j in range(len(self.alphas))]
        rnd.attempted += len(cells)
        failed_before = rnd.failed
        for i, j in cells:
            tau = complex(self.taus[i])
            dims = [(self.n0, round(self.alphas[j] * self.n0))]
            name = f"report_tau{i}_alpha{j}.json"
            try:
                report = json.loads((out / name).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                rnd.fail(name, [f"no readable report: {exc}"])
                continue
            found = checks.check_report(report, dims, self.trials, tau, coverage_floor=None)
            rnd.fail(name, [f"{c}: {w}" for c in CHECK_NAMES for w in found[c]])
        if code and rnd.failed == failed_before:
            rnd.failed += len(cells)
            rnd.problems.append(f"exit code {code} with no cell failing")


class TrialN1000Real(Workload):
    """The library path ``sample_pair -> spectrum -> coverage`` at N = 1000.

    Its settings are still a config, so set-up parses and validates one
    just as the CLI workloads do.
    """

    n = 1000
    alphas = (0.5, 2.0, 4.0)
    products = ("conj_transpose", "pseudo_inverse")
    tau = 0.5

    def make_config(self) -> dict:
        return {
            "kind": "real",
            "tau": self.tau,
            "dims": [[self.n, round(a * self.n)] for a in self.alphas],
            "trials": 1,
            "margin": checks.COVERAGE_MARGIN,
            "base_seed": self.seed,
        }

    def run_round(self) -> tuple[Round, None]:
        import pairspec

        rnd = Round()
        params = pairspec.EnsembleParams(1.0, 1.0, self.tau, kind=pairspec.REAL)
        for k, (product, (n, p)) in enumerate(
            (pr, d) for pr in self.products for d in self.config["dims"]
        ):
            rnd.attempted += 1
            seed = self.seed * 16 + k
            with clock(rnd):
                pair = pairspec.sample_pair(params, pairspec.Dims(n, p), seed)
                sample = pairspec.spectrum(pair, product)
                if product == pairspec.CONJ_TRANSPOSE:
                    support = pairspec.ellipse_support(params, p / n)
                else:
                    support = pairspec.disc_support(params, p / n)
                rep = pairspec.coverage(sample, support, margin=self.config["margin"])
            why = checks.check_trial(sample.eigs, pair.x_mat, pair.y_mat, product, 1.0, 1.0, self.tau)
            if rep.inside_fraction < checks.COVERAGE_FLOOR:
                why.append(f"program coverage {rep.inside_fraction} < {checks.COVERAGE_FLOOR}")
            if p < n and rep.zero_count < n - p:
                why.append(f"program zero count {rep.zero_count} < N - P")
            rnd.fail(f"{product} alpha={p / n}", why)
            del pair, sample
        return rnd, None


WORKLOADS = {
    "verify-two-aspects": VerifyTwoAspects,
    "trial-n1000-real": TrialN1000Real,
    "sweep-small-grid": SweepSmallGrid,
}
