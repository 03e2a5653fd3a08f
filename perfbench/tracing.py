"""Spans around calls into pairspec's public functions, for the traced run.

``Tracer.install`` swaps each traced function for a timing wrapper in
every pairspec module namespace that holds it.  ``harness`` and
``empirical`` import ``sample_pair``, ``spectrum``, ``pseudo_inverse``,
``eigenvalues`` and the rest by name, so patching only the defining
module would miss their calls.  Each thread keeps its own span stack,
because the harness pool runs trials on worker threads; a span's self
time is its duration minus its child spans on the same thread.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import threading
import time
from collections import defaultdict
from functools import wraps

# Traced functions per pairspec module; None means every public function.
TRACED = {
    "ensembles": ("sample_pair",),
    "matalg": ("pseudo_inverse", "penrose_residuals", "eigenvalues", "multiset_max_distance"),
    "empirical": ("spectrum", "wa_identity_check", "coverage", "mean_eigenvalue", "default_zero_tol"),
    "predict": None,
    "harness": ("cmd_verify", "cmd_sweep"),
    "cli": ("main",),
}
# Spans that run a whole command; a library span opened with none but
# these below it on its thread is a trial span.
COMMANDS = ("harness.cmd_verify", "harness.cmd_sweep", "cli.main")


class Tracer:
    """Per-name call counts, self times and computed sizes from spans."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.eig_n3 = 0
        self.pair_bytes = 0
        self.max_open_trials = 0
        self._open_trials = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            trial = name not in COMMANDS and all(f[0] in COMMANDS for f in stack)
            if trial:
                with self._lock:
                    self._open_trials += 1
                    self.max_open_trials = max(self.max_open_trials, self._open_trials)
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += took - frame[1]
                    if trial:
                        self._open_trials -= 1
            if name == "matalg.eigenvalues":
                n = len(args[0])
                with self._lock:
                    self.eig_n3 += n**3
            elif name == "ensembles.sample_pair":
                with self._lock:
                    self.pair_bytes += result.x_mat.nbytes + result.y_mat.nbytes
            return result

        return traced

    def install(self) -> None:
        mods = [importlib.import_module("pairspec")]
        mods += [importlib.import_module(f"pairspec.{m}") for m in TRACED]
        wrappers = {}
        for short, mod in zip(TRACED, mods[1:]):
            for attr in TRACED[short] or mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)][1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer figures, as (value, unit), from the spans.

        Every traced function gets ``.calls`` and ``.s`` (self time);
        ``predict``'s public functions are summed into one pair.
        """
        out: dict[str, tuple[float, str]] = {}
        for short, names in TRACED.items():
            if names is None:
                keys = [k for k in self.calls if k.startswith(short + ".")]
                out[f"{short}.calls"] = (sum(self.calls[k] for k in keys), "count")
                out[f"{short}.s"] = (sum(self.self_s[k] for k in keys), "s")
                continue
            for attr in names:
                name = f"{short}.{attr}"
                out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
                out[f"{name}.s"] = (self.self_s.get(name, 0.0), "s")
        out["ensembles.sample_pair.bytes"] = (self.pair_bytes, "B")
        out["matalg.eigenvalues.n3"] = (self.eig_n3, "count")
        harness_cmds = [k for k in COMMANDS if k.startswith("harness.")]
        out["harness.self_s"] = (sum(self.self_s.get(k, 0.0) for k in harness_cmds), "s")
        out["harness.concurrent_trials.max"] = (self.max_open_trials, "count")
        out["trace.overhead_s"] = (sum(self.calls.values()) * wrapper_cost_s(), "s")
        return out


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Time one traced call adds to a bare call: median of ``repeats`` batches."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((mid - start) - (time.perf_counter() - mid))
    return max(statistics.median(costs) / calls, 0.0)
