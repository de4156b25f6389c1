"""Spans recorded at grade's module boundaries, kept in memory.

A span is one call into a public function of a grade module: its name
(``<layer>.<function>``), start and end (``time.perf_counter`` seconds), the
index of the span that was open when it started (``-1`` for none) and the
run id of the pass it belongs to. A span's self time is its duration minus
the part of it that its child spans cover.

Instrumentation replaces each traced function wherever a caller looks it up:
every attribute of every loaded ``grade`` module that is bound to the
original function gets the wrapper (``grade.cli`` imports ``rhs`` and
``integrate`` by name, ``grade.dynamics`` imports the kernel functions by
name, autodiff is reached as ``ad.<op>``), and ``Tensor.backward`` is
replaced on the class. ``uninstall`` puts every original back. Nothing
under ``src/`` changes.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (layer, module, function) for every traced public function.
TRACED = (
    ("cli", "grade.cli", "dispatch"),
    ("io", "grade.io", "read_dataset"),
    ("io", "grade.io", "write_dataset"),
    ("io", "grade.io", "write_trajectory_csv"),
    ("io", "grade.io", "read_trajectory_csv"),
    ("io", "grade.io", "write_summary_json"),
    ("io", "grade.io", "write_checkpoint"),
    ("io", "grade.io", "write_metrics_csv"),
    ("graph", "grade.graph", "csbm_generate"),
    ("graph", "grade.graph", "from_edge_list"),
    ("kernels", "grade.kernels", "kernel_arc_values"),
    ("kernels", "grade.kernels", "normalized_kernel_arc_values"),
    ("dynamics", "grade.dynamics", "rhs"),
    ("dynamics", "grade.dynamics", "rhs_ops"),
    ("autodiff", "grade.autodiff", "segment_sum"),
    ("autodiff", "grade.autodiff", "gather_rows"),
    ("autodiff", "grade.autodiff", "mul"),
    ("autodiff", "grade.autodiff", "segment_softmax"),
    ("autodiff", "grade.autodiff", "reduce_sum"),
    ("autodiff", "grade.autodiff", "exp"),
    ("solvers", "grade.solvers", "integrate"),
    ("training", "grade.training", "loss_and_grad"),
    ("training", "grade.training", "forward"),
    ("diagnostics", "grade.diagnostics", "cluster_count"),
    ("diagnostics", "grade.diagnostics", "default_cluster_eps"),
    ("diagnostics", "grade.diagnostics", "energy_series"),
    ("diagnostics", "grade.diagnostics", "metastability_profile"),
)

# Called once per attempted solver step (accepted or rejected) in the seed
# code; counted, not timed, so the step count needs no change to the solver.
STEP_ATTEMPT = ("grade.solvers", "_check_finite")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    run_id: str


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _nbytes(x) -> int:
    return int(np.asarray(getattr(x, "data", x)).nbytes)


def _path_bytes(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.iterdir() if f.is_file())
    return p.stat().st_size


# Counts taken at a boundary from its arguments and result. Bytes of the
# autodiff arc operators are computed from array sizes (inputs, index and
# output), so they ignore caches.
_COUNTERS = {
    "autodiff.gather_rows": lambda args, out: {
        "autodiff.gather_rows.bytes_computed": 2 * _nbytes(out) + _nbytes(args[1]),
    },
    "autodiff.segment_sum": lambda args, out: {
        "autodiff.segment_sum.bytes_computed":
            _nbytes(args[0]) + _nbytes(args[1]) + _nbytes(out),
    },
    "io.write_dataset": lambda args, out: {"io.bytes_written": _path_bytes(args[1])},
    "io.write_trajectory_csv": lambda args, out: {"io.bytes_written": _path_bytes(args[1])},
    "io.write_summary_json": lambda args, out: {"io.bytes_written": _path_bytes(args[0])},
    "io.write_checkpoint": lambda args, out: {"io.bytes_written": _path_bytes(args[0])},
    "io.write_metrics_csv": lambda args, out: {"io.bytes_written": _path_bytes(args[0])},
    "solvers.integrate": lambda args, out: {"solvers.accepted_steps": out.step_count},
}


class Tracer:
    """Records spans and counters for the pass named by ``run_id``."""

    def __init__(self):
        self.run_id = ""
        self._rows: list[list] = []
        self._open: list[int] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs):
        idx = len(self._rows)
        row = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run_id]
        self._rows.append(row)
        self._open.append(idx)
        row[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._open.pop()
        count = _COUNTERS.get(name)
        if count is not None:
            for key, value in count(args, out).items():
                self.counters[(self.run_id, key)] += value
        return out

    @property
    def spans(self) -> list[Span]:
        return [Span(*row) for row in self._rows]

    # -------------------------------------------------------- installation

    def _replace(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "grade" or mod_name.startswith("grade.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function where grade's modules look it up."""
        import grade.autodiff
        import grade.cli  # noqa: F401  (loads every grade module)

        for layer, module, func in TRACED:
            original = getattr(sys.modules[module], func)
            self._replace(original, self._timed(f"{layer}.{func}", original))

        tensor = grade.autodiff.Tensor
        original = tensor.backward
        self._patched.append((tensor, "backward", original))
        tensor.backward = self._timed("autodiff.backward", original)

        module, func = STEP_ATTEMPT
        original = getattr(sys.modules[module], func, None)
        if original is not None:
            @functools.wraps(original)
            def attempt(*args, **kwargs):
                self.counters[(self.run_id, "solvers.step_attempts")] += 1
                return original(*args, **kwargs)
            self._replace(original, attempt)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, command_runs: list[str], setup_runs: list[str]) -> dict:
    """Per-pass medians of calls, self time and counters for every traced name.

    A function is summarised over the command passes, or over the set-up
    passes if no command pass called it (``grade generate`` runs only in
    set-up). Percentiles pool the inclusive durations of those passes.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    busy: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    durations: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    counters = defaultdict(float, tracer.counters)
    for s, self_s in zip(spans, own):
        calls[s.name][s.run_id] += 1
        busy[s.name][s.run_id] += self_s
        durations[s.name][s.run_id].append(s.end - s.start)
        if s.name == "dynamics.rhs" and s.parent >= 0 and spans[s.parent].name == "solvers.integrate":
            counters[(s.run_id, "solvers.rhs_evals")] += 1

    out = {}
    names = [f"{layer}.{func}" for layer, _, func in TRACED] + ["autodiff.backward"]
    for name in names:
        runs = command_runs if any(calls[name][r] for r in command_runs) else setup_runs
        out[f"{name}.calls"] = _median([calls[name][r] for r in runs])
        out[f"{name}.self_s"] = _median([busy[name][r] for r in runs])
        pooled = [d for r in runs for d in durations[name][r]]
        for q in (50, 90):
            out[f"{name}.p{q}_ms"] = float(np.percentile(pooled, q)) * 1e3 if pooled else 0.0

    def per_pass(key):
        return _median([counters[(r, key)] for r in command_runs])

    for key in ("io.bytes_written", "solvers.rhs_evals", "solvers.accepted_steps",
                "autodiff.gather_rows.bytes_computed", "autodiff.segment_sum.bytes_computed"):
        out[key] = per_pass(key)
    out["solvers.rejected_steps"] = _median([
        counters[(r, "solvers.step_attempts")] - counters[(r, "solvers.accepted_steps")]
        for r in command_runs
    ])
    return out
