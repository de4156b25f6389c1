"""Benchmark of grade's CLI workloads, run in process through grade.cli.dispatch.

    python3 bench/run.py --workload dense-train --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports grade from ``src/``.
One process runs one workload: it generates the inputs from ``--seed``,
repeats the workload's command for ``--seconds`` seconds, checks every
output, and prints as its last line a JSON object with the metrics that
BENCHMARK.json names. With ``--trace 0`` those are the end-to-end metrics;
with ``--trace 1`` the passes alternate untraced and traced, and the
per-layer metrics come from the traced ones. See bench/README.md.
"""
from __future__ import annotations

import os
import sys
import time

# BLAS must be pinned before numpy loads; the benchmark runs one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5
MAX_SEED_ATTEMPTS = 20

# A set-up pass: a fresh interpreter that imports grade and runs `grade generate`.
_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from grade.cli import dispatch; sys.exit(dispatch(sys.argv[2:]))"
)


def import_grade():
    """Import grade from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "grade" / "__init__.py").is_file():
        raise SystemExit(f"no grade sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import grade.cli

    if Path(grade.cli.__file__).resolve().parent != SRC / "grade":
        raise SystemExit(f"imported grade from {grade.cli.__file__}, not from {SRC}")
    return grade.cli


def run_command(cli, argv) -> tuple[int, float, str]:
    """Exit code, wall seconds and stdout of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.dispatch(argv)
        except Exception:  # a raw traceback is a failed command, not a benchmark crash
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    if code != 0:
        print(f"command {argv[0]} exited {code}: {err.getvalue().strip()[-500:]}")
    return code, seconds, out.getvalue()


def generate_in_child(argv) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"grade generate exited {proc.returncode}: {proc.stderr}")
    return seconds


def set_up(workload, seed, bundle, generate) -> tuple[int, list[float]]:
    """Generate the bundle SETUP_REPEATS times; returns its program seed and times.

    Diffusion needs every node to have a neighbour, so a program seed whose
    sparse graph has an isolated node is replaced by the next candidate.
    """
    for attempt in range(MAX_SEED_ATTEMPTS):
        pseed = wl.program_seed(seed, attempt)
        argv = ["generate", *workload.generate, "--seed", str(pseed), "--out", str(bundle)]
        times = [generate(argv, 0)]
        if not wl.has_isolated_node(bundle):
            times += [generate(argv, k) for k in range(1, SETUP_REPEATS)]
            return pseed, times
    raise SystemExit(f"no program seed without isolated nodes for seed {seed}")


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def os_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        return None
    return None


def run_record(args, pseed) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": pseed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "os_threads": os_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


class Pass(NamedTuple):
    traced: bool
    code: int
    seconds: float
    key: tuple | None  # digests of the outputs; None if the command failed


def command_times(passes: list[Pass], traced: bool) -> list[float]:
    """Seconds of the passes with this tracing; failed ones only if all failed."""
    chosen = [p for p in passes if p.traced == traced]
    return [p.seconds for p in chosen if p.code == 0] or [p.seconds for p in chosen]


def run_passes(cli, args, workload, pseed, bundle, work, tracer):
    """Repeat the command for ``args.seconds``; returns the passes and the kept outputs.

    Each output is digested outside the timed region; one directory is kept
    per distinct digest and checked after the loop.
    """
    passes: list[Pass] = []
    kept: dict[tuple, tuple[Path, str]] = {}
    loop_start = time.perf_counter()
    last = 0.0  # wall time of the previous iteration, to end within the window
    while len(passes) < 1 + args.trace or time.perf_counter() - loop_start + last <= args.seconds:
        iteration = time.perf_counter()
        k = len(passes)
        traced = bool(args.trace and k % 2 == 1)
        out = work / f"out-{k}"
        argv = wl.command(args.workload, pseed, bundle, work, out)
        if traced:
            tracer.run_id = f"pass-{k}"
            tracer.install()
        try:
            code, seconds, stdout = run_command(cli, argv)
        finally:
            tracer.uninstall()
        # A CLI command runs in a process of its own, so the garbage one pass
        # leaves (autodiff closures form reference cycles) must not inflate
        # the memory or the collection pauses of the next pass.
        gc.collect()
        key = None
        if code == 0:
            try:
                key = tuple(sorted(wl.digests(out, workload.outputs).items()))
            except OSError as exc:
                print(f"command {argv[0]} wrote no {exc.filename}")
                code = -1
        if key in kept:
            shutil.rmtree(out)
        elif key is not None:
            kept[key] = (out, stdout)
        passes.append(Pass(traced, code, seconds, key))
        last = time.perf_counter() - iteration
    return passes, kept


def quartiles(values) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"median {q2:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's output digests and values in reference.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    cli = import_grade()
    workload = wl.WORKLOADS[args.workload]
    tracer = spans.Tracer()

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    bundle = work / "bundle"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            def generate(gen_argv, k):
                tracer.run_id = f"setup-{k}"
                tracer.install()
                try:
                    code, seconds, _ = run_command(cli, gen_argv)
                finally:
                    tracer.uninstall()
                if code != 0:
                    raise SystemExit(f"grade generate exited {code}")
                return seconds
        else:
            def generate(gen_argv, k):
                return generate_in_child(gen_argv)

        pseed, setup_times = set_up(workload, args.seed, bundle, generate)
        wl.write_inputs(args.workload, args.seed, work)

        passes, kept = run_passes(cli, args, workload, pseed, bundle, work, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems: dict[tuple, list[str]] = {}
        values: dict[tuple, dict] = {}
        for key, (out, stdout) in kept.items():
            try:
                problems[key], values[key] = wl.check(args.workload, out, stdout, bundle, work)
            except (ValueError, KeyError, IndexError, OSError) as exc:  # unreadable output
                problems[key], values[key] = [f"{type(exc).__name__}: {exc}"], {}
            for problem in problems[key]:
                print(f"check failed: {problem}")
        failed = sum(1 for p in passes if p.code != 0 or problems[p.key])

        record = run_record(args, pseed)
        first = next((p.key for p in passes if p.key is not None), None)
        references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        if first is not None and args.write_reference:
            references.setdefault(args.workload, {})[str(args.seed)] = {
                "digests": dict(first), "values": values[first],
            }
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        reference = references.get(args.workload, {}).get(str(args.seed))
        record["reference"] = None if reference is None or first is None else {
            "bit_identical": dict(first) == reference["digests"],
            "max_deviation": wl.max_deviation(values[first], reference["values"]),
        }
        record["distinct_outputs"] = len(kept)

        plain = command_times(passes, traced=False)
        metrics = {
            "setup_s": float(np.median(setup_times)),
            "command_s": float(np.median(plain)),
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {failed} failed "
              f"(failed_frac {failed / len(passes):.4g})")
        setup_label = "set-up, traced in process" if args.trace else "setup_s     "
        print(f"  {setup_label} {quartiles(setup_times)} s")
        print(f"  command_s    {quartiles(plain)} s")
        print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB (one per process)")
        if args.trace:
            traced_s = command_times(passes, traced=True)
            print(f"  traced command_s {quartiles(traced_s)} s")
            command_runs = [f"pass-{i}" for i, p in enumerate(passes) if p.traced]
            setup_runs = [f"setup-{i}" for i in range(len(setup_times))]
            metrics = spans.layer_metrics(tracer, command_runs, setup_runs)
            metrics["trace.overhead_s"] = float(np.median(traced_s) - np.median(plain))
            traces = ROOT / ".bench_work" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            with open(traces / f"{args.workload}-seed{args.seed}.jsonl", "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s.__dict__) + "\n")
        record["wall_s"] = time.perf_counter() - started
        print("record: " + json.dumps(record, sort_keys=True))

        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise SystemExit(f"metrics not measured: {missing}")
        result = {
            "correct": failed == 0,
            "attempted": len(passes),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
