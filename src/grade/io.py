"""File formats: edge-list text, dataset bundles, trajectory CSV, checkpoints.

Numeric CSV output uses 17 significant digits so doubles round-trip
exactly. Manifests are written atomically (temp file + rename) next to the
outputs they describe.
"""
from __future__ import annotations

import gc
import json
import os
import re
import shutil
import tempfile
import warnings
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from .dynamics import DynamicsConfig
from .graph import Dataset, Graph, from_edge_list
from .solvers import SolverConfig, Trajectory
from .training import EpochMetrics, ModelParams

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_dataset",
    "read_dataset",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_energy_csv",
    "write_summary_json",
    "write_checkpoint",
    "read_checkpoint",
    "read_json",
    "write_metrics_csv",
    "write_manifest",
]


def _write_json(path, obj: dict, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _csv_head(*names: str) -> str:
    return ",".join(names) + "\r\n"


def _rows(*columns) -> tuple[int, tuple]:
    """One record of a table: its row count and every value, row by row.

    A column is an (r,) or (r, k) array or sequence; values come out as
    Python numbers (or strings), the way ``tolist`` gives them.
    """
    table = np.column_stack([np.asarray(c).astype(object) for c in columns])
    return len(table), tuple(table.ravel())


def _write_table(path, head: str, row: str, records) -> None:
    """Every CSV file and the edge list: ``head``, then each record of ``records``.

    A record is a row count and a tuple of that many rows' values (see ``_rows``),
    written with the %-template ``row`` repeated once per row; floats use
    ``%.17g`` so doubles round-trip. Only one record is in memory at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(head)
        _write_records(fh, row, records)


def _write_records(fh, row: str, records) -> None:
    """The body of ``_write_table``: each record of ``records`` into the open file ``fh``."""
    for count, values in records:
        fh.write((row * count) % values)
        del values  # so that the next record is built without this one


def _load_table(path, lead: list[tuple[str, str]], values: str) -> np.ndarray:
    """The rows under a CSV header as one structured array.

    Its fields are the ``lead`` (name, dtype) columns, then ``values``: every
    further column, of that dtype. A decimal literal parses to the same
    number as ``int()`` or ``float()`` gives; a file without rows gives zero
    rows.
    """
    with _text_faults(path), open(path) as fh:
        fh.readline()
        start = fh.tell()
        line = fh.readline()
        while line and not line.strip():
            line = fh.readline()
        width = line.count(",") + 1 - len(lead) if line else 0
        dtype = np.dtype(lead + [("values", values, (width,))])
        if not line:
            return np.zeros(0, dtype)
        fh.seek(start)
        return _loadtxt(path, fh, _csv_rows(path), dtype, delimiter=",")


def _csv_rows(path):
    """(line number, text) of each line under the header that numpy reads as a row."""
    with open(path) as fh:
        yield from ((lineno, line) for lineno, line in enumerate(fh, start=1)
                    if lineno > 1 and line != "\n")


@contextmanager
def _text_faults(path):
    """Report text in ``path`` that does not decode as an error naming the file line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # the offset in ``exc`` is within one decoded chunk; a newline byte is
        # never part of a multibyte character, so find the line by decoding lines
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode(exc.encoding)
                except UnicodeDecodeError as bad:
                    raise ValueError(f"{path}:{lineno}: byte 0x{raw[bad.start]:02x} is not "
                                     f"valid {bad.encoding} text") from None
        raise


_AT_ROW = re.compile(r" at row \d+(?=, column)| at row \d+;.*")  # numpy's row, not the file's line


def _loadtxt(path, lines, numbered, dtype, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of ``lines`` with no comment syntax.

    A malformed field, such as a non-integral number in an integer field,
    raises a ValueError naming ``path`` and the line: the first line of
    ``numbered`` (the same lines, as (line number, text) pairs, iterated only
    on a fault) that fails to parse alone. Every dtype here fixes the column
    count, so a line parses alone as it does in the file.
    """
    def parse(rows):
        return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1, **kwargs)

    with warnings.catch_warnings():
        # numpy releases that still accept "1.5" in an integer field truncate it with this warning
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            return parse(lines)
        except (ValueError, DeprecationWarning) as exc:
            fault = exc
        for lineno, line in numbered:
            try:
                parse([line])
            except (ValueError, DeprecationWarning) as exc:
                raise ValueError(f"{path}:{lineno}: {_AT_ROW.sub('', str(exc))}") from None
    raise ValueError(f"{path}: {fault}") from None


def _node_order(node: np.ndarray, record: np.ndarray, n: int, where) -> np.ndarray:
    """Row order by record, then node id, for rows that list each id in [0, n)
    exactly once per record.

    ``record`` numbers the records from 0 in file order, and ``where(r)``
    names record r in errors. The first record with a fault is reported: its
    first row whose node is out of range or listed before, else its smallest
    missing node.
    """
    order = np.lexsort((node, record))
    s_node, s_record = node[order], record[order]
    repeat = np.zeros(node.size, dtype=bool)
    repeat[order[1:]] = (s_node[1:] == s_node[:-1]) & (s_record[1:] == s_record[:-1])
    bad = (node < 0) | (node >= n) | repeat
    short = np.bincount(record, minlength=1) < n
    first_bad = record[bad].min(initial=short.size)
    first_short = int(np.argmax(short)) if short.any() else short.size
    r = min(first_bad, first_short)
    if r == short.size:
        return order
    if r == first_bad:
        i = int(np.flatnonzero(bad & (record == r))[0])
        # a repeated id is in range, or its first occurrence would have been reported
        fault = "appears more than once" if repeat[i] else f"is out of range for {n} nodes"
        raise ValueError(f"{where(r)}: node {node[i]} {fault}")
    present = np.zeros(n, dtype=bool)
    present[node[record == r]] = True
    raise ValueError(f"{where(r)}: node {int(np.argmin(present))} is missing")


# ------------------------------------------------------------------ graphs


def write_edge_list(g: Graph, path) -> None:
    """One `u v weight` triple per line, 0-based ids, `#` comments allowed."""
    _write_table(path, f"# nodes: {g.n}\n", "%d %d %.17g\n",
                 [_rows(g.edge_u, g.edge_v, g.edge_weight)])


_EDGE = np.dtype([("u", "i8"), ("v", "i8"), ("w", "f8")])
EDGE_BLOCK = 1 << 10  # edge lines held as text until one np.loadtxt call parses them


def read_edge_list(path, n: int | None = None) -> Graph:
    """Parse the edge-list text format; node count from the header or ``n``.

    A line holds `u v` or `u v weight` (weight 1 when absent); blank lines
    and lines starting with `#` are skipped, and `# nodes: N` sets the node
    count. The file is read once; edge lines are parsed EDGE_BLOCK at a time.
    """
    header_n, fault, blocks, linenos, lines = None, None, [], [], []
    with _text_faults(path), open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if parts and parts[0].startswith("#"):
                if "nodes:" in raw:
                    try:
                        header_n = int(raw.split("nodes:")[1])  # int() strips whitespace
                    except ValueError:
                        fault = f"{path}:{lineno}: expected '# nodes: N'"
                        break
            elif parts:
                if len(parts) not in (2, 3):
                    fault = f"{path}:{lineno}: expected 'u v [weight]'"
                    break
                linenos.append(lineno)
                lines.append(raw if len(parts) == 3 else raw.rstrip("\n") + " 1")
                if len(lines) == EDGE_BLOCK:
                    blocks.append(_loadtxt(path, lines, zip(linenos, lines), _EDGE))
                    linenos, lines = [], []
    # a fault in a line before the one that stopped the loop is reported first
    blocks.append(_loadtxt(path, lines, zip(linenos, lines), _EDGE) if lines else np.zeros(0, _EDGE))
    if fault:
        raise ValueError(fault)
    edges = np.concatenate(blocks)
    del blocks, linenos, lines  # so that the graph is built without them
    if n is None:
        n = header_n if header_n is not None else \
            int(np.maximum(edges["u"], edges["v"]).max(initial=-1)) + 1
    return from_edge_list(n, np.stack([edges["u"], edges["v"]], axis=1), edges["w"])


# ---------------------------------------------------------------- datasets


def write_dataset(ds: Dataset, out_dir) -> None:
    """Write the bundle {graph.txt, features.csv, labels.csv, masks.csv}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(ds.graph, out / "graph.txt")

    nodes, d = np.arange(ds.graph.n), ds.features.shape[1]
    _write_table(out / "features.csv", _csv_head("node", *(f"f{j}" for j in range(d))),
                 "%d" + ",%.17g" * d + "\r\n", [_rows(nodes, ds.features)])
    _write_table(out / "labels.csv", _csv_head("node", "label"), "%d,%d\r\n",
                 [_rows(nodes, ds.labels)])
    _write_table(out / "masks.csv", _csv_head("node", "train", "val", "test"), "%d,%d,%d,%d\r\n",
                 [_rows(nodes, ds.train_mask, ds.val_mask, ds.test_mask)])


def _read_table(path, n: int, values: str, width: int | None = None) -> np.ndarray:
    """The value columns of a per-node table, one row per node id in order."""
    rows = _load_table(path, [("node", "i8")], values)
    if width is not None and rows["values"].shape[1] < width:
        raise ValueError(f"{path}: expected {width} value columns after the node id")
    order = _node_order(rows["node"], np.zeros(rows.size, dtype=np.int64), n, lambda r: path)
    return rows["values"][order, :width]


def read_dataset(in_dir) -> Dataset:
    """Read a bundle; every per-node file must list each node exactly once."""
    src = Path(in_dir)
    for name in ("graph.txt", "features.csv", "labels.csv", "masks.csv"):
        if not (src / name).exists():
            raise FileNotFoundError(f"dataset bundle is missing {name}")
    graph = read_edge_list(src / "graph.txt")
    n = graph.n

    features = _read_table(src / "features.csv", n, "f8")
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        raise ValueError(f"{src / 'features.csv'}: node {bad[0][0]} has a non-finite feature")
    labels = _read_table(src / "labels.csv", n, "i8", 1)[:, 0]
    masks = _read_table(src / "masks.csv", n, "i8", 3).astype(bool)
    return Dataset(graph, features, labels, *masks.T)


# ------------------------------------------------------------- trajectories


# A trajectory with fewer values is written by one process. Measured on a 2-CPU
# VM (n=2000, d=2): two writers take 0.61× one writer's time at 2^16 values
# when the other CPU is idle, and 0.95× when it is busy; at 2^15 values a busy
# CPU makes them 1.17× slower, as the fork and the appended copy cost a fixed
# few milliseconds.
SPLIT_VALUES = 1 << 16


def write_trajectory_csv(traj: Trajectory, path, workers: int = 1) -> int:
    """Long format: one row per (time, node) with columns f0..f{d-1}.

    With ``workers`` > 1, ``os.fork`` and at least SPLIT_VALUES values, the
    records are cut into ``workers`` contiguous ranges (no more than there are
    records). This process formats the first straight into ``path``; a forked
    child formats each other range into an unnamed temporary file beside
    ``path``, which is appended in order once the child has exited. A range
    whose child could not be forked or failed is formatted here instead, so the
    bytes are always those of one process. Every child is reaped before this
    returns or raises. Returns the number of processes that formatted records.
    """
    count, n, d = traj.states.shape
    nodes = np.arange(n)
    row = "%s,%d" + ",%.17g" * d + "\r\n"

    def records(lo, hi):
        return (_rows(np.full(n, "%.17g" % t, dtype=object), nodes, state)
                for t, state in zip(traj.times[lo:hi].tolist(), traj.states[lo:hi]))

    split = hasattr(os, "fork") and traj.states.size >= SPLIT_VALUES
    workers = min(workers, count) if split else 1
    bounds = [count * k // workers for k in range(workers + 1)]
    children, running = [], set()  # (pid or None, part, lo, hi) of ranges 1.., unreaped pids
    with ExitStack() as parts:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                part = parts.enter_context(
                    tempfile.TemporaryFile("w+", newline="", dir=Path(path).parent))
                try:
                    pid = _fork_writer(part, row, records(lo, hi))
                    running.add(pid)
                except OSError:
                    pid = None
                children.append((pid, part, lo, hi))
            with open(path, "w", newline="") as fh:
                fh.write(_csv_head("time", "node", *(f"f{j}" for j in range(d))))
                _write_records(fh, row, records(0, bounds[1]))
                for pid, part, lo, hi in children:
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) if pid else 1
                    running.discard(pid)
                    if code == 0:
                        part.seek(0)
                        shutil.copyfileobj(part, fh)
                    else:
                        _write_records(fh, row, records(lo, hi))
        finally:
            for pid in running:
                os.waitpid(pid, 0)
    return 1 + sum(1 for pid, *_ in children if pid)


def _fork_writer(part, row: str, records) -> int:
    """Fork a child that writes ``records`` into ``part``; return its pid.

    The fork happens inside the child's guard, so the child leaves only through
    ``os._exit``: status 0 once ``part`` is flushed, 1 on any exception (a
    KeyboardInterrupt included). It never returns into the caller's code or runs
    the parent's exit handlers.
    """
    parent, code = os.getpid(), 1
    try:
        pid = os.fork()
        if pid == 0:
            # a collection here would copy the parent's heap pages and could run
            # finalizers of the parent's garbage, which may act on the parent's files
            gc.disable()
            _write_records(part, row, records)
            part.flush()
            code = 0
    finally:
        if os.getpid() != parent:
            os._exit(code)
    return pid


def read_trajectory_csv(path) -> Trajectory:
    """Read the long format; every record lists the first record's nodes once, all finite.

    Rows with the same time form one record, in order of first appearance;
    a record's rows may come in any order.
    """
    rows = _load_table(path, [("time", "f8"), ("node", "i8")], "f8")
    if not rows.size:
        raise ValueError(f"{path}: no records")
    # NaN times never compare equal, so each NaN row is a record of its own
    _, first, inverse = np.unique(rows["time"], return_index=True, return_inverse=True,
                                  equal_nan=False)
    record = np.argsort(np.argsort(first))[inverse]  # numbered in order of first appearance
    times = rows["time"][np.sort(first)]
    n = int(np.count_nonzero(record == 0))
    order = _node_order(rows["node"], record, n, lambda r: f"{path} at t={times[r]:.17g}")
    states = rows["values"][order].reshape(times.size, n, rows["values"].shape[1])
    bad = np.argwhere(~np.isfinite(states))
    if bad.size:
        rec, node, _ = bad[0]
        raise ValueError(f"{path} at t={times[rec]:.17g}: node {node} has a non-finite feature")
    return Trajectory(times, states, step_count=max(times.size - 1, 0))


def write_energy_csv(path, times, energy, spread, cluster_counts) -> None:
    """One row per record: time, Dirichlet energy, spread and cluster count."""
    _write_table(path, _csv_head("time", "energy", "spread", "cluster_count"),
                 "%.17g,%.17g,%.17g,%d\r\n", [_rows(times, energy, spread, cluster_counts)])


def write_summary_json(path, times, energy, spread, cluster_counts, extra=None) -> None:
    obj = {
        "times": [float(t) for t in times],
        "energy": [float(e) for e in energy],
        "spread": [float(s) for s in spread],
        "cluster_count": [int(c) for c in cluster_counts],
    }
    _write_json(path, {**obj, **(extra or {})})


# ------------------------------------------------------------- checkpoints


def write_checkpoint(path, params: ModelParams, dynamics: DynamicsConfig, solver: SolverConfig) -> None:
    obj = {
        "model": params.to_json(),
        "dynamics_config": dynamics.to_json(),
        "solver_config": solver.to_json(),
    }
    _write_json(path, obj)


def read_json(path):
    """The JSON value in ``path``; text that does not decode or parse raises
    a ValueError naming ``path`` and the line (``path:line:col`` for syntax)."""
    with _text_faults(path), open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def read_checkpoint(path) -> tuple[ModelParams, DynamicsConfig, SolverConfig]:
    obj = read_json(path)
    return (
        ModelParams.from_json(obj["model"]),
        DynamicsConfig.from_json(obj["dynamics_config"]),
        SolverConfig.from_json(obj["solver_config"]),
    )


def write_metrics_csv(path, metrics: list[EpochMetrics]) -> None:
    values = tuple(x for m in metrics for x in (m.epoch, m.loss, m.val_acc, m.test_acc))
    _write_table(path, _csv_head("epoch", "loss", "val_acc", "test_acc"),
                 "%d,%.17g,%.17g,%.17g\r\n", [(len(metrics), values)])


# ---------------------------------------------------------------- manifest


def write_manifest(out_dir, manifest: dict) -> Path:
    """Atomically write run metadata next to the outputs it describes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "manifest.json"
    tmp = out / ".manifest.json.tmp"
    _write_json(tmp, manifest, sort_keys=True)
    os.replace(tmp, target)
    return target
