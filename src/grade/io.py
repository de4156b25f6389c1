"""File formats: edge-list text, dataset bundles, trajectory CSV, checkpoints.

Numeric CSV output uses 17 significant digits so doubles round-trip
exactly. Manifests are written atomically (temp file + rename) next to the
outputs they describe.
"""
from __future__ import annotations

import csv
import json
import os
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
    "write_summary_json",
    "write_checkpoint",
    "read_checkpoint",
    "write_metrics_csv",
    "write_manifest",
]

_FMT = "{:.17g}"


def _fmt(x: float) -> str:
    return _FMT.format(float(x))


# ------------------------------------------------------------------ graphs


def write_edge_list(g: Graph, path) -> None:
    """One `u v weight` triple per line, 0-based ids, `#` comments allowed."""
    with open(path, "w") as fh:
        fh.write(f"# nodes: {g.n}\n")
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_weight):
            fh.write(f"{u} {v} {_fmt(w)}\n")


def read_edge_list(path, n: int | None = None) -> Graph:
    """Parse the edge-list text format; node count from the header or ``n``."""
    edges, weights = [], []
    header_n = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                if "nodes:" in line:
                    header_n = int(line.split("nodes:")[1].strip())
                continue
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 'u v [weight]'")
            edges.append((int(parts[0]), int(parts[1])))
            weights.append(float(parts[2]) if len(parts) == 3 else 1.0)
    if n is None:
        n = header_n if header_n is not None else (
            max((max(u, v) for u, v in edges), default=-1) + 1
        )
    return from_edge_list(n, edges, weights)


# ---------------------------------------------------------------- datasets


def write_dataset(ds: Dataset, out_dir) -> None:
    """Write the bundle {graph.txt, features.csv, labels.csv, masks.csv}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(ds.graph, out / "graph.txt")

    d = ds.features.shape[1]
    with open(out / "features.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node"] + [f"f{j}" for j in range(d)])
        for i in range(ds.graph.n):
            w.writerow([i] + [_fmt(x) for x in ds.features[i]])

    with open(out / "labels.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "label"])
        for i, lab in enumerate(ds.labels):
            w.writerow([i, int(lab)])

    with open(out / "masks.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "train", "val", "test"])
        for i in range(ds.graph.n):
            w.writerow(
                [i, int(ds.train_mask[i]), int(ds.val_mask[i]), int(ds.test_mask[i])]
            )


def _by_node(rows: list[list[str]], n: int, where: str) -> list[list[str]]:
    """The rows of a per-node table ordered by node id; each id in [0, n) exactly once."""
    by_node: dict[int, list[str]] = {}
    for row in rows:
        node = int(row[0])
        if not 0 <= node < n:
            raise ValueError(f"{where}: node {node} is out of range for {n} nodes")
        if node in by_node:
            raise ValueError(f"{where}: node {node} appears more than once")
        by_node[node] = row[1:]
    if len(by_node) < n:
        missing = min(set(range(n)) - by_node.keys())
        raise ValueError(f"{where}: node {missing} is missing")
    return [by_node[i] for i in range(n)]


def _read_table(path, n: int) -> list[list[str]]:
    with open(path, newline="") as fh:
        return _by_node(list(csv.reader(fh))[1:], n, str(path))


def read_dataset(in_dir) -> Dataset:
    """Read a bundle; every per-node file must list each node exactly once."""
    src = Path(in_dir)
    for name in ("graph.txt", "features.csv", "labels.csv", "masks.csv"):
        if not (src / name).exists():
            raise FileNotFoundError(f"dataset bundle is missing {name}")
    graph = read_edge_list(src / "graph.txt")
    n = graph.n

    features = np.array([[float(x) for x in row] for row in _read_table(src / "features.csv", n)])
    labels = np.array([int(row[0]) for row in _read_table(src / "labels.csv", n)], dtype=np.int64)
    masks = np.array([[bool(int(x)) for x in row[:3]] for row in _read_table(src / "masks.csv", n)])
    return Dataset(graph, features, labels, *masks.T)


# ------------------------------------------------------------- trajectories


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Long format: one row per (time, node) with columns f0..f{d-1}."""
    d = traj.states.shape[2]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "node"] + [f"f{j}" for j in range(d)])
        for t, state in zip(traj.times, traj.states):
            for node in range(state.shape[0]):
                w.writerow([_fmt(t), node] + [_fmt(x) for x in state[node]])


def read_trajectory_csv(path) -> Trajectory:
    """Read the long format; every record lists the first record's nodes once, all finite."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    by_time: dict[float, list[list[str]]] = {}
    for row in rows[1:]:
        by_time.setdefault(float(row[0]), []).append(row[1:])
    if not by_time:
        raise ValueError(f"{path}: no records")
    order = list(by_time)
    n = len(by_time[order[0]])
    states = np.array([
        [[float(x) for x in feats] for feats in _by_node(by_time[t], n, f"{path} at t={t:.17g}")]
        for t in order
    ])
    bad = np.argwhere(~np.isfinite(states))
    if bad.size:
        rec, node, _ = bad[0]
        raise ValueError(f"{path} at t={order[rec]:.17g}: node {node} has a non-finite feature")
    return Trajectory(np.asarray(order), states, step_count=max(len(order) - 1, 0))


def write_summary_json(path, times, energy, spread, cluster_counts, extra=None) -> None:
    obj = {
        "times": [float(t) for t in times],
        "energy": [float(e) for e in energy],
        "spread": [float(s) for s in spread],
        "cluster_count": [int(c) for c in cluster_counts],
    }
    if extra:
        obj.update(extra)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ------------------------------------------------------------- checkpoints


def write_checkpoint(path, params: ModelParams, dynamics: DynamicsConfig, solver: SolverConfig) -> None:
    obj = {
        "model": params.to_json(),
        "dynamics_config": dynamics.to_json(),
        "solver_config": solver.to_json(),
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_checkpoint(path) -> tuple[ModelParams, DynamicsConfig, SolverConfig]:
    with open(path) as fh:
        obj = json.load(fh)
    return (
        ModelParams.from_json(obj["model"]),
        DynamicsConfig.from_json(obj["dynamics_config"]),
        SolverConfig.from_json(obj["solver_config"]),
    )


def write_metrics_csv(path, metrics: list[EpochMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss", "val_acc", "test_acc"])
        for m in metrics:
            w.writerow([m.epoch, _fmt(m.loss), _fmt(m.val_acc), _fmt(m.test_acc)])


# ---------------------------------------------------------------- manifest


def write_manifest(out_dir, manifest: dict) -> Path:
    """Atomically write run metadata next to the outputs it describes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "manifest.json"
    tmp = out / ".manifest.json.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, target)
    return target
