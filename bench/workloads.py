"""Workload inputs, command lines and output checks.

Everything here uses numpy and scipy only, never grade, so the checks stay
independent of the code they check and the synthetic trajectory stays fixed
when grade's dynamics change.
"""
from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist, squareform

SPARSE_N = 2000
TRAIN_EPOCHS = 50
TRAIN_MIN_TEST_ACC = 0.85  # the acceptance bar of the toy classification criterion
SIMULATE_STEP, SIMULATE_HORIZON = 0.5, 20.0
ADAPTIVE_HORIZON = 40.0
CLUSTER_EPS_FRACTION = 0.05  # grade energy's default: 5% of the initial diameter
ENERGY_RTOL = 1e-12

TRAIN_CONFIG = {
    "learning_rate": 0.2,
    "epochs": TRAIN_EPOCHS,
    "weight_decay": 1e-3,
    "hidden": 8,
    "dynamics": {
        "activation": "tanh",
        "adjacency_mode": "static_row_normalized",
        "kernel": {"kind": "gaussian", "normalize_rows": True},
        "diffusion_on": True,
        "aggregation_on": True,
    },
    "solver": {"method": "euler", "step": 0.5, "horizon": 1.0},
}


@dataclass(frozen=True)
class Workload:
    generate: tuple[str, ...]  # `grade generate` flags, without --seed and --out
    outputs: tuple[str, ...]  # files whose digests are compared across passes


_DENSE = ("--n", "100", "--p-intra", "0.9", "--p-inter", "0.05")
_SPARSE = ("--n", str(SPARSE_N), "--p-intra", "0.01", "--p-inter", "0.001")

# Why each workload exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "dense-train": Workload(_DENSE, ("checkpoint.json", "metrics.csv")),
    "sparse-simulate": Workload(_SPARSE, ("trajectory.csv",)),
    "sparse-adaptive": Workload(_SPARSE, ("trajectory.csv",)),
    "sparse-energy": Workload(_SPARSE, ("energy.csv", "verdict.json")),
}


def program_seed(seed: int, attempt: int) -> int:
    """Seed handed to `grade generate` on the given attempt for a benchmark seed."""
    return seed + 1_000_000 * attempt


def command(workload: str, seed: int, bundle: Path, work: Path, out: Path) -> list[str]:
    """argv of the timed command, after its inputs were written into ``work``."""
    if workload == "dense-train":
        return ["train", "--dataset", str(bundle), "--config", str(work / "train.json"),
                "--seed", str(seed), "--out", str(out)]
    if workload == "sparse-simulate":
        return ["simulate", "--dataset", str(bundle), "--method", "rk4",
                "--step", str(SIMULATE_STEP), "--horizon", str(SIMULATE_HORIZON),
                "--out", str(out)]
    if workload == "sparse-adaptive":
        return ["simulate", "--dataset", str(bundle), "--method", "dopri5",
                "--aggregation", "off", "--activation", "identity",
                "--horizon", str(ADAPTIVE_HORIZON), "--out", str(out)]
    return ["energy", "--dataset", str(bundle), "--trajectory", str(work / "trajectory.csv"),
            "--out", str(out)]


# ------------------------------------------------------------------- inputs


def synthetic_states(seed: int, n: int = SPARSE_N) -> tuple[np.ndarray, np.ndarray]:
    """Times and (3, n, 2) states for the energy workload.

    Record 0 holds two tight communities and fixes the cluster scale (5% of
    its diameter). Record 1 spreads every node far apart, so almost every
    node is its own cluster. Record 2 collapses all nodes into a ball much
    smaller than that scale, so every pair of nodes lies within it.
    """
    rng = np.random.default_rng([seed, 2])
    centers = np.where((np.arange(n) >= n // 2)[:, None], 0.5, -0.5) * np.ones((1, 2))
    z = rng.normal(size=(n, 2))
    states = np.stack([centers + 0.1 * z, centers + 10.0 * z, 0.01 * centers + 0.001 * z])
    return np.arange(3, dtype=np.float64), states


def write_inputs(workload: str, seed: int, work: Path) -> None:
    """Write the command's own inputs (besides the dataset bundle) into ``work``."""
    if workload == "dense-train":
        (work / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    elif workload == "sparse-energy":
        write_trajectory(work / "trajectory.csv", *synthetic_states(seed))


def write_trajectory(path: Path, times: np.ndarray, states: np.ndarray) -> None:
    """grade's trajectory CSV: one row per (time, node), 17 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "node"] + [f"f{j}" for j in range(states.shape[2])])
        for t, state in zip(times, states):
            for node, row in enumerate(state):
                w.writerow([f"{t:.17g}", node] + [f"{x:.17g}" for x in row])


def has_isolated_node(bundle: Path) -> bool:
    n, u, v, _ = read_edges(bundle)
    return bool(np.any(np.bincount(np.concatenate([u, v]), minlength=n) == 0))


# ------------------------------------------------------------------ readers


def read_edges(bundle: Path):
    """(n, u, v, w) from a bundle's edge list."""
    path = Path(bundle) / "graph.txt"
    with open(path) as fh:
        n = int(fh.readline().split("nodes:")[1])
    data = np.loadtxt(path, comments="#", ndmin=2)
    return n, data[:, 0].astype(np.int64), data[:, 1].astype(np.int64), data[:, 2]


def read_features(bundle: Path) -> np.ndarray:
    data = np.loadtxt(Path(bundle) / "features.csv", delimiter=",", skiprows=1, ndmin=2)
    return data[np.argsort(data[:, 0], kind="stable"), 1:]


def read_trajectory(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Times and (records, n, d) states of a long-format trajectory CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times = np.unique(data[:, 0])
    n = int(data[:, 1].max()) + 1
    if data.shape[0] != times.size * n:
        raise ValueError(f"{path}: {data.shape[0]} rows for {times.size} records of {n} nodes")
    return data[::n, 0], data[:, 2:].reshape(times.size, n, -1)


def digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


# ------------------------------------------------------------------- checks
#
# Each check returns (problems, values): a list of what is wrong with the
# outputs (empty when they pass) and the scalar values stored as references.


def check_train(out: Path, stdout: str):
    problems = []
    match = re.search(r"best val acc ([0-9.]+), test acc ([0-9.]+) after (\d+) epochs", stdout)
    if match is None:
        return [f"no accuracy line in output {stdout!r}"], {}
    val_acc, test_acc, epochs = float(match[1]), float(match[2]), int(match[3])
    if test_acc < TRAIN_MIN_TEST_ACC:
        problems.append(f"test accuracy {test_acc} < {TRAIN_MIN_TEST_ACC}")
    rows = np.loadtxt(out / "metrics.csv", delimiter=",", skiprows=1, ndmin=2)
    if epochs != TRAIN_EPOCHS or rows.shape[0] != TRAIN_EPOCHS:
        problems.append(f"{rows.shape[0]} metric rows, {epochs} epochs; want {TRAIN_EPOCHS}")
    if not np.all(np.isfinite(rows)):
        problems.append("non-finite training metrics")
    json.loads((out / "checkpoint.json").read_text())
    values = {"best_val_acc": val_acc, "test_acc": test_acc,
              "first_loss": float(rows[0, 1]), "last_loss": float(rows[-1, 1])}
    return problems, values


def check_simulate(out: Path, stdout: str, bundle: Path, records: int | None, horizon: float):
    """``records`` is the expected record count; None for the adaptive solver,
    whose count must be its reported step count plus one."""
    match = re.search(r"with (\d+) steps; (\d+) records", stdout)
    if match is None:
        return [f"no step line in output {stdout!r}"], {}
    steps, reported = int(match[1]), int(match[2])
    times, states = read_trajectory(out / "trajectory.csv")
    want = records if records is not None else steps + 1
    problems = []
    if len(times) != want or reported != want:
        problems.append(f"{len(times)} records written, {reported} reported; want {want}")
    if times[0] != 0.0 or times[-1] != horizon or np.any(np.diff(times) <= 0):
        problems.append("record times do not run from 0 to the horizon")
    if not np.all(np.isfinite(states)):
        problems.append("non-finite state values")
    if not np.array_equal(states[0], read_features(bundle)):
        problems.append("record 0 differs from the input features")
    final = states[-1]
    values = {"records": float(len(times)), "final_abs_max": float(np.abs(final).max()),
              "final_sum": float(final.sum()),
              "final_spread": float((final.max(axis=0) - final.min(axis=0)).max())}
    return problems, values


def dirichlet_energy(n: int, u, v, w, X: np.ndarray) -> float:
    """(1/n) sum over ordered neighbor pairs of w ||x_u - x_v||^2 (edges counted twice)."""
    diff = X[u] - X[v]
    return float(2.0 * np.dot(w, np.einsum("ij,ij->i", diff, diff)) / n)


def cluster_count(X: np.ndarray, eps: float) -> int:
    """Connected components of the graph linking nodes at distance <= eps."""
    close = squareform(pdist(X) <= eps)
    return int(connected_components(csr_array(close), directed=False)[0])


def check_energy(out: Path, bundle: Path, states: np.ndarray):
    n, u, v, w = read_edges(bundle)
    rows = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1, ndmin=2)
    verdict = json.loads((out / "verdict.json").read_text())
    problems = []
    if rows.shape[0] != len(states):
        return [f"{rows.shape[0]} energy rows for {len(states)} states"], {}
    eps = CLUSTER_EPS_FRACTION * float(pdist(states[0]).max())
    if abs(verdict["eps"] - eps) > ENERGY_RTOL * eps:
        problems.append(f"eps {verdict['eps']!r} != {eps!r}")
    energies = np.array([dirichlet_energy(n, u, v, w, X) for X in states])
    scale = np.maximum(np.abs(energies), np.finfo(float).tiny)
    if np.any(np.abs(rows[:, 1] - energies) > ENERGY_RTOL * scale):
        problems.append(f"energies {rows[:, 1].tolist()} != {energies.tolist()}")
    counts = [cluster_count(X, eps) for X in states]
    if rows[:, 3].astype(np.int64).tolist() != counts:
        problems.append(f"cluster counts {rows[:, 3].tolist()} != {counts}")
    if verdict["cluster_count"] != counts:
        problems.append(f"verdict cluster counts {verdict['cluster_count']} != {counts}")
    values = {"eps": eps}
    values.update({f"energy_{k}": float(e) for k, e in enumerate(rows[:, 1])})
    values.update({f"clusters_{k}": float(c) for k, c in enumerate(rows[:, 3])})
    return problems, values


def check(workload: str, out: Path, stdout: str, bundle: Path, work: Path):
    """(problems, values) of one pass's outputs in ``out``."""
    if workload == "dense-train":
        return check_train(out, stdout)
    if workload == "sparse-simulate":
        records = round(SIMULATE_HORIZON / SIMULATE_STEP) + 1
        return check_simulate(out, stdout, bundle, records, SIMULATE_HORIZON)
    if workload == "sparse-adaptive":
        return check_simulate(out, stdout, bundle, None, ADAPTIVE_HORIZON)
    _, states = read_trajectory(work / "trajectory.csv")
    return check_energy(out, bundle, states)


def max_deviation(values: dict[str, float], reference: dict[str, float]) -> float:
    """Largest relative deviation of a value from its reference (inf if one is missing)."""
    worst = 0.0
    for key, ref in reference.items():
        if key not in values:
            return float("inf")
        worst = max(worst, abs(values[key] - ref) / max(abs(ref), np.finfo(float).tiny))
    return worst
