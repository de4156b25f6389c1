"""Over-smoothing and metastability measurements on states and trajectories.

Dirichlet energy and feature spread quantify how close node features are to
a global constant; epsilon-proximity cluster counts and their dwell
intervals expose long-lived intermediate cluster configurations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .solvers import Trajectory

__all__ = [
    "EnergySeries",
    "ClusterProfile",
    "dirichlet_energy",
    "feature_spread",
    "cluster_count",
    "metastability_profile",
    "oversmoothing_verdict",
    "energy_series",
    "default_cluster_eps",
]


@dataclass(frozen=True, eq=False)
class EnergySeries:
    """Dirichlet energy per recorded trajectory time."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must align")
        if np.any(self.values < 0):
            raise ValueError("Dirichlet energy is nonnegative")


@dataclass(frozen=True, eq=False)
class ClusterProfile:
    """Cluster count per recorded time and maximal constant-count intervals."""

    times: np.ndarray
    counts: np.ndarray
    dwell_intervals: list[tuple[int, float, float]]


def dirichlet_energy(g: Graph, X: np.ndarray) -> float:
    """(1/N) sum_i sum_{j in N(i)} w_ij ||x_i - x_j||^2.

    The double sum runs over ordered neighbor pairs, so each undirected
    edge contributes twice.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != g.n:
        raise ValueError("state row count must equal node count")
    diff = X[g.arc_src] - X[g.arc_dst]
    return float(np.sum(g.arc_weight * np.sum(diff * diff, axis=1)) / g.n)


def feature_spread(X: np.ndarray) -> float:
    """Max over node pairs of the infinity-norm feature distance.

    Equals the largest per-coordinate range, so it is translation
    invariant and O(n d) to evaluate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 1:
        raise ValueError("need at least one node")
    return float(np.max(X.max(axis=0) - X.min(axis=0)))


def _sq_distances(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distances from the rows of ``X`` to ``x``, summed as the dense pairwise form."""
    return np.sum((X - x) ** 2, axis=1)


def _finite(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("feature vectors must be finite")
    return X


def cluster_count(X: np.ndarray, eps: float) -> int:
    """Connected components of the eps-proximity graph on feature vectors.

    Nodes are linked iff their Euclidean distance is <= eps. The count is n
    minus the minimum-spanning-tree links no longer than eps (Gower & Ross
    1969); Prim's algorithm grows the tree one distance row at a time.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    Y = _finite(X).copy()  # rows [0, m) are outside the tree; row m joined it last
    link = np.full(len(Y), np.inf)  # squared distance from each outside row to the tree
    links = 0
    for m in range(len(Y) - 1, 0, -1):
        np.minimum(link[:m], _sq_distances(Y[:m], Y[m]), out=link[:m])
        k = int(np.argmin(link[:m]))
        links += bool(link[k] <= eps * eps)
        Y[[k, m - 1]] = Y[[m - 1, k]]
        link[[k, m - 1]] = link[[m - 1, k]]
    return len(Y) - links


def metastability_profile(traj: Trajectory, eps: float) -> ClusterProfile:
    """Cluster count at every recorded time plus run-length dwell intervals."""
    counts = np.array([cluster_count(s, eps) for s in traj.states], dtype=np.int64)
    intervals: list[tuple[int, float, float]] = []
    start = 0
    for i in range(1, len(counts) + 1):
        if i == len(counts) or counts[i] != counts[start]:
            intervals.append(
                (int(counts[start]), float(traj.times[start]), float(traj.times[i - 1]))
            )
            start = i
    return ClusterProfile(traj.times, counts, intervals)


def oversmoothing_verdict(
    traj: Trajectory, g: Graph, energy_floor: float, spread_floor: float
) -> str:
    """'oversmoothed' iff the final state sits below both floors, else 'mitigated'."""
    final = traj.final_state
    energy = dirichlet_energy(g, final)
    spread = feature_spread(final)
    if energy < energy_floor and spread < spread_floor:
        return "oversmoothed"
    return "mitigated"


def energy_series(traj: Trajectory, g: Graph) -> EnergySeries:
    """Dirichlet energy evaluated at every recorded state."""
    values = np.array([dirichlet_energy(g, s) for s in traj.states])
    return EnergySeries(np.asarray(traj.times, dtype=np.float64), values)


def default_cluster_eps(X0: np.ndarray, fraction: float = 0.05) -> float:
    """Clustering scale: ``fraction`` of the initial Euclidean feature diameter."""
    X0 = _finite(X0)
    sq = max((_sq_distances(X0[i:], X0[i]).max() for i in range(len(X0))), default=0.0)
    diameter = float(np.sqrt(sq))
    if diameter == 0.0:
        return fraction  # degenerate constant features; any positive eps works
    return fraction * diameter
