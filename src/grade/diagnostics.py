"""Over-smoothing and metastability measurements on states and trajectories.

Dirichlet energy and feature spread quantify how close node features are to
a global constant; epsilon-proximity cluster counts and their dwell
intervals expose long-lived intermediate cluster configurations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, pairwise_sum
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

EPS_FRACTION = 0.05  # default cluster scale, as a fraction of the initial feature diameter
DISTANCE_BLOCK = 1 << 15  # point pairs compared per distance block
SEED_BATCH = 64  # seeds compared with the unvisited points at once


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
    return float(np.sum(g.arc_weight * g.arc_sq_distances(X)[0]) / g.n)


def feature_spread(X: np.ndarray) -> float:
    """Max over node pairs of the infinity-norm feature distance.

    Equals the largest per-coordinate range, so it is translation
    invariant and O(n d) to evaluate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 1:
        raise ValueError("need at least one node")
    return float(np.max(X.max(axis=0) - X.min(axis=0)))


def _square_plane(P: np.ndarray, Q: np.ndarray, k: int) -> np.ndarray:
    diff = np.subtract.outer(P[k], Q[k])
    return np.multiply(diff, diff, out=diff)


def _sq_distances(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(f, m) squared distances between the columns of ``P`` (d, f) and ``Q`` (d, m).

    Entry (i, j) equals ``np.sum((P[:, i] - Q[:, j]) ** 2)`` bit for bit:
    one subtract-and-square plane per coordinate, added in numpy's order.
    """
    if not len(P):
        return np.zeros((P.shape[1], Q.shape[1]))
    return pairwise_sum(lambda k: _square_plane(P, Q, k), len(P))


def _finite(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("feature vectors must be finite")
    return X


def _block_rows(m: int) -> int:
    """Rows of a distance block against ``m`` > 0 columns."""
    return max(1, DISTANCE_BLOCK // m)


def _absorb(frontier: np.ndarray, rest: np.ndarray, r2: float) -> np.ndarray:
    """The points of ``rest`` left once every point that ``frontier`` reaches,
    directly or through other points of ``rest``, has left."""
    while frontier.shape[1] and rest.shape[1]:
        grown, first = [], 0
        while first < frontier.shape[1] and rest.shape[1]:
            last = first + _block_rows(rest.shape[1])
            hit = np.any(_sq_distances(frontier[:, first:last], rest) <= r2, axis=0)
            if hit.any():
                grown.append(np.compress(hit, rest, axis=1))
                rest = np.compress(~hit, rest, axis=1)
            first = last
        frontier = np.concatenate([frontier[:, :0], *grown], axis=1)
    return rest


def cluster_count(X: np.ndarray, eps: float) -> int:
    """Connected components of the eps-proximity graph on feature vectors.

    Nodes are linked iff their Euclidean distance is <= eps. A frontier
    search compares a batch of seeds with every unvisited point at once:
    seeds that reach only themselves are singletons and leave together;
    else the first seed with a neighbour grows its component one frontier
    at a time against the shrinking set of unvisited points.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    rest = np.ascontiguousarray(_finite(X).T)  # coordinate-major unvisited points
    r2 = eps * eps
    count = 0
    while rest.shape[1]:
        seeds = min(SEED_BATCH, _block_rows(rest.shape[1]))
        near = _sq_distances(rest[:, :seeds], rest) <= r2
        np.fill_diagonal(near, False)  # seed i is point i
        lonely = ~near.any(axis=1)
        count += int(np.count_nonzero(lonely))
        if lonely.all():
            rest = rest[:, seeds:]
            continue
        grow = int(np.argmin(lonely))
        gone = near[grow]
        frontier = np.compress(gone, rest, axis=1)
        gone[:seeds] |= lonely
        gone[grow] = True
        rest = _absorb(frontier, np.compress(~gone, rest, axis=1), r2)
        count += 1
    return count


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


def default_cluster_eps(X0: np.ndarray) -> float:
    """Clustering scale: ``EPS_FRACTION`` of the initial Euclidean feature diameter."""
    P = np.ascontiguousarray(_finite(X0).T)
    n = P.shape[1]
    sq, first = 0.0, 0
    while first < n:
        last = first + _block_rows(n - first)
        sq = max(sq, float(_sq_distances(P[:, first:last], P[:, first:]).max()))
        first = last
    diameter = float(np.sqrt(sq))
    if diameter == 0.0:
        return EPS_FRACTION  # degenerate constant features; any positive eps works
    return EPS_FRACTION * diameter
