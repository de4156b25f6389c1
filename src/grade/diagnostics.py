"""Over-smoothing and metastability measurements on states and trajectories.

Dirichlet energy and feature spread quantify how close node features are to
a global constant; epsilon-proximity cluster counts and their dwell
intervals expose long-lived intermediate cluster configurations.
"""
from __future__ import annotations

import bisect
import functools
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
SEED_BATCH = 64  # most seeds compared at once; each batch also compares its seeds pairwise
PRUNE_MARGIN = 2.0**-20  # relative slack of the diameter prune, far above its rounding
PRUNE_FLOOR = np.finfo(np.float64).tiny ** 0.5  # below it, subnormal rounding may matter


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


def _overflow_is_inf(fn):
    """``fn`` without numpy's overflow warnings: a coordinate range, difference
    or square beyond the largest double is inf, and such points are as far
    apart as inf says."""
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)
    return quiet


@_overflow_is_inf
def dirichlet_energy(g: Graph, X: np.ndarray) -> float:
    """(1/N) sum_i sum_{j in N(i)} w_ij ||x_i - x_j||^2.

    The double sum runs over ordered neighbor pairs, so each undirected
    edge contributes twice.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != g.n:
        raise ValueError("state row count must equal node count")
    return float(np.sum(g.arc_weight * g.arc_sq_distances(X)[0]) / g.n)


@_overflow_is_inf
def feature_spread(X: np.ndarray) -> float:
    """Max over node pairs of the infinity-norm feature distance.

    Equals the largest per-coordinate range, so it is translation
    invariant and O(n d) to evaluate.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 1:
        raise ValueError("need at least one node")
    return float(np.max(X.max(axis=0) - X.min(axis=0), initial=0.0))


def _square_plane(P: np.ndarray, Q: np.ndarray, k: int) -> np.ndarray:
    diff = np.subtract.outer(P[k], Q[k])
    return np.multiply(diff, diff, out=diff)


def _sq_distances(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(f, m) squared distances between the columns of ``P`` (d, f) and ``Q`` (d, m).

    Entry (i, j) equals ``np.sum((P[:, i] - Q[:, j]) ** 2)`` bit for bit:
    one subtract-and-square plane per coordinate, added in numpy's order.
    Needs d >= 1; both callers return early on points of zero width.
    """
    return pairwise_sum(lambda k: _square_plane(P, Q, k), len(P))


def _finite(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("feature vectors must be finite")
    return X


def _block_rows(m: int) -> int:
    """Rows of a distance block against ``m`` > 0 columns."""
    return max(1, DISTANCE_BLOCK // m)


def _block_end(width, first: int, count: int) -> int:
    """End of the longest run of rows ``[first, last)`` of ``count`` (one row
    at least) that fits one distance block against its window of
    ``width(last)`` columns; the window only grows with ``last``."""
    return bisect.bisect_right(
        range(count + 1), 0, first + 2, count + 1,
        key=lambda last: last - first - _block_rows(max(int(width(last)), 1)),
    ) - 1


def _reach(r2: float) -> float:
    """A width w with fl(w * w) > ``r2``, or inf if none is found.

    Two points further apart than w along one axis cannot link: their
    difference there rounds to at least w, its square to more than r2, and
    a pairwise sum of squares never rounds below one of its terms.
    """
    w = float(np.sqrt(r2)) * (1 + 2.0**-49)
    return w if w * w > r2 else np.inf


def _absorb(frontier: np.ndarray, rest: np.ndarray, r2: float, axis: int, w: float) -> np.ndarray:
    """The points of ``rest`` left once every point that ``frontier`` reaches,
    directly or through other points of ``rest``, has left. Both are sorted
    along ``axis``; a block of frontier points meets only the points of
    ``rest`` within ``w`` of it there that no block has reached yet, and its
    rows are sized from how many those are. Blocks run from the far end of
    the frontier, nearest the unvisited points that the sweep has yet to
    pass, so that the later blocks meet fewer of them."""
    while frontier.shape[1] and rest.shape[1]:
        frontier = frontier[:, ::-1]
        keys, ahead = rest[axis], frontier[axis]
        los = np.searchsorted(keys, ahead - w, "left")
        his = np.searchsorted(keys, ahead + w, "right")
        hit, first = np.zeros(keys.size, dtype=bool), 0
        before = np.arange(keys.size + 1)  # points not yet reached before each index
        while first < ahead.size and before[-1]:
            hi = his[first]
            last = _block_end(lambda end: before[hi] - before[los[end - 1]], first, ahead.size)
            live = np.flatnonzero(~hit[los[last - 1]:hi]) + los[last - 1]
            if live.size:
                near = _sq_distances(frontier[:, first:last], rest[:, live]) <= r2
                reached = live[near.any(axis=0)]
                if reached.size:
                    hit[reached] = True
                    np.cumsum(~hit, out=before[1:])
            first = last
        frontier = np.compress(hit, rest, axis=1)
        rest = np.compress(~hit, rest, axis=1)
    return rest


@_overflow_is_inf
def cluster_count(X: np.ndarray, eps: float) -> int:
    """Connected components of the eps-proximity graph on feature vectors.

    Nodes are linked iff their Euclidean distance is <= eps. The points are
    sorted once along their widest coordinate, and every block of them is
    compared only with the window of unvisited points that lie within eps
    of it along that axis (no other pair can link). A frontier search takes
    a batch of seeds: seeds that reach only themselves are singletons and
    leave together; else the first seed with a neighbour grows its
    component one frontier at a time against the shrinking set of unvisited
    points.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    P = np.ascontiguousarray(_finite(X).T)
    if not P.size:
        return min(P.shape[1], 1)  # zero-width points all coincide
    axis = int(np.argmax(P.max(axis=1) - P.min(axis=1)))
    # coordinate-major unvisited points, in sweep order
    rest = P.take(np.argsort(P[axis], kind="stable"), axis=1)
    r2 = eps * eps
    w = _reach(r2)
    count = 0
    while rest.shape[1]:
        keys = rest[axis]
        ends = np.searchsorted(keys, keys[:SEED_BATCH] + w, "right")
        seeds = _block_end(lambda end: ends[end - 1], 0, ends.size)
        near = _sq_distances(rest[:, :seeds], rest[:, :ends[seeds - 1]]) <= r2
        np.fill_diagonal(near, False)  # seed i is point i
        lonely = ~near.any(axis=1)
        count += int(np.count_nonzero(lonely))
        if lonely.all():
            rest = rest[:, seeds:]
            continue
        grow = int(np.argmin(lonely))
        gone = np.zeros(keys.size, dtype=bool)
        gone[:near.shape[1]] = near[grow]
        frontier = np.compress(gone, rest, axis=1)
        gone[:seeds] |= lonely
        gone[grow] = True
        rest = _absorb(frontier, np.compress(~gone, rest, axis=1), r2, axis, w)
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


@_overflow_is_inf
def default_cluster_eps(X0: np.ndarray) -> float:
    """Clustering scale: ``EPS_FRACTION`` of the initial Euclidean feature diameter.

    The diameter is a blocked max over the pairs of the points that can
    still reach it. L, the largest distance from the point furthest from the
    bounding-box centre c, is a pair distance, so the diameter is at least
    L; and ||x_i - x_j|| <= r_i + R with r_i = ||x_i - c|| and R = max r_i,
    so point i can be in the diameter's pair only if (r_i + R)^2 >= L. A
    relative margin covers rounding; below ``PRUNE_FLOOR`` every point is
    kept, and an L that overflows is already the result. The kept pair is
    the same kernel's pair, so the bits are too.
    """
    P = np.ascontiguousarray(_finite(X0).T)
    if not P.size:
        return EPS_FRACTION  # no pairs, or no coordinates to tell points apart
    centre = P.min(axis=1) / 2 + P.max(axis=1) / 2
    r = np.sqrt(_sq_distances(centre[:, None], P)[0])
    far = int(np.argmax(r))
    sq = float(_sq_distances(P[:, far:far + 1], P).max())
    if sq >= PRUNE_FLOOR:
        P = np.compress((r + r[far]) ** 2 >= sq * (1 - PRUNE_MARGIN), P, axis=1)
    n, first = P.shape[1], 0
    while first < n:
        last = first + _block_rows(n - first)
        sq = max(sq, float(_sq_distances(P[:, first:last], P[:, first:]).max()))
        first = last
    diameter = float(np.sqrt(sq))
    if diameter == 0.0:
        return EPS_FRACTION  # degenerate constant features; any positive eps works
    return EPS_FRACTION * diameter
