"""Immutable sparse undirected graphs, synthetic two-block data, and degree utilities.

Graphs are stored edge-major: a canonical undirected edge list plus a CSR-like
arc table (both directions of every edge, sorted by (src, dst)) so row
iteration and edge iteration are both linear.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "Dataset",
    "CsbmConfig",
    "from_edge_list",
    "row_normalized_adjacency",
    "csbm_generate",
    "min_degree_node",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph without self-loops or duplicate edges.

    ``edge_u/edge_v/edge_weight`` hold each undirected edge once (u < v);
    ``arc_*`` hold both orientations sorted by (src, dst), with
    ``arc_offsets[u]:arc_offsets[u+1]`` slicing the arcs leaving ``u``.
    """

    n: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_weight: np.ndarray
    arc_src: np.ndarray
    arc_dst: np.ndarray
    arc_weight: np.ndarray
    arc_offsets: np.ndarray
    degree: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbor ids of ``u`` in ascending order."""
        return self.arc_dst[self.arc_offsets[u]:self.arc_offsets[u + 1]]

    @cached_property
    def weighted_degree(self) -> np.ndarray:
        wd = np.bincount(self.arc_src, weights=self.arc_weight, minlength=self.n)
        wd.setflags(write=False)
        return wd

    @cached_property
    def reverse_arc(self) -> np.ndarray:
        """Index of arc (v, u) for every arc (u, v): the arcs sorted by (dst, src)."""
        rev = np.lexsort((self.arc_src, self.arc_dst))
        rev.setflags(write=False)
        return rev

    @cached_property
    def _arc_csr(self) -> sp.csr_array:
        return sp.csr_array(
            (np.zeros(self.arc_dst.size), self.arc_dst, self.arc_offsets), shape=(self.n, self.n)
        )

    def arc_product(self, vals: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Row u is the sum over arcs (u, v) of vals[arc] * X[v], added in arc order.

        One product with the CSR matrix of the arc table (row pointers
        ``arc_offsets``, column indices ``arc_dst``), built once per graph;
        each call swaps in ``vals``, so calls on one graph must not overlap.
        """
        csr = self._arc_csr
        csr.data = np.ascontiguousarray(vals, dtype=np.float64)
        return csr @ X

    @cached_property
    def static_arc_coeff(self) -> np.ndarray:
        """Per-arc row-normalized weight w_uv / sum_l w_ul (needs no isolated nodes)."""
        if np.any(self.degree == 0):
            isolated = int(np.flatnonzero(self.degree == 0)[0])
            raise ValueError(f"graph has isolated node {isolated}")
        coeff = self.arc_weight / self.weighted_degree[self.arc_src]
        coeff.setflags(write=False)
        return coeff


@dataclass(frozen=True, eq=False)
class Dataset:
    """Graph plus node features, class labels, and split masks."""

    graph: Graph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        n = self.graph.n
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("features must be an (n, d) matrix")
        for name in ("labels", "train_mask", "val_mask", "test_mask"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have one entry per node")
        overlap = (
            self.train_mask.astype(int)
            + self.val_mask.astype(int)
            + self.test_mask.astype(int)
        )
        if overlap.max(initial=0) > 1:
            raise ValueError("masks must be disjoint")

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class CsbmConfig:
    """Two-block contextual SBM: community graph plus class-mean features."""

    n: int = 100
    classes: int = 2
    p_intra: float = 0.9
    p_inter: float = 0.05
    feat_dim: int = 2
    class_mean_separation: float = 1.0
    noise_std: float = 0.1

    def __post_init__(self):
        if self.classes != 2:
            raise ValueError("only two classes are supported")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be even and >= 2 for a balanced split")
        for name in ("p_intra", "p_inter"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.feat_dim < 1:
            raise ValueError("feat_dim must be >= 1")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")


def _build_graph(n: int, eu: np.ndarray, ev: np.ndarray, w: np.ndarray) -> Graph:
    """Assemble arc tables from a validated canonical edge list (u < v)."""
    order = np.lexsort((ev, eu))
    eu, ev, w = eu[order], ev[order], w[order]

    arc_src = np.concatenate([eu, ev])
    arc_dst = np.concatenate([ev, eu])
    arc_w = np.concatenate([w, w])
    order = np.lexsort((arc_dst, arc_src))
    arc_src, arc_dst, arc_w = arc_src[order], arc_dst[order], arc_w[order]

    degree = np.bincount(arc_src, minlength=n).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])

    arrays = (eu, ev, w, arc_src, arc_dst, arc_w, offsets, degree)
    for a in arrays:
        a.setflags(write=False)
    return Graph(n, *arrays)


def from_edge_list(n, edges, weights=None) -> Graph:
    """Build a Graph from undirected pairs, collapsing (u,v)/(v,u) duplicates.

    Duplicate pairs must agree on weight; self-loops, out-of-range endpoints
    and negative weights are rejected.
    """
    if n < 0:
        raise ValueError("node count must be >= 0")
    edges = list(edges)
    if weights is None:
        weights = [1.0] * len(edges)
    else:
        weights = [float(x) for x in weights]
        if len(weights) != len(edges):
            raise ValueError("weights must match edges in length")

    seen: dict[tuple[int, int], float] = {}
    for (u, v), w in zip(edges, weights):
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if w < 0:
            raise ValueError(f"negative weight on edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            if seen[key] != w:
                raise ValueError(f"conflicting duplicate weights for edge {key}")
        else:
            seen[key] = w

    if seen:
        eu = np.array([k[0] for k in seen], dtype=np.int64)
        ev = np.array([k[1] for k in seen], dtype=np.int64)
        w = np.array([seen[k] for k in seen], dtype=np.float64)
    else:
        eu = np.zeros(0, dtype=np.int64)
        ev = np.zeros(0, dtype=np.int64)
        w = np.zeros(0, dtype=np.float64)
    return _build_graph(n, eu, ev, w)


def row_normalized_adjacency(g: Graph) -> sp.csr_array:
    """Row-stochastic adjacency: entry (u,v) = w_uv / sum_l w_ul on edges.

    Rejects graphs with isolated nodes (their row would be empty).
    """
    coeff = g.static_arc_coeff
    return sp.csr_array(
        (coeff, g.arc_dst, g.arc_offsets), shape=(g.n, g.n)
    )


def min_degree_node(g: Graph) -> tuple[int, int]:
    """Lowest-index node attaining the minimum degree, with that degree."""
    if g.n == 0:
        raise ValueError("empty graph")
    u = int(np.argmin(g.degree))
    return u, int(g.degree[u])


def csbm_generate(cfg: CsbmConfig, seed: int) -> Dataset:
    """Sample a two-community graph with class-mean features and 60/20/20 splits.

    Nodes 0..n/2-1 are class 0, the rest class 1. Each unordered pair is an
    edge with probability p_intra (same class) or p_inter (different class).
    Features are the class mean (+/- separation/2 per coordinate) plus
    Gaussian noise. Pure function of (cfg, seed).
    """
    rng = np.random.default_rng(seed)
    n, d = cfg.n, cfg.feat_dim
    half = n // 2
    labels = np.repeat(np.arange(2), half)

    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    prob = np.where(same, cfg.p_intra, cfg.p_inter)
    keep = rng.random(iu.size) < prob
    graph = _build_graph(
        n,
        iu[keep].astype(np.int64),
        ju[keep].astype(np.int64),
        np.ones(int(keep.sum())),
    )

    means = np.where(labels[:, None] == 0, -0.5, 0.5) * cfg.class_mean_separation
    features = means * np.ones((1, d)) + rng.normal(0.0, cfg.noise_std, size=(n, d))

    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        n_tr = int(round(0.6 * idx.size))
        n_val = int(round(0.2 * idx.size))
        train[idx[:n_tr]] = True
        val[idx[n_tr:n_tr + n_val]] = True
        test[idx[n_tr + n_val:]] = True

    for a in (features, labels, train, val, test):
        a.setflags(write=False)
    return Dataset(graph, features, labels, train, val, test)
