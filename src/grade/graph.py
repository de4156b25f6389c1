"""Immutable sparse undirected graphs, synthetic two-block data, and degree utilities.

Graphs are stored edge-major: a canonical undirected edge list plus a CSR-like
arc table (both directions of every edge, sorted by (src, dst)) so row
iteration and edge iteration are both linear.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .codec import from_fields, to_fields

if TYPE_CHECKING:  # scipy is imported only where a CSR matrix is built
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


def pairwise_sum(term, count: int, lo: int = 0) -> np.ndarray:
    """``term(lo) + ... + term(lo + count - 1)`` for ``count`` >= 1, added in the
    order numpy's pairwise summation adds a contiguous row of that length: one
    by one below 8 terms, in eight interleaved partial sums up to 128, else as
    the sum of two halves (the first a multiple of 8 long). Every ``term(k)``
    must be a fresh array: the sum accumulates into them."""
    if count > 128:
        half = count // 2 - count // 2 % 8
        acc = pairwise_sum(term, half, lo)
        acc += pairwise_sum(term, count - half, lo + half)
        return acc
    end = lo + count
    if count < 8:
        acc, tail = term(lo), lo + 1
    else:
        tail = end - count % 8
        r = [term(lo + j) for j in range(8)]
        for k in range(lo + 8, tail):
            r[(k - lo) % 8] += term(k)
        for step in (1, 2, 4):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            for j in range(0, 8, 2 * step):
                r[j] += r[j + step]
        acc = r[0]
    for k in range(tail, end):
        acc += term(k)
    return acc


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph without self-loops or duplicate edges.

    ``edge_u/edge_v/edge_weight`` hold each undirected edge once (u < v);
    ``arc_*`` hold both orientations sorted by (src, dst), with
    ``arc_offsets[u]:arc_offsets[u+1]`` slicing the arcs leaving ``u``, and
    ``reverse_arc`` giving the index of arc (v, u) for every arc (u, v).
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
    reverse_arc: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    @cached_property
    def weighted_degree(self) -> np.ndarray:
        wd = self.arc_sum(self.arc_weight)
        wd.setflags(write=False)
        return wd

    def arc_matrix(self, values, columns=None, width=None) -> sp.csr_array:
        """The CSR matrix with ``values`` (one per arc) in row pointers ``arc_offsets``:
        by default the n x n matrix on the arc table (column indices ``arc_dst``),
        else ``width`` columns indexed by ``columns``."""
        import scipy.sparse as sp

        columns = self.arc_dst if columns is None else columns
        width = self.n if width is None else width
        return sp.csr_array((values, columns, self.arc_offsets), shape=(self.n, width))

    @cached_property
    def _arc_csr(self) -> sp.csr_array:
        return self.arc_matrix(np.zeros(self.arc_dst.size))

    @cached_property
    def _arc_incidence(self) -> sp.csr_array:
        m = self.arc_src.size
        return self.arc_matrix(np.ones(m), np.arange(m), m)

    def arc_sum(self, V: np.ndarray) -> np.ndarray:
        """Row u sums the rows of ``V`` (one per arc) over the arcs leaving u, in arc
        order from zero as ``np.bincount`` over ``arc_src`` does: one product with
        the n x m arc-incidence matrix, built once per graph."""
        return self._arc_incidence @ V

    def arc_sq_distances(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """||x_u - x_v||^2 on every arc, and the (d, m) planes of x_u - x_v it sums.

        Plane k takes column k of ``X`` over ``arc_src`` and ``arc_dst``; the
        squared planes are added by :func:`pairwise_sum`, so each distance
        equals ``np.sum((x_u - x_v) ** 2)`` bit for bit.
        """
        Xt = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
        diff = Xt.take(self.arc_src, axis=1)
        diff -= Xt.take(self.arc_dst, axis=1)
        if not len(diff):
            return np.zeros(self.arc_src.size), diff
        return pairwise_sum(lambda k: diff[k] * diff[k], len(diff)), diff

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
        """Per-arc row-normalized weight w_uv / sum_l w_ul (needs every sum positive and finite)."""
        if np.any(self.weighted_degree == 0):
            u = int(np.argmin(self.weighted_degree))
            raise ValueError(f"graph has isolated node {u}" if self.degree[u] == 0
                             else f"node {u} has zero total edge weight")
        if not np.all(np.isfinite(self.weighted_degree)):
            u = int(np.argmin(np.isfinite(self.weighted_degree)))
            raise ValueError(f"node {u} has non-finite total edge weight "
                             f"{float(self.weighted_degree[u])}")
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
            raise ValueError(f"masks must be disjoint: node {int(np.argmax(overlap > 1))} is in "
                             "more than one")

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class CsbmConfig:
    """Two-block contextual SBM: community graph plus class-mean features."""

    n: int = 100
    p_intra: float = 0.9
    p_inter: float = 0.05
    feat_dim: int = 2
    class_mean_separation: float = 1.0
    noise_std: float = 0.1

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("n must be even and >= 2 for a balanced split")
        for name in ("p_intra", "p_inter"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.feat_dim < 1:
            raise ValueError("feat_dim must be >= 1")
        if not 0.0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be >= 0 and finite")
        if not np.isfinite(self.class_mean_separation):
            raise ValueError("class_mean_separation must be finite")

    to_json = to_fields
    from_json = classmethod(from_fields)


_KEY_SIDE = math.isqrt(np.iinfo(np.int64).max)  # the largest n with every a·n + b in int64


def _pair_order(a: np.ndarray, b: np.ndarray, n: int, kind: str = "stable") -> np.ndarray:
    """The order of the pairs (a, b), each in [0, n), by a, then b: one argsort
    of the injective key a·n + b (a lexsort for n beyond ``_KEY_SIDE``). Equal
    pairs keep their order unless ``kind`` names a sort that is not stable."""
    if n > _KEY_SIDE:
        return np.lexsort((b, a))
    return np.argsort(a * n + b, kind=kind)


def _build_graph(n: int, eu: np.ndarray, ev: np.ndarray, w: np.ndarray) -> Graph:
    """The graph of distinct validated canonical edges (u < v), which must come
    sorted by (u, v): they are the arc table's arcs with src < dst, in order.
    The three arrays become its edge arrays, so the caller must not keep them.

    Row x of the arc table lists x's arcs to lower neighbours (the edges
    (y, x) by y: one sort by (v, u)), then those to higher ones (the edges
    (x, y) by y), so the counts of both kinds per node place every arc.
    """
    m = eu.size
    up = np.bincount(eu, minlength=n)  # the arcs from each node to a higher one
    down = np.bincount(ev, minlength=n)  # and to a lower one
    degree = up + down
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])
    # edge e's arc from v follows the arcs to higher nodes from nodes below v and
    # the edges before e in (v, u) order; its arc from u follows the arcs to lower
    # nodes from nodes up to u and the edges before e
    by_v = _pair_order(ev, eu, n, kind="quicksort")  # the pairs are distinct
    back = np.empty(m, dtype=np.int64)
    back[by_v] = np.arange(m) + np.repeat(np.cumsum(up) - up, down)
    del by_v
    fore = np.arange(m) + np.repeat(np.cumsum(down), up)

    reverse = np.empty(2 * m, dtype=np.int64)
    reverse[fore], reverse[back] = back, fore
    arc_dst = np.empty(2 * m, dtype=np.int64)
    arc_dst[fore], arc_dst[back] = ev, eu
    arc_w = np.empty(2 * m)
    arc_w[fore] = arc_w[back] = w
    del fore, back
    arc_src = np.repeat(np.arange(n, dtype=np.int64), degree)

    arrays = (eu, ev, w, arc_src, arc_dst, arc_w, offsets, degree, reverse)
    for a in arrays:
        a.setflags(write=False)
    return Graph(n, *arrays)


def _as_array(values, dtype) -> np.ndarray:
    """``values`` (an array, a list, a tuple or any other iterable) as an array of ``dtype``."""
    return np.asarray(values if isinstance(values, (np.ndarray, list, tuple)) else list(values),
                      dtype=dtype)


def from_edge_list(n, edges, weights=None) -> Graph:
    """Build a Graph from undirected pairs, collapsing (u,v)/(v,u) duplicates.

    Duplicate pairs must agree on weight; self-loops, non-integral or
    out-of-range endpoints and non-finite or negative weights are rejected.
    The error names the first offending pair in input order; a duplicate is
    compared with the first occurrence of its pair, whose weight is kept.
    """
    return _build_graph(n, *_checked_edges(n, edges, weights))


def _checked_edges(n, edges, weights):
    """``from_edge_list``'s checks: its distinct edges (u < v, sorted) and their weights."""
    if n < 0:
        raise ValueError("node count must be >= 0")
    raw = _as_array(edges, None)
    if raw.size == 0:
        raw = raw.reshape(0, 2)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    try:
        with np.errstate(invalid="ignore"):  # a non-finite endpoint is a fault below
            pairs = raw.astype(np.int64, copy=False)
    except OverflowError:
        raise ValueError("edge endpoint out of range: too large for a node id") from None
    fractional = (pairs != raw).any(axis=1) if raw.dtype.kind == "f" else np.zeros(len(raw), bool)
    m = pairs.shape[0]
    w = np.ones(m) if weights is None else _as_array(weights, np.float64)
    if w.shape != (m,):
        raise ValueError("weights must match edges in length")

    u, v = pairs.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    inside = (lo >= 0) & (hi < n)
    # pairs out of range all sort as (0, 0), a self-loop: only faulty pairs share their run
    order = _pair_order(lo * inside, hi * inside, n)  # stable: a pair's first occurrence leads
    starts = np.ones(m, dtype=bool)
    starts[1:] = (lo[order[1:]] != lo[order[:-1]]) | (hi[order[1:]] != hi[order[:-1]])
    first = order[starts]
    first_of = np.empty(m, dtype=np.int64)
    first_of[order] = first[np.cumsum(starts) - 1]
    del order, starts

    faults = (
        (fractional, "edge endpoint is not an integer node id: ({x}, {y})"),
        (~inside, "edge endpoint out of range: ({u}, {v})"),
        (u == v, "self-loop at node {u}"),
        (~np.isfinite(w), "non-finite weight on edge ({u}, {v})"),
        (w < 0, "negative weight on edge ({u}, {v})"),
        ((first_of != np.arange(m)) & (w[first_of] != w),
         "conflicting duplicate weights for edge ({lo}, {hi})"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in faults])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(text for mask, text in faults if mask[i])
        raise ValueError(message.format(u=u[i], v=v[i], lo=lo[i], hi=hi[i],
                                        x=float(raw[i, 0]), y=float(raw[i, 1])))
    return lo[first], hi[first], w[first]


def row_normalized_adjacency(g: Graph) -> sp.csr_array:
    """Row-stochastic adjacency: entry (u,v) = w_uv / sum_l w_ul on edges.

    Rejects graphs with isolated nodes (their row would be empty).
    """
    return g.arc_matrix(g.static_arc_coeff)


def min_degree_node(g: Graph) -> tuple[int, int]:
    """Lowest-index node attaining the minimum degree, with that degree."""
    if g.n == 0:
        raise ValueError("empty graph")
    u = int(np.argmin(g.degree))
    return u, int(g.degree[u])


PAIR_BLOCK = 1 << 20  # uniforms drawn per block while sampling pairs


def _sample_pairs(rng, n: int, p_intra: float, p_inter: float):
    """Edges (u < v) of the two-block graph on n nodes, in row-major pair order.

    Pair k of the n(n-1)/2 pairs (u, v), u < v, in row-major order gets the
    k-th uniform of ``rng``, drawn in blocks of PAIR_BLOCK, and is an edge
    when that uniform is below its probability: p_intra when u and v lie in
    the same half of the nodes, else p_inter. A block keeps only the
    uniforms below the larger probability, so memory is O(block + edges).
    """
    half, pairs = n // 2, n * (n - 1) // 2
    starts = np.arange(n - 1, dtype=np.int64)
    starts = starts * n - starts * (starts + 1) // 2  # flat index of pair (u, u + 1)
    p_max = max(p_intra, p_inter)
    eu, ev = [], []
    for first in range(0, pairs, PAIR_BLOCK):
        draws = rng.random(min(PAIR_BLOCK, pairs - first))
        k = np.flatnonzero(draws < p_max)
        draws = draws[k]
        k += first
        u = np.searchsorted(starts, k, side="right") - 1
        v = k - starts[u] + u + 1
        keep = draws < np.where((u < half) == (v < half), p_intra, p_inter)
        eu.append(u[keep])
        ev.append(v[keep])
    return np.concatenate(eu, dtype=np.int64), np.concatenate(ev, dtype=np.int64)


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

    eu, ev = _sample_pairs(rng, n, cfg.p_intra, cfg.p_inter)
    graph = _build_graph(n, eu, ev, np.ones(eu.size))

    means = np.where(labels[:, None] == 0, -0.5, 0.5) * cfg.class_mean_separation
    with np.errstate(over="ignore"):
        features = means * np.ones((1, d)) + rng.normal(0.0, cfg.noise_std, size=(n, d))
    if not np.all(np.isfinite(features)):
        raise ValueError(f"class_mean_separation {cfg.class_mean_separation:g} and noise_std "
                         f"{cfg.noise_std:g} overflow a feature to a non-finite value")

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
