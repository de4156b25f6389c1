"""Independent reference implementations used to verify the package.

Everything here is deliberately written the slow, obvious way (dense
matrices, explicit loops, own softmax/kernel formulas) so it shares no
code with the vectorized paths it checks.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np


def dense_weight_matrix(g) -> np.ndarray:
    W = np.zeros((g.n, g.n))
    for u, v, w in zip(g.edge_u, g.edge_v, g.edge_weight):
        W[u, v] = w
        W[v, u] = w
    return W


def neighbor_lists(g) -> list[list[int]]:
    W = dense_weight_matrix(g)
    return [[v for v in range(g.n) if W[u, v] != 0] for u in range(g.n)]


def kernel_value(kind: str, z: np.ndarray, delta=0.0, bandwidth=1.0, floor=1e-6) -> float:
    r = math.sqrt(float(sum(zi * zi for zi in np.atleast_1d(z))))
    if kind == "gaussian":
        return math.exp(-r * r / (2.0 * bandwidth * bandwidth))
    r = max(r, floor)
    if kind == "log":
        return math.log(r)
    if kind == "power":
        return r ** (-2.0 - delta)
    raise ValueError(kind)


def apply_sigma(kind: str, X: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return X.copy()
    if kind == "tanh":
        return np.tanh(X)
    if kind == "softplus":
        return np.log1p(np.exp(-np.abs(X))) + np.maximum(X, 0.0)
    if kind == "relu":
        return np.maximum(X, 0.0)
    raise ValueError(kind)


def dense_diffusion(A: np.ndarray, sigma_kind: str, X: np.ndarray) -> np.ndarray:
    sX = apply_sigma(sigma_kind, X)
    return A @ sX - sX


def dense_row_normalized(g) -> np.ndarray:
    W = dense_weight_matrix(g)
    return W / W.sum(axis=1, keepdims=True)


def dense_attention(X: np.ndarray, theta: np.ndarray, scale: float, g) -> np.ndarray:
    """Per-row softmax of projected dot-product scores over each neighborhood."""
    nbrs = neighbor_lists(g)
    P = X @ theta.T
    A = np.zeros((g.n, g.n))
    for u in range(g.n):
        scores = [float(P[u] @ P[v]) / scale for v in nbrs[u]]
        m = max(scores)
        exps = [math.exp(s - m) for s in scores]
        total = sum(exps)
        for v, e in zip(nbrs[u], exps):
            A[u, v] = e / total
    return A


def dense_kernel_matrix(g, kind, X, delta=0.0, bandwidth=1.0, floor=1e-6,
                        normalize_rows=False, theta=None, scale=None) -> np.ndarray:
    """Entrywise kernel evaluation on the edge support, via double loop."""
    if kind == "attention":
        return dense_attention(X, theta, scale, g)
    nbrs = neighbor_lists(g)
    K = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in nbrs[u]:
            K[u, v] = kernel_value(kind, X[u] - X[v], delta, bandwidth, floor)
    if normalize_rows:
        for u in range(g.n):
            s = K[u].sum()
            if s != 0:
                K[u] /= s
    return K


def dense_aggregation(g, K: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Triple-loop node form: x_u ⊙ sum_v w_uv [ sum_k K_vk x_k - sum_l K_ul x_l ]."""
    W = dense_weight_matrix(g)
    nbrs = neighbor_lists(g)
    n, d = X.shape
    out = np.zeros((n, d))
    for u in range(n):
        acc = np.zeros(d)
        for v in nbrs[u]:
            inner = np.zeros(d)
            for k in nbrs[v]:
                inner += K[v, k] * X[k]
            for l in nbrs[u]:
                inner -= K[u, l] * X[l]
            acc += W[u, v] * inner
        out[u] = X[u] * acc
    return out


def dense_rhs(g, cfg, X: np.ndarray) -> np.ndarray:
    """Full reference RHS from a package DynamicsConfig, all dense loops."""
    out = np.zeros_like(X)
    if cfg.diffusion_on:
        if cfg.adjacency_mode == "attention":
            A = dense_attention(X, cfg.attention.theta, cfg.attention.scale, g)
        else:
            A = dense_row_normalized(g)
        out += dense_diffusion(A, cfg.activation.kind, X)
    if cfg.aggregation_on:
        spec = cfg.kernel
        params = spec.theta if spec.theta is not None else cfg.attention
        K = dense_kernel_matrix(
            g, spec.kind, X, spec.delta, spec.bandwidth, spec.singularity_floor,
            normalize_rows=spec.normalize_rows and spec.kind != "attention",
            theta=None if params is None else params.theta,
            scale=None if params is None else params.scale,
        )
        out += dense_aggregation(g, K, X)
    return out


def linear_diffusion_forward(features, enc_w, enc_b, dec_w, dec_b, theta, scale,
                             g, step: float, horizon: float):
    """Reference attention-diffusion classifier: encoder, Euler unroll of
    dX/dt = (A(X) - I) X with attention A, decoder. Dense throughout."""
    X = features @ enc_w + enc_b
    remaining = horizon
    while remaining > 1e-12:
        h = min(step, remaining)
        A = dense_attention(X, theta, scale, g)
        X = X + h * (A @ X - X)
        remaining -= h
    return X @ dec_w + dec_b


def logistic_regression_accuracy(features, labels, train_mask, test_mask,
                                 lr=0.5, iters=3000) -> float:
    """Plain two-class logistic regression on raw features, full-batch GD."""
    Xb = np.hstack([features, np.ones((features.shape[0], 1))])
    w = np.zeros(Xb.shape[1])
    y = labels.astype(np.float64)
    tr = np.flatnonzero(train_mask)
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(Xb[tr] @ w)))
        grad = Xb[tr].T @ (p - y[tr]) / tr.size
        w -= lr * grad
    te = np.flatnonzero(test_mask)
    pred = (Xb[te] @ w) > 0
    return float(np.mean(pred == labels[te]))


def _tree_plus_edges(rng, n: int, extra_edges: int | None = None) -> set:
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n + 1))
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return edges


def random_connected_graph(rng, n: int, extra_edges: int | None = None):
    """Random tree plus extra edges; every node has degree >= 1."""
    from grade import from_edge_list

    return from_edge_list(n, sorted(_tree_plus_edges(rng, n, extra_edges)))


def random_graph(rng, sizes, weighted: bool):
    """Disjoint random connected pieces with consecutive node ids, one per
    entry of ``sizes`` (each >= 2, so no node is isolated); edge weights are
    uniform in [0.25, 2] when ``weighted``, else 1."""
    from grade import from_edge_list

    edges, start = [], 0
    for size in sizes:
        edges += [(start + u, start + v) for u, v in sorted(_tree_plus_edges(rng, size))]
        start += size
    weights = rng.uniform(0.25, 2.0, size=len(edges)) if weighted else None
    return from_edge_list(start, edges, weights)


def pair_sq_distance(X: np.ndarray, i: int, j: int) -> float:
    return float(np.sum((X[i] - X[j]) ** 2))


def eps_cluster_count(X: np.ndarray, eps: float) -> int:
    """Components of the graph linking rows within Euclidean distance eps, by BFS."""
    n = X.shape[0]
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if not seen[v] and pair_sq_distance(X, u, v) <= eps * eps:
                    seen[v] = True
                    queue.append(v)
    return count


def feature_diameter(X: np.ndarray) -> float:
    """Largest Euclidean distance between two rows, over all pairs."""
    n = X.shape[0]
    return math.sqrt(max((pair_sq_distance(X, i, j) for i in range(n) for j in range(n)),
                         default=0.0))
