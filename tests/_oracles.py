"""Independent reference implementations used to verify the package.

Everything here is deliberately written the slow, obvious way (dense
matrices, explicit loops, own softmax/kernel formulas) so it shares no
code with the vectorized paths it checks.
"""
from __future__ import annotations

import csv
import math
from collections import deque
from pathlib import Path

import numpy as np

from grade.graph import Dataset, Graph, _build_graph
from grade.solvers import Trajectory
from grade.training import EpochMetrics


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
        spec, params = cfg.kernel, cfg.attention
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


# ------------------------------------------------------- cluster diagnostics
# grade.diagnostics' cluster count and cluster scale as they were before the
# frontier search and the blocked distance kernel: one Python step per node,
# each summing a distance row with numpy's ``sum(axis=1)``. The package must
# give the same counts and the same bits of eps.


def _row_sq_distances(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.sum((X - x) ** 2, axis=1)


def ref_cluster_count(X: np.ndarray, eps: float) -> int:
    """n minus the minimum-spanning-tree links no longer than eps (Gower &
    Ross 1969), with Prim's algorithm growing the tree one row at a time."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    Y = np.asarray(X, dtype=np.float64).copy()  # rows [0, m) are outside the tree
    link = np.full(len(Y), np.inf)  # squared distance from each outside row to the tree
    links = 0
    for m in range(len(Y) - 1, 0, -1):
        np.minimum(link[:m], _row_sq_distances(Y[:m], Y[m]), out=link[:m])
        k = int(np.argmin(link[:m]))
        links += bool(link[k] <= eps * eps)
        Y[[k, m - 1]] = Y[[m - 1, k]]
        link[[k, m - 1]] = link[[m - 1, k]]
    return len(Y) - links


def ref_default_cluster_eps(X0: np.ndarray) -> float:
    """5% of the Euclidean feature diameter, found one row at a time; 0.05
    when every row is the same point."""
    X0 = np.asarray(X0, dtype=np.float64)
    sq = max((_row_sq_distances(X0[i:], X0[i]).max() for i in range(len(X0))), default=0.0)
    diameter = float(np.sqrt(sq))
    return 0.05 * diameter if diameter > 0.0 else 0.05


# ------------------------------------------------------------ file formats
# The csv-module writers and the loop- and dict-based readers that
# grade.io and grade.graph.from_edge_list used before their numpy rewrite,
# kept as written: the new code must write the same bytes, parse the same
# bits and raise the same first error. ref_from_edge_list hands its checked,
# deduplicated edges, sorted by (u, v), to grade's own _build_graph.
# Since then the readers name the line of a malformed edge-list field and
# reject a non-finite feature or edge weight, and these oracles do too.


def ref_fmt(x: float) -> str:
    return "{:.17g}".format(float(x))


def ref_write_table(path, header: list[str], rows) -> None:
    """Every CSV file: the header line, then one line per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def ref_from_edge_list(n, edges, weights=None) -> Graph:
    """Build a Graph from undirected pairs, collapsing (u,v)/(v,u) duplicates.

    Duplicate pairs must agree on weight; self-loops, out-of-range endpoints
    and non-finite or negative weights are rejected.
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
        if not np.isfinite(w):
            raise ValueError(f"non-finite weight on edge ({u}, {v})")
        if w < 0:
            raise ValueError(f"negative weight on edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        if key in seen:
            if seen[key] != w:
                raise ValueError(f"conflicting duplicate weights for edge {key}")
        else:
            seen[key] = w

    if seen:
        keys = sorted(seen)
        eu = np.array([k[0] for k in keys], dtype=np.int64)
        ev = np.array([k[1] for k in keys], dtype=np.int64)
        w = np.array([seen[k] for k in keys], dtype=np.float64)
    else:
        eu = np.zeros(0, dtype=np.int64)
        ev = np.zeros(0, dtype=np.int64)
        w = np.zeros(0, dtype=np.float64)
    return _build_graph(n, eu, ev, w)


def ref_write_edge_list(g: Graph, path) -> None:
    """One `u v weight` triple per line, 0-based ids, `#` comments allowed."""
    with open(path, "w") as fh:
        fh.write(f"# nodes: {g.n}\n")
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_weight):
            fh.write(f"{u} {v} {ref_fmt(w)}\n")


def ref_read_edge_list(path, n: int | None = None) -> Graph:
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
            try:
                edges.append((int(parts[0]), int(parts[1])))
                weights.append(float(parts[2]) if len(parts) == 3 else 1.0)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if n is None:
        n = header_n if header_n is not None else (
            max((max(u, v) for u, v in edges), default=-1) + 1
        )
    return ref_from_edge_list(n, edges, weights)


def ref_write_dataset(ds: Dataset, out_dir) -> None:
    """Write the bundle {graph.txt, features.csv, labels.csv, masks.csv}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ref_write_edge_list(ds.graph, out / "graph.txt")

    n, d = ds.graph.n, ds.features.shape[1]
    ref_write_table(out / "features.csv", ["node"] + [f"f{j}" for j in range(d)],
                    ([i] + [ref_fmt(x) for x in ds.features[i]] for i in range(n)))
    ref_write_table(out / "labels.csv", ["node", "label"],
                    ([i, int(lab)] for i, lab in enumerate(ds.labels)))
    ref_write_table(out / "masks.csv", ["node", "train", "val", "test"],
                    ([i, int(ds.train_mask[i]), int(ds.val_mask[i]), int(ds.test_mask[i])]
                     for i in range(n)))


def ref_by_node(rows: list[list[str]], n: int, where: str) -> list[list[str]]:
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


def ref_read_table(path, n: int, width: int | None = None) -> list[list[str]]:
    """The value fields of each node's row; the header names ``width`` of them if
    given, else at least 1."""
    with open(path, newline="") as fh:
        head, *rows = csv.reader(fh)
    if width is None and len(head) < 2:
        raise ValueError(f"{path}: expected at least 1 feature column after the node id")
    if width is not None and len(head) - 1 != width:
        raise ValueError(f"{path}: expected {width} value columns after the node id")
    return ref_by_node(rows, n, str(path))


def ref_read_dataset(in_dir) -> Dataset:
    """Read a bundle of at least one node; every per-node file must list each
    node exactly once, and every label must be >= 0."""
    src = Path(in_dir)
    for name in ("graph.txt", "features.csv", "labels.csv", "masks.csv"):
        if not (src / name).exists():
            raise FileNotFoundError(f"dataset bundle is missing {name}")
    graph = ref_read_edge_list(src / "graph.txt")
    n = graph.n
    if n == 0:
        raise ValueError(f"{src / 'graph.txt'}: expected at least 1 node")

    features = np.array([[float(x) for x in row] for row in ref_read_table(src / "features.csv", n)])
    for node, row in enumerate(features):
        if not all(math.isfinite(x) for x in row):
            raise ValueError(f"{src / 'features.csv'}: node {node} has a non-finite feature")
    labels = np.array([int(label) for (label,) in ref_read_table(src / "labels.csv", n, 1)],
                      dtype=np.int64)
    for node, label in enumerate(labels):
        if label < 0:
            raise ValueError(f"{src / 'labels.csv'}: node {node} has label {label}; "
                             "labels must be >= 0")
    masks = np.array([[bool(int(x)) for x in row]
                      for row in ref_read_table(src / "masks.csv", n, 3)])
    for node, row in enumerate(masks):
        if row.sum() > 1:
            raise ValueError(f"{src / 'masks.csv'}: masks must be disjoint: node {node} is in "
                             "more than one")
    return Dataset(graph, features, labels, *masks.T)


def ref_write_trajectory_csv(traj: Trajectory, path) -> None:
    """Long format: one row per (time, node) with columns f0..f{d-1}."""
    d = traj.states.shape[2]
    ref_write_table(path, ["time", "node"] + [f"f{j}" for j in range(d)],
                    ([ref_fmt(t), node] + [ref_fmt(x) for x in state[node]]
                     for t, state in zip(traj.times, traj.states) for node in range(state.shape[0])))


def ref_read_trajectory_csv(path) -> Trajectory:
    """Read the long format; every record lists the first record's nodes once, all finite.

    The header names at least 1 feature column. Times must be finite and rise
    from record to record, checked before the nodes."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows[0] if rows else []) < 3:  # an empty file names no column either
        raise ValueError(f"{path}: expected at least 1 feature column after the node id")
    by_time: dict[float, list[list[str]]] = {}
    for row in rows[1:]:
        t = float(row[0])
        if not math.isfinite(t):
            raise ValueError(f"{path} at t={t:.17g}: time is not finite")
        by_time.setdefault(t, []).append(row[1:])
    if not by_time:
        raise ValueError(f"{path}: no records")
    order = list(by_time)
    for before, t in zip(order, order[1:]):
        if not t > before:
            raise ValueError(f"{path} at t={t:.17g}: times must be strictly increasing")
    n = len(by_time[order[0]])
    states = np.array([
        [[float(x) for x in feats] for feats in ref_by_node(by_time[t], n, f"{path} at t={t:.17g}")]
        for t in order
    ])
    bad = np.argwhere(~np.isfinite(states))
    if bad.size:
        rec, node, _ = bad[0]
        raise ValueError(f"{path} at t={order[rec]:.17g}: node {node} has a non-finite feature")
    return Trajectory(np.asarray(order), states, step_count=max(len(order) - 1, 0))


def ref_write_energy_csv(path, times, energy, spread, cluster_counts) -> None:
    """One row per record: time, Dirichlet energy, spread and cluster count."""
    ref_write_table(path, ["time", "energy", "spread", "cluster_count"],
                    ([ref_fmt(t), ref_fmt(e), ref_fmt(s), int(c)]
                     for t, e, s, c in zip(times, energy, spread, cluster_counts)))


def ref_write_metrics_csv(path, metrics: list[EpochMetrics]) -> None:
    ref_write_table(path, ["epoch", "loss", "val_acc", "test_acc"],
                    ([m.epoch, ref_fmt(m.loss), ref_fmt(m.val_acc), ref_fmt(m.test_acc)] for m in metrics))


# ---------------------------------------------------------- synthetic data


def ref_csbm_generate(cfg, seed: int) -> Dataset:
    """grade.graph.csbm_generate as it was before its blocked pair sampler:
    one uniform per pair of ``np.triu_indices``, all drawn at once, against
    an n(n-1)/2 array of pair probabilities."""
    rng = np.random.default_rng(seed)
    n, d = cfg.n, cfg.feat_dim
    half = n // 2
    labels = np.repeat(np.arange(2), half)

    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], cfg.p_intra, cfg.p_inter)
    keep = rng.random(iu.size) < prob
    graph = _build_graph(n, iu[keep].astype(np.int64), ju[keep].astype(np.int64),
                         np.ones(int(keep.sum())))

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
    return Dataset(graph, features, labels, train, val, test)


# ------------------------------------------------------------- kernel layer
#
# grade.kernels' per-arc kernel functions as they were before the kernel
# layer gave each formula one definition: the same autodiff primitives in the
# same order, with flat-vector softmaxes and their reshapes, so that the
# package's values and tape gradients can be compared with them bit for bit.


def ref_attention_arc_values(X, params, g, theta=None):
    """Per-arc attention column; the projection is ``params`` or the tensor
    ``theta`` (scaled by its row count), never both."""
    from grade import autodiff as ad

    if (params is None) == (theta is None):
        raise ValueError("attention needs projection parameters" if theta is None else
                         "attention takes projection parameters or a theta tensor, not both")
    if theta is None:
        theta, scale = ad.constant(params.theta), params.scale
    else:
        scale = float(theta.data.shape[0])
    if np.any(g.degree == 0):
        empty = int(np.flatnonzero(g.degree == 0)[0])
        raise ValueError(f"attention undefined: node {empty} has no neighbors")
    X = ad.constant(X)
    if theta.data.shape[1] != X.data.shape[1]:
        raise ValueError("projection theta columns must match feature dimension")
    proj = ad.matmul(X, theta, transpose_b=True)
    s = ad.reduce_sum(
        ad.mul(ad.gather_rows(proj, g.arc_src), ad.gather_rows(proj, g.arc_dst)), axis=1)
    scores = ad.reshape(ad.mul(s, 1.0 / scale), (g.arc_src.size,))
    return ad.reshape(ad.segment_softmax(scores, g.arc_offsets), (g.arc_src.size, 1))


def ref_clamped_norm(d, floor: float):
    """Row-wise Euclidean norm of ``d`` clamped below at ``floor``, as a tape node.

    Gradient is zero wherever the clamp is active, matching the flat
    region of the clamped function.
    """
    from grade import autodiff as ad

    d = ad.constant(d)
    nrm = np.sqrt((d.data ** 2).sum(axis=1, keepdims=True))

    def backward(g):
        active = nrm > floor
        safe = np.where(active, nrm, 1.0)
        d.grad += np.where(active, g / safe, 0.0) * d.data

    return ad.Tensor(np.maximum(nrm, floor), parents=(d,), backward=backward)


def ref_kernel_arc_values(spec, X, g):
    """Raw radial kernel column kappa(x_u - x_v)."""
    from grade import autodiff as ad

    X = ad.constant(X)
    diff = ad.sub(ad.gather_rows(X, g.arc_src), ad.gather_rows(X, g.arc_dst))
    if spec.kind == "gaussian":
        sq = ad.reduce_sum(ad.mul(diff, diff), axis=1)
        return ad.exp(ad.mul(sq, -1.0 / (2.0 * spec.bandwidth ** 2)))
    r = ref_clamped_norm(diff, spec.singularity_floor)
    if spec.kind == "log":
        return ad.log(r)
    return ad.power(r, -2.0 - spec.delta)


def ref_normalized_kernel_arc_values(spec, X, g):
    """Row-normalized radial kernel column: a softmax of the log-kernel scores
    for gaussian and power, a division by the row sums for log."""
    from grade import autodiff as ad

    X = ad.constant(X)
    diff = ad.sub(ad.gather_rows(X, g.arc_src), ad.gather_rows(X, g.arc_dst))
    m = g.arc_src.size
    if spec.kind == "gaussian":
        sq = ad.reduce_sum(ad.mul(diff, diff), axis=1)
        scores = ad.mul(sq, -1.0 / (2.0 * spec.bandwidth ** 2))
    elif spec.kind == "power":
        scores = ad.mul(ad.log(ref_clamped_norm(diff, spec.singularity_floor)),
                        -(2.0 + spec.delta))
    else:
        vals = ad.log(ref_clamped_norm(diff, spec.singularity_floor))
        sums = ad.segment_sum(vals, g.arc_src, g.n)
        s = sums.data[:, 0]
        bad = np.flatnonzero((g.degree > 0) & ~(np.isfinite(s) & (s > 0)))
        if bad.size:
            raise ValueError("log kernel rows must have positive finite sums to normalize; "
                             f"node {bad[0]}'s row sums to {s[bad[0]]:.17g}")
        return ad.mul(vals, ad.power(ad.gather_rows(sums, g.arc_src), -1.0))
    soft = ad.segment_softmax(ad.reshape(scores, (m,)), g.arc_offsets)
    return ad.reshape(soft, (m, 1))


def ref_kernel_weights(spec, X, g, attention=None, theta=None):
    """The kernel column of the dynamics: attention with the projection
    ``attention`` or the tensor ``theta``; else the radial kernel,
    row-normalized when ``spec.normalize_rows``."""
    if spec.kind == "attention":
        return ref_attention_arc_values(X, attention, g, theta)
    if spec.normalize_rows:
        return ref_normalized_kernel_arc_values(spec, X, g)
    return ref_kernel_arc_values(spec, X, g)
