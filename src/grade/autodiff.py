"""Minimal reverse-mode automatic differentiation over numpy arrays.

Implements exactly the operations the dynamics and the classifier need:
dense affine maps, elementwise nonlinearities, row gather/scatter and the
CSR neighbourhood sum :func:`arc_spmm` for edge message passing,
per-neighborhood softmax, and per-arc squared distances with clamped
square roots for interaction kernels. Tensors form a DAG over the nodes
that require a gradient; a node computed only from constants keeps no
parents, so plain evaluation records nothing. ``backward`` walks the DAG
in reverse topological order and accumulates gradients only into nodes
that require them, so callers can read ``.grad`` off leaf parameters (and
off intermediate states when chasing a non-finite gradient); constants
keep ``.grad`` None.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "constant",
    "parameter",
    "add",
    "sub",
    "mul",
    "matmul",
    "power",
    "exp",
    "log",
    "tanh",
    "softplus",
    "relu",
    "reduce_sum",
    "mean",
    "reshape",
    "gather_rows",
    "arc_spmm",
    "arc_sq_distances",
    "segment_sum",
    "segment_softmax",
    "clamped_sqrt",
    "take_per_row",
]


class Tensor:
    """Array node in the computation graph.

    A node that requires no gradient drops its parents and its backward
    closure, so the tape holds only what gradients flow through.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate gradients of this (scalar or array) node into the DAG.

        Seeds with ones, so for a scalar loss the leaf ``.grad`` fields hold
        the exact gradient of the recorded computation. Only nodes that
        require a gradient get a ``.grad``; constants keep None.
        """
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # Arithmetic sugar so solver step formulas work on Tensors directly.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)


def constant(data) -> Tensor:
    return data if isinstance(data, Tensor) else Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum ``rows`` into ``n`` rows keyed by ``idx``, adding in input order.

    One ``np.bincount`` over flattened (row, column) keys: each output entry
    starts at zero and adds its inputs in the order they appear.
    """
    width = int(np.prod(rows.shape[1:], dtype=np.intp))
    keys = (idx[:, None] * width + np.arange(width)).reshape(-1)
    sums = np.bincount(keys, weights=rows.reshape(-1), minlength=n * width)
    return sums.reshape((n,) + rows.shape[1:])


def add(a, b) -> Tensor:
    a, b = constant(a), constant(b)

    def backward(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.data.shape)

    return Tensor(a.data + b.data, parents=(a, b), backward=backward)


def sub(a, b) -> Tensor:
    a, b = constant(a), constant(b)

    def backward(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad -= _unbroadcast(g, b.data.shape)

    return Tensor(a.data - b.data, parents=(a, b), backward=backward)


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)

    def backward(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return Tensor(a.data * b.data, parents=(a, b), backward=backward)


def matmul(a, b, transpose_b: bool = False) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = a.data @ (b.data.T if transpose_b else b.data)

    def backward(g):
        if transpose_b:
            if a.requires_grad:
                a.grad += g @ b.data
            if b.requires_grad:
                b.grad += g.T @ a.data
        else:
            if a.requires_grad:
                a.grad += g @ b.data.T
            if b.requires_grad:
                b.grad += a.data.T @ g

    return Tensor(out_data, parents=(a, b), backward=backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant exponent."""
    a = constant(a)

    def backward(g):
        a.grad += g * exponent * a.data ** (exponent - 1.0)

    return Tensor(a.data ** exponent, parents=(a,), backward=backward)


EXP_ZERO = -746.0  # np.exp is exactly 0 at and below this, where it costs many times more


def exp(a) -> Tensor:
    """Elementwise exp; np.exp is called only where the result is not exactly 0
    (the kernels' arguments mostly lie far below EXP_ZERO). NaN stays NaN."""
    a = constant(a)
    live = np.flatnonzero(~(a.data <= EXP_ZERO))
    y = np.zeros(a.data.shape)
    np.put(y, live, np.exp(np.take(a.data, live)))

    def backward(g):
        a.grad += g * y

    return Tensor(y, parents=(a,), backward=backward)


def log(a) -> Tensor:
    a = constant(a)

    def backward(g):
        a.grad += g / a.data

    return Tensor(np.log(a.data), parents=(a,), backward=backward)


def tanh(a) -> Tensor:
    a = constant(a)
    y = np.tanh(a.data)

    def backward(g):
        a.grad += g * (1.0 - y ** 2)

    return Tensor(y, parents=(a,), backward=backward)


def softplus(a) -> Tensor:
    a = constant(a)

    def backward(g):
        a.grad += g / (1.0 + np.exp(-a.data))

    return Tensor(np.logaddexp(0.0, a.data), parents=(a,), backward=backward)


def relu(a) -> Tensor:
    a = constant(a)

    def backward(g):
        a.grad += g * (a.data > 0.0)

    return Tensor(np.maximum(a.data, 0.0), parents=(a,), backward=backward)


def reduce_sum(a, axis: int | None = None) -> Tensor:
    """Sum to a scalar (axis=None) or along axis 1 with keepdims."""
    a = constant(a)
    if axis is None:
        out_data = a.data.sum()
    elif axis == 1:
        out_data = a.data.sum(axis=1, keepdims=True)
    else:
        raise ValueError(f"unsupported axis {axis}")

    def backward(g):
        a.grad += np.broadcast_to(g, a.data.shape)

    return Tensor(out_data, parents=(a,), backward=backward)


def mean(a) -> Tensor:
    a = constant(a)
    return mul(reduce_sum(a), 1.0 / a.data.size)


def reshape(a, shape: tuple) -> Tensor:
    a = constant(a)

    def backward(g):
        a.grad += g.reshape(a.data.shape)

    return Tensor(a.data.reshape(shape), parents=(a,), backward=backward)


def gather_rows(a, idx) -> Tensor:
    """Select rows ``a[idx]``; backward scatter-adds into the source rows."""
    a = constant(a)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        a.grad += _scatter_rows(idx, g, a.data.shape[0])

    return Tensor(np.take(a.data, idx, axis=0), parents=(a,), backward=backward)


def segment_sum(a, idx, n: int) -> Tensor:
    """Scatter-add rows of ``a`` into ``n`` output rows keyed by ``idx``.

    ``idx`` must be sorted ascending so per-row accumulation order is the
    neighbor order, keeping results bit-reproducible.
    """
    a = constant(a)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        a.grad += g[idx]

    return Tensor(_scatter_rows(idx, a.data, n), parents=(a,), backward=backward)


def arc_spmm(vals, X, g) -> Tensor:
    """Neighbourhood sum over the arcs of graph ``g``: row u is
    sum over arcs (u, v) of vals_uv * x_v, added in arc order.

    ``vals`` holds one value per arc (flat or as a column). The forward is
    one product with the graph's cached CSR matrix; the gradient of ``X`` is
    the same product with the values of the reverse arcs (the transpose,
    since the arc table is symmetric), and the gradient of ``vals`` is the
    row-wise dot of the upstream gradient at u with x_v.
    """
    vals, X = constant(vals), constant(X)
    w = vals.data.reshape(-1)

    def backward(grad):
        if X.requires_grad:
            X.grad += g.arc_product(w[g.reverse_arc], grad)
        if vals.requires_grad:
            dots = np.einsum("ij,ij->i", grad.take(g.arc_src, axis=0),
                             X.data.take(g.arc_dst, axis=0))
            vals.grad += dots.reshape(vals.data.shape)

    return Tensor(g.arc_product(w, X.data), parents=(vals, X), backward=backward)


def arc_sq_distances(X, g) -> Tensor:
    """Squared distance ||x_u - x_v||^2 on every arc of graph ``g``, as a column.

    Each entry equals ``np.sum((x_u - x_v) ** 2)`` bit for bit
    (:meth:`Graph.arc_sq_distances`). The gradient adds 2 * grad * (x_u - x_v)
    to row u over the arcs leaving u, then subtracts it from row v through the
    reverse arcs: the bits of gathering both endpoints, subtracting, squaring
    and summing each row on the tape.
    """
    X = constant(X)
    sq, diff = g.arc_sq_distances(X.data)

    def backward(grad):
        w = np.multiply(grad, diff.T, order="C")
        v = np.add(w, w, out=w)
        X.grad += g.arc_sum(v)
        X.grad -= g.arc_sum(v.take(g.reverse_arc, axis=0))  # = adding the negated rows' sum

    return Tensor(sq[:, None], parents=(X,), backward=backward)


def segment_softmax(scores, offsets) -> Tensor:
    """Softmax of per-arc scores over contiguous segments.

    ``scores`` is a column (one row per arc) or a flat vector, and the
    result has its shape. ``offsets`` is the (n+1,) CSR pointer; every
    segment must be nonempty. Scores are max-shifted per segment before
    exponentiation.
    """
    scores = constant(scores)
    shape = scores.data.shape
    if len(shape) not in (1, 2) or shape[1:] not in ((), (1,)):
        raise ValueError("segment_softmax expects one score per row: a column or a flat vector")
    s = scores.data.reshape(-1)
    starts = offsets[:-1]
    counts = np.diff(offsets)
    if np.any(counts == 0):
        raise ValueError("segment_softmax requires nonempty segments")
    seg = np.repeat(np.arange(len(starts)), counts)
    shifted = s - np.maximum.reduceat(s, starts)[seg]
    e = np.exp(shifted)
    sums = np.add.reduceat(e, starts)
    p = e / sums[seg]

    def backward(g):
        g = g.reshape(-1)
        dot = np.add.reduceat(p * g, starts)
        scores.grad += (p * (g - dot[seg])).reshape(shape)

    return Tensor(p.reshape(shape), parents=(scores,), backward=backward)


def clamped_sqrt(sq, floor: float) -> Tensor:
    """Elementwise square root of ``sq`` clamped below at ``floor``: the
    clamped Euclidean norm of a row whose squared norm is ``sq``, with zero
    gradient wherever the clamp is active."""
    sq = constant(sq)
    r = np.sqrt(sq.data)

    def backward(g):
        active = r > floor
        safe = np.where(active, r, 1.0)
        sq.grad += np.where(active, g / safe, 0.0) * 0.5

    return Tensor(np.maximum(r, floor), parents=(sq,), backward=backward)


def take_per_row(a, cols) -> Tensor:
    """Pick one entry per row, ``a[i, cols[i]]``, returned as a column."""
    a = constant(a)
    cols = np.asarray(cols, dtype=np.intp)
    rows = np.arange(a.data.shape[0])

    def backward(g):
        # (row, col) pairs are unique, so a plain fancy-index add is exact
        a.grad[rows, cols] += g[:, 0]

    return Tensor(a.data[rows, cols][:, None], parents=(a,), backward=backward)
