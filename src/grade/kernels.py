"""Interaction kernels and their edge-supported matrix evaluation.

Radial kernels (log, power, gaussian) act on the Euclidean distance between
endpoint features; the attention kernel is a per-neighborhood softmax of
projected dot-product scores and is defined only at matrix level. Singular
kernels are clamped below ``singularity_floor`` so finite arithmetic never
sees the blow-up at coincident features.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .graph import Graph

__all__ = [
    "KernelSpec",
    "KernelMatrix",
    "ProjectionParams",
    "kernel_scalar",
    "kernel_matrix",
    "row_normalize",
]

KERNEL_KINDS = ("log", "power", "gaussian", "attention")


@dataclass(frozen=True)
class ProjectionParams:
    """Learnable projection for attention scores: (theta x_u)^T (theta x_v) / scale."""

    theta: np.ndarray
    scale: float = 0.0  # 0 means "use the projected dimension"

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 2:
            raise ValueError("theta must be a 2-d matrix")
        object.__setattr__(self, "theta", theta)
        scale = float(self.scale) if self.scale else float(theta.shape[0])
        if scale <= 0:
            raise ValueError("scale must be > 0")
        object.__setattr__(self, "scale", scale)

    def to_json(self) -> dict:
        return {"theta": self.theta.tolist(), "scale": self.scale}

    @classmethod
    def from_json(cls, obj: dict) -> "ProjectionParams":
        return cls(np.array(obj["theta"], dtype=np.float64), float(obj["scale"]))


@dataclass(frozen=True)
class KernelSpec:
    """Choice of interaction kernel plus its numeric knobs.

    Only the fields of the chosen kind are consulted: ``delta`` for power
    (exponent -2-delta), ``bandwidth`` for gaussian, ``theta`` for attention.
    """

    kind: str
    delta: float = 0.0
    bandwidth: float = 1.0
    theta: ProjectionParams | None = None
    normalize_rows: bool = False
    singularity_floor: float = 1e-6

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.singularity_floor <= 0:
            raise ValueError("singularity_floor must be > 0")

    def to_json(self) -> dict:
        # theta travels with model parameters, not with the kernel config
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "theta"}

    @classmethod
    def from_json(cls, obj: dict) -> "KernelSpec":
        knobs = [f for f in fields(cls) if f.name not in ("kind", "theta") and f.name in obj]
        return cls(obj["kind"], **{f.name: type(f.default)(obj[f.name]) for f in knobs})


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Sparse kernel evaluation supported on the arcs of a graph."""

    graph: Graph
    values: np.ndarray  # aligned with graph.arc_src / arc_dst

    def __post_init__(self):
        if self.values.shape != self.graph.arc_src.shape:
            raise ValueError("values must align with the graph's arc table")

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.graph.n, self.graph.n))
        dense[self.graph.arc_src, self.graph.arc_dst] = self.values
        return dense

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.graph.arc_src, weights=self.values, minlength=self.graph.n)


def kernel_scalar(spec: KernelSpec, z) -> float:
    """Evaluate a radial kernel on a single feature difference vector."""
    if spec.kind == "attention":
        raise ValueError("attention kernel is defined at matrix level only")
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("kernel input must be finite")
    r = float(np.linalg.norm(z))
    if spec.kind == "gaussian":
        return float(np.exp(-r * r / (2.0 * spec.bandwidth ** 2)))
    r = max(r, spec.singularity_floor)
    if spec.kind == "log":
        return float(np.log(r))
    return float(r ** (-2.0 - spec.delta))


def attention_projection(params: ProjectionParams | None, theta: ad.Tensor | None = None):
    """Projection matrix and score scale of one attention evaluation.

    ``theta``, when given, replaces the matrix of ``params`` (the training
    unroll passes its parameter tensor so gradients reach it); without
    ``params`` the scale is then the projected dimension.
    """
    if theta is not None:
        return theta, params.scale if params is not None else float(theta.data.shape[0])
    if params is None:
        raise ValueError("attention needs projection parameters")
    return ad.constant(params.theta), params.scale


def _node_rows(X, g: Graph) -> ad.Tensor:
    X = ad.constant(X)
    if X.data.shape[0] != g.n:
        raise ValueError("feature row count must equal node count")
    return X


def _attention_scores(X: ad.Tensor, theta: ad.Tensor, scale: float, g: Graph) -> ad.Tensor:
    """Flat per-arc scores (theta x_u)^T (theta x_v) / scale."""
    proj = ad.matmul(X, theta, transpose_b=True)
    s = ad.reduce_sum(
        ad.mul(ad.gather_rows(proj, g.arc_src), ad.gather_rows(proj, g.arc_dst)),
        axis=1,
    )
    return ad.reshape(ad.mul(s, 1.0 / scale), (g.arc_src.size,))


def attention_arc_values(X, theta: ad.Tensor, scale: float, g: Graph) -> ad.Tensor:
    """Per-arc attention weights, as a column: softmax over each source neighborhood."""
    if np.any(g.degree == 0):
        empty = int(np.flatnonzero(g.degree == 0)[0])
        raise ValueError(f"attention undefined: node {empty} has no neighbors")
    X = _node_rows(X, g)
    if theta.data.shape[1] != X.data.shape[1]:
        raise ValueError("projection theta columns must match feature dimension")
    scores = _attention_scores(X, theta, scale, g)
    return ad.reshape(ad.segment_softmax(scores, g.arc_offsets), (g.arc_src.size, 1))


def _arc_differences(spec: KernelSpec, X, g: Graph) -> ad.Tensor:
    """x_u - x_v on every arc, for a radial kernel and one feature row per node."""
    X = _node_rows(X, g)
    if spec.kind == "attention":
        raise ValueError("attention kernel is not radial; use kernel_weights")
    return ad.sub(ad.gather_rows(X, g.arc_src), ad.gather_rows(X, g.arc_dst))


def kernel_arc_values(spec: KernelSpec, X, g: Graph) -> ad.Tensor:
    """Differentiable per-arc radial kernel values kappa(x_u - x_v), as a column."""
    diff = _arc_differences(spec, X, g)
    if spec.kind == "gaussian":
        sq = ad.reduce_sum(ad.mul(diff, diff), axis=1)
        return ad.exp(ad.mul(sq, -1.0 / (2.0 * spec.bandwidth ** 2)))
    r = ad.clamped_norm(diff, spec.singularity_floor)
    if spec.kind == "log":
        return ad.log(r)
    return ad.power(r, -2.0 - spec.delta)


def normalized_kernel_arc_values(spec: KernelSpec, X, g: Graph) -> ad.Tensor:
    """Row-normalized radial kernel values with stable gradients.

    Gaussian and power kernels are positive exponential families, so their
    normalized rows equal a per-neighborhood softmax of the log-kernel
    scores; computing them that way keeps values and gradients finite even
    when raw row sums underflow. The log kernel has no such form and falls
    back to explicit division, rejecting nonpositive row sums.
    """
    diff = _arc_differences(spec, X, g)
    m = g.arc_src.size
    if spec.kind == "gaussian":
        sq = ad.reduce_sum(ad.mul(diff, diff), axis=1)
        scores = ad.mul(sq, -1.0 / (2.0 * spec.bandwidth ** 2))
    elif spec.kind == "power":
        scores = ad.mul(ad.log(ad.clamped_norm(diff, spec.singularity_floor)),
                        -(2.0 + spec.delta))
    else:
        vals = ad.log(ad.clamped_norm(diff, spec.singularity_floor))
        sums = ad.segment_sum(vals, g.arc_src, g.n)
        if not np.all(np.isfinite(sums.data)) or np.any(sums.data[g.degree > 0] <= 0):
            raise ValueError("log kernel rows must have positive finite sums to normalize")
        return ad.mul(vals, ad.power(ad.gather_rows(sums, g.arc_src), -1.0))
    soft = ad.segment_softmax(ad.reshape(scores, (m,)), g.arc_offsets)
    return ad.reshape(soft, (m, 1))


def kernel_weights(
    spec: KernelSpec,
    X,
    g: Graph,
    attention: ProjectionParams | None = None,
    theta: ad.Tensor | None = None,
) -> ad.Tensor:
    """The per-arc kernel column of the dynamics, and of :func:`kernel_matrix`.

    Attention is the projected softmax, with its projection taken from
    ``spec.theta``, else from ``attention``, and its matrix overridden by
    ``theta``; a radial kernel with ``normalize_rows`` is the
    per-neighborhood softmax of :func:`normalized_kernel_arc_values`;
    otherwise it is the raw radial kernel.
    """
    if spec.kind == "attention":
        params = spec.theta if spec.theta is not None else attention
        return attention_arc_values(X, *attention_projection(params, theta), g)
    if spec.normalize_rows:
        return normalized_kernel_arc_values(spec, X, g)
    return kernel_arc_values(spec, X, g)


def kernel_matrix(spec: KernelSpec, X: np.ndarray, g: Graph) -> KernelMatrix:
    """Evaluate the kernel on every edge of ``g`` at state ``X``.

    The values are exactly those the dynamics use (:func:`kernel_weights`).
    Radial kinds give a symmetric matrix; the attention kind and a
    ``normalize_rows`` kernel are row-stochastic and generally asymmetric.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("state matrix must be finite")
    return KernelMatrix(g, kernel_weights(spec, X, g).data.reshape(-1))


def row_normalize(k: KernelMatrix) -> KernelMatrix:
    """Scale rows with nonzero sum to sum 1; all-zero rows stay zero.

    A negative or non-finite row sum signals a kernel/feature pathology
    and is rejected rather than normalized through.
    """
    sums = k.row_sums()
    if not np.all(np.isfinite(sums)):
        raise ValueError("non-finite kernel row sum")
    if np.any(sums < 0):
        raise ValueError("negative kernel row sum; cannot normalize")
    scale = np.where(sums > 0, sums, 1.0)
    values = k.values / scale[k.graph.arc_src]
    return KernelMatrix(k.graph, values)
