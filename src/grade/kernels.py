"""Interaction kernels and their edge-supported matrix evaluation.

Radial kernels (log, power, gaussian) act on the Euclidean distance between
endpoint features; the attention kernel is a per-neighborhood softmax of
projected dot-product scores and is defined only at matrix level. Singular
kernels are clamped below ``singularity_floor`` so finite arithmetic never
sees the blow-up at coincident features.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .codec import from_fields, matrix, to_fields
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
CLAMPED_KINDS = ("log", "power")  # the kernels that clamp r below singularity_floor


@dataclass(frozen=True)
class ProjectionParams:
    """Projection for attention scores: (theta x_u)^T (theta x_v) / scale.

    ``theta`` is a matrix, or the training tape's parameter tensor, through
    which the unroll's gradients reach it.
    """

    theta: np.ndarray | ad.Tensor
    scale: float = 0.0  # 0 means "use the projected dimension"

    def __post_init__(self):
        if not isinstance(self.theta, ad.Tensor):
            object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))
        shape = ad.constant(self.theta).data.shape
        if len(shape) != 2:
            raise ValueError("theta must be a 2-d matrix")
        scale = float(self.scale) if self.scale else float(shape[0])
        if not 0 < scale < np.inf:
            raise ValueError("scale must be > 0 and finite")
        object.__setattr__(self, "scale", scale)

    to_json = to_fields

    @classmethod
    def from_json(cls, obj: dict, path: str = "attention") -> "ProjectionParams":
        return from_fields(cls, obj, path, theta=matrix)


@dataclass(frozen=True)
class KernelSpec:
    """Choice of interaction kernel plus its numeric knobs.

    Only the fields of the chosen kind are consulted: ``delta`` for power
    (exponent -2-delta), ``bandwidth`` for gaussian. The attention projection
    is ``DynamicsConfig.attention`` (in training, ``ModelParams.theta``).
    """

    kind: str
    delta: float = 0.0
    bandwidth: float = 1.0
    normalize_rows: bool = False
    singularity_floor: float = 1e-6

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not 0 <= self.delta < np.inf:
            raise ValueError("delta must be >= 0 and finite")
        if not 0 < self.bandwidth < np.inf:
            raise ValueError("bandwidth must be > 0 and finite")
        if not 0 < self.singularity_floor < np.inf:
            raise ValueError("singularity_floor must be > 0 and finite")

    to_json = to_fields
    from_json = classmethod(from_fields)


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Sparse kernel evaluation supported on the arcs of a graph."""

    graph: Graph
    values: np.ndarray  # aligned with graph.arc_src / arc_dst

    def __post_init__(self):
        if self.values.shape != self.graph.arc_src.shape:
            raise ValueError("values must align with the graph's arc table")

    def toarray(self) -> np.ndarray:
        return self.graph.arc_matrix(self.values).toarray()

    def row_sums(self) -> np.ndarray:
        return self.graph.arc_sum(self.values)


def kernel_scalar(spec: KernelSpec, z) -> float:
    """Evaluate a radial kernel on a single feature difference vector."""
    if spec.kind == "attention":
        raise ValueError("attention kernel is defined at matrix level only")
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    if not np.all(np.isfinite(z)):
        raise ValueError("kernel input must be finite")
    return float(_kernel(spec, ad.constant((z * z).sum(axis=1, keepdims=True))).data[0, 0])


def _log_kernel(spec: KernelSpec, sq: ad.Tensor) -> ad.Tensor:
    """log kappa of a positive radial kernel on a column of squared distances r^2:
    -r^2 / 2b^2 (gaussian) or -(2 + delta) log r (power)."""
    if spec.kind in CLAMPED_KINDS:
        return ad.mul(ad.log(ad.clamped_sqrt(sq, spec.singularity_floor)), -(2.0 + spec.delta))
    return ad.mul(sq, -1.0 / (2.0 * spec.bandwidth ** 2))


def _kernel(spec: KernelSpec, sq: ad.Tensor) -> ad.Tensor:
    """kappa of a radial kernel on a column of squared distances r^2:
    exp of the gaussian score, log r, or r^(-2-delta), with r clamped below."""
    if spec.kind not in CLAMPED_KINDS:
        return ad.exp(_log_kernel(spec, sq))
    r = ad.clamped_sqrt(sq, spec.singularity_floor)
    if spec.kind == "log":
        return ad.log(r)
    return ad.power(r, -2.0 - spec.delta)


def _neighbourhood_softmax(scores: ad.Tensor, g: Graph, kernel: str) -> ad.Tensor:
    """Per-arc ``scores`` softmaxed over each source neighbourhood; ``kernel`` names the error."""
    if np.any(g.degree == 0):
        empty = int(np.flatnonzero(g.degree == 0)[0])
        raise ValueError(f"{kernel} undefined: node {empty} has no neighbors")
    return ad.segment_softmax(scores, g.arc_offsets)


def _node_rows(X, g: Graph) -> ad.Tensor:
    X = ad.constant(X)
    if X.data.shape[0] != g.n:
        raise ValueError("feature row count must equal node count")
    return X


def attention_arc_values(X, params: ProjectionParams | None, g: Graph) -> ad.Tensor:
    """Per-arc attention weights, as a column: softmax over each source
    neighborhood of the scores (theta x_u)^T (theta x_v) / scale."""
    if params is None:
        raise ValueError("attention needs projection parameters")
    theta = ad.constant(params.theta)
    X = _node_rows(X, g)
    if theta.data.shape[1] != X.data.shape[1]:
        raise ValueError("projection theta columns must match feature dimension")
    proj = ad.matmul(X, theta, transpose_b=True)
    s = ad.reduce_sum(
        ad.mul(ad.gather_rows(proj, g.arc_src), ad.gather_rows(proj, g.arc_dst)),
        axis=1,
    )
    return _neighbourhood_softmax(ad.mul(s, 1.0 / params.scale), g, "attention")


def _arc_sq_distances(spec: KernelSpec, X, g: Graph) -> ad.Tensor:
    """|x_u - x_v|^2 on every arc, for a radial kernel and one feature row per node."""
    X = _node_rows(X, g)
    if spec.kind == "attention":
        raise ValueError("attention kernel is not radial; use kernel_weights")
    return ad.arc_sq_distances(X, g)


def kernel_arc_values(spec: KernelSpec, X, g: Graph) -> ad.Tensor:
    """Differentiable per-arc radial kernel values kappa(x_u - x_v), as a column."""
    return _kernel(spec, _arc_sq_distances(spec, X, g))


def normalized_kernel_arc_values(spec: KernelSpec, X, g: Graph) -> ad.Tensor:
    """Row-normalized radial kernel values with stable gradients.

    Gaussian and power kernels are positive exponential families, so their
    normalized rows equal a per-neighborhood softmax of the log-kernel
    scores; computing them that way keeps values and gradients finite even
    when raw row sums underflow. The log kernel has no such form and falls
    back to explicit division, rejecting nonpositive row sums.
    """
    sq = _arc_sq_distances(spec, X, g)
    if spec.kind != "log":
        return _neighbourhood_softmax(_log_kernel(spec, sq), g,
                                      f"row-normalized {spec.kind} kernel")
    vals = _kernel(spec, sq)
    sums = ad.arc_spmm(vals, np.ones((g.n, 1)), g)  # K 1
    s = sums.data[:, 0]
    bad = np.flatnonzero((g.degree > 0) & ~(np.isfinite(s) & (s > 0)))
    if bad.size:
        raise ValueError("log kernel rows must have positive finite sums to normalize; "
                         f"node {bad[0]}'s row sums to {s[bad[0]]:.17g}")
    return ad.mul(vals, ad.power(ad.gather_rows(sums, g.arc_src), -1.0))


def kernel_weights(spec: KernelSpec, X, g: Graph,
                   attention: ProjectionParams | None = None) -> ad.Tensor:
    """The per-arc kernel column of the dynamics, and of :func:`kernel_matrix`.

    Attention is :func:`attention_arc_values` with the projection
    ``attention``; a radial kernel with ``normalize_rows`` is the
    per-neighborhood softmax of :func:`normalized_kernel_arc_values`;
    otherwise it is the raw radial kernel.
    """
    if spec.kind == "attention":
        return attention_arc_values(X, attention, g)
    if spec.normalize_rows:
        return normalized_kernel_arc_values(spec, X, g)
    return kernel_arc_values(spec, X, g)


def kernel_matrix(spec: KernelSpec, X: np.ndarray, g: Graph,
                  attention: ProjectionParams | None = None) -> KernelMatrix:
    """Evaluate the kernel on every edge of ``g`` at state ``X``.

    The values are exactly those the dynamics use (:func:`kernel_weights`).
    Radial kinds give a symmetric matrix; the attention kind and a
    ``normalize_rows`` kernel are row-stochastic and generally asymmetric.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("state matrix must be finite")
    return KernelMatrix(g, kernel_weights(spec, X, g, attention).data.reshape(-1))


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
