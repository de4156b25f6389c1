"""Right-hand side of the graph aggregation-diffusion dynamics.

Two terms, each toggleable:

* diffusion: row u of (A - I) sigma(X), with A either the static
  row-normalized adjacency or a state-dependent attention adjacency;
* aggregation: row u of sum_{v in N(u)} w_uv * x_u ⊙ [(K X)_v - (K X)_u],
  where K is the interaction kernel matrix evaluated at the current state
  and (K X)_v = sum_{k in N(v)} kappa_vk x_k.

The node form above is canonical. Everything is expressed through the
autodiff primitives so the same code path serves plain evaluation and
gradient-carrying training unrolls; A and K are recomputed at every
evaluation when they depend on the state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .graph import Graph
from .kernels import (
    KernelSpec,
    KernelMatrix,
    ProjectionParams,
    attention_arc_values,
    attention_projection,
    kernel_weights,
)

__all__ = [
    "ActivationSpec",
    "ProjectionParams",
    "DynamicsConfig",
    "attention_adjacency",
    "diffusion_term",
    "aggregation_term",
    "rhs",
    "rhs_ops",
]

ACTIVATION_KINDS = ("identity", "tanh", "softplus", "relu")
ADJACENCY_MODES = ("static_row_normalized", "attention")


@dataclass(frozen=True)
class ActivationSpec:
    """Monotone nondecreasing elementwise nonlinearity."""

    kind: str = "tanh"

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")

    def apply(self, x: ad.Tensor) -> ad.Tensor:
        if self.kind == "identity":
            return x
        if self.kind == "tanh":
            return ad.tanh(x)
        if self.kind == "softplus":
            return ad.softplus(x)
        return ad.relu(x)


@dataclass(frozen=True)
class DynamicsConfig:
    """Activation, adjacency mode, kernel choice, and term toggles."""

    activation: ActivationSpec = ActivationSpec("tanh")
    adjacency_mode: str = "static_row_normalized"
    attention: ProjectionParams | None = None
    kernel: KernelSpec = KernelSpec("gaussian")
    diffusion_on: bool = True
    aggregation_on: bool = True

    def __post_init__(self):
        if self.adjacency_mode not in ADJACENCY_MODES:
            raise ValueError(f"unknown adjacency mode {self.adjacency_mode!r}")
        if not (self.diffusion_on or self.aggregation_on):
            raise ValueError("at least one of diffusion/aggregation must be enabled")

    def to_json(self) -> dict:
        obj = {
            "activation": self.activation.kind,
            "adjacency_mode": self.adjacency_mode,
            "kernel": self.kernel.to_json(),
            "diffusion_on": self.diffusion_on,
            "aggregation_on": self.aggregation_on,
        }
        if self.attention is not None:
            obj["attention"] = self.attention.to_json()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DynamicsConfig":
        attention = None
        if obj.get("attention") is not None:
            attention = ProjectionParams.from_json(obj["attention"])
        return cls(
            activation=ActivationSpec(obj.get("activation", "tanh")),
            adjacency_mode=obj.get("adjacency_mode", "static_row_normalized"),
            attention=attention,
            kernel=KernelSpec.from_json(obj["kernel"]) if "kernel" in obj else KernelSpec("gaussian"),
            diffusion_on=bool(obj.get("diffusion_on", True)),
            aggregation_on=bool(obj.get("aggregation_on", True)),
        )


def attention_adjacency(X: np.ndarray, p: ProjectionParams, g: Graph) -> sp.csr_array:
    """Row-stochastic attention adjacency on the graph's support.

    Entry (u, v) for v in N(u) is the softmax over N(u) of the projected
    dot-product score; rows sum to one.
    """
    X = np.asarray(X, dtype=np.float64)
    vals = attention_arc_values(X, *attention_projection(p), g).data.reshape(-1)
    return sp.csr_array((vals, g.arc_dst, g.arc_offsets), shape=(g.n, g.n))


def diffusion_term(cfg: DynamicsConfig, A, X: np.ndarray) -> np.ndarray:
    """(A - I) sigma(X) for a given row-stochastic A on the graph support."""
    X = np.asarray(X, dtype=np.float64)
    if A.shape != (X.shape[0], X.shape[0]):
        raise ValueError("adjacency shape does not match the state")
    sX = cfg.activation.apply(ad.constant(X)).data
    return A @ sX - sX


def aggregation_term(cfg: DynamicsConfig, g: Graph, K: KernelMatrix, X: np.ndarray) -> np.ndarray:
    """Kernel-driven aggregation term in node form.

    Row u is x_u ⊙ sum over neighbors v of w_uv [(K X)_v - (K X)_u], the
    graph divergence of x ⊙ grad(kappa * x).
    """
    X = np.asarray(X, dtype=np.float64)
    same_support = K.graph is g or (
        np.array_equal(K.graph.arc_offsets, g.arc_offsets)
        and np.array_equal(K.graph.arc_dst, g.arc_dst)
    )
    if not same_support:
        raise ValueError("kernel matrix support does not match the graph")
    if X.shape[0] != g.n:
        raise ValueError("state row count must equal node count")
    return _aggregation_from_kernel(g, ad.constant(K.values), ad.constant(X)).data


def _aggregation_from_kernel(g: Graph, kvals: ad.Tensor, X: ad.Tensor) -> ad.Tensor:
    """x_u ⊙ [ (W · KX)_u - wdeg_u · (KX)_u ] with KX_v = sum_k kappa_vk x_k."""
    kx = ad.arc_spmm(kvals, X, g)
    inflow = ad.arc_spmm(g.arc_weight, kx, g)
    out = ad.sub(inflow, ad.mul(ad.constant(g.weighted_degree.reshape(-1, 1)), kx))
    return ad.mul(X, out)


def rhs_ops(
    cfg: DynamicsConfig,
    g: Graph,
    X: ad.Tensor,
    theta: ad.Tensor | None = None,
) -> ad.Tensor:
    """Tensor-level RHS; ``theta`` overrides the config's projection matrix.

    Used directly by the training unroll so gradients flow through the
    attention softmax and the kernel. Plain evaluation goes through
    :func:`rhs`.
    """
    parts: list[ad.Tensor] = []

    if cfg.diffusion_on:
        sX = cfg.activation.apply(X)
        if cfg.adjacency_mode == "attention":
            alpha = attention_arc_values(X, *attention_projection(cfg.attention, theta), g)
        else:
            alpha = g.static_arc_coeff
        parts.append(ad.sub(ad.arc_spmm(alpha, sX, g), sX))

    if cfg.aggregation_on:
        kvals = kernel_weights(cfg.kernel, X, g, cfg.attention, theta)
        parts.append(_aggregation_from_kernel(g, kvals, X))

    total = parts[0]
    for extra in parts[1:]:
        total = ad.add(total, extra)
    return total


def rhs(cfg: DynamicsConfig, g: Graph, X: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Autonomous RHS dX/dt at state ``X`` (``t`` kept for solver API symmetry)."""
    X = np.asarray(X, dtype=np.float64)
    return rhs_ops(cfg, g, ad.constant(X)).data
