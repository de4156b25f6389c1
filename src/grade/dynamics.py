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

from . import autodiff as ad
from .codec import from_fields, scalar, to_fields
from .graph import Graph
from .kernels import (
    KernelSpec,
    KernelMatrix,
    ProjectionParams,
    attention_arc_values,
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

_ACTIVATIONS = {"identity": lambda x: x, "tanh": ad.tanh, "softplus": ad.softplus, "relu": ad.relu}
ACTIVATION_KINDS = tuple(_ACTIVATIONS)
ADJACENCY_MODES = ("static_row_normalized", "attention")


@dataclass(frozen=True)
class ActivationSpec:
    """Monotone nondecreasing elementwise nonlinearity."""

    kind: str = "tanh"

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")

    def to_json(self) -> str:
        return self.kind

    def apply(self, x: ad.Tensor) -> ad.Tensor:
        return _ACTIVATIONS[self.kind](x)


@dataclass(frozen=True)
class DynamicsConfig:
    """Activation, adjacency mode, kernel choice, and term toggles."""

    activation: ActivationSpec = ActivationSpec("tanh")
    adjacency_mode: str = "static_row_normalized"
    kernel: KernelSpec = KernelSpec("gaussian")
    diffusion_on: bool = True
    aggregation_on: bool = True
    attention: ProjectionParams | None = None

    def __post_init__(self):
        if self.adjacency_mode not in ADJACENCY_MODES:
            raise ValueError(f"unknown adjacency mode {self.adjacency_mode!r}")
        if not (self.diffusion_on or self.aggregation_on):
            raise ValueError("at least one of diffusion/aggregation must be enabled")

    def projection_keys(self) -> list[str]:
        """The config keys set to 'attention' that make :func:`rhs_ops` read ``attention``."""
        return [key for key, on in (
            ("adjacency_mode", self.diffusion_on and self.adjacency_mode == "attention"),
            ("kernel.kind", self.aggregation_on and self.kernel.kind == "attention")) if on]

    to_json = to_fields

    @classmethod
    def from_json(cls, obj: dict, path: str = "") -> "DynamicsConfig":
        return from_fields(
            cls, obj, path,
            activation=lambda value, where: ActivationSpec(scalar(value, str, where)),
            attention=ProjectionParams.from_json,
            kernel=KernelSpec.from_json,
        )


def attention_adjacency(X: np.ndarray, p: ProjectionParams, g: Graph) -> "scipy.sparse.csr_array":
    """Row-stochastic attention adjacency on the graph's support.

    Entry (u, v) for v in N(u) is the softmax over N(u) of the projected
    dot-product score; rows sum to one.
    """
    X = np.asarray(X, dtype=np.float64)
    return g.arc_matrix(attention_arc_values(X, p, g).data.reshape(-1))


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


def rhs_ops(cfg: DynamicsConfig, g: Graph, X: ad.Tensor) -> ad.Tensor:
    """Tensor-level RHS; the attention projection is ``cfg.attention``.

    Used directly by the training unroll, with its theta leaf as that
    projection, so gradients flow through the attention softmax and the
    kernel. Plain evaluation goes through :func:`rhs`.
    """
    total = None
    if cfg.diffusion_on:
        sX = cfg.activation.apply(X)
        if cfg.adjacency_mode == "attention":
            alpha = attention_arc_values(X, cfg.attention, g)
        else:
            alpha = g.static_arc_coeff
        total = ad.sub(ad.arc_spmm(alpha, sX, g), sX)

    if cfg.aggregation_on:
        kvals = kernel_weights(cfg.kernel, X, g, cfg.attention)
        aggregation = _aggregation_from_kernel(g, kvals, X)
        total = aggregation if total is None else ad.add(total, aggregation)
    return total


def rhs(cfg: DynamicsConfig, g: Graph, X: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Autonomous RHS dX/dt at state ``X`` (``t`` kept for solver API symmetry)."""
    X = np.asarray(X, dtype=np.float64)
    return rhs_ops(cfg, g, ad.constant(X)).data
