"""Graph aggregation-diffusion dynamics: nonlinear diffusion plus
kernel-driven aggregation on graphs, with integrators, over-smoothing
diagnostics, and a small classifier trained through the unrolled dynamics.

Nothing is imported until a name is used (PEP 562): ``grade.rhs`` imports
``grade.dynamics`` and is ``grade.dynamics.rhs``.
"""
import importlib

__version__ = "0.1.0"

# the public names, each under its home module; every key is also an attribute
_EXPORTS = {
    "autodiff": (),
    "codec": (),
    "diagnostics": ("ClusterProfile", "EnergySeries", "cluster_count", "default_cluster_eps",
                    "dirichlet_energy", "feature_spread", "metastability_profile",
                    "oversmoothing_verdict"),
    "dynamics": ("ActivationSpec", "DynamicsConfig", "aggregation_term", "attention_adjacency",
                 "diffusion_term", "rhs"),
    "graph": ("CsbmConfig", "Dataset", "Graph", "csbm_generate", "from_edge_list",
              "min_degree_node", "row_normalized_adjacency"),
    "kernels": ("KernelMatrix", "KernelSpec", "ProjectionParams", "kernel_matrix",
                "kernel_scalar", "row_normalize"),
    "solvers": ("NumericalError", "SolverConfig", "Trajectory", "euler_step", "integrate",
                "rk4_step"),
    "training": ("ModelParams", "TrainConfig", "finite_difference_grad", "forward",
                 "gradient_check", "loss", "loss_and_grad", "train"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
