"""Property tests: the vectorized RHS against the dense oracles.

Random connected graphs crossed with every kernel kind, row normalization,
adjacency mode and activation. Features are bounded so that raw kernel row
sums stay far from underflow in the oracle's explicit division.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grade import (
    ActivationSpec,
    DynamicsConfig,
    KernelSpec,
    ProjectionParams,
    aggregation_term,
    kernel_matrix,
    rhs,
)

from _oracles import dense_kernel_matrix, dense_rhs, random_connected_graph

KINDS = ("log", "power", "gaussian", "attention")
ACTIVATIONS = ("identity", "tanh", "softplus", "relu")
MODES = ("static_row_normalized", "attention")


def _instance(seed, kind, normalize, mode, activation, own_theta):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    g = random_connected_graph(rng, n)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    shared = ProjectionParams(rng.normal(size=(2, d)))
    spec = KernelSpec(
        kind, delta=0.4, bandwidth=0.9, normalize_rows=normalize,
        theta=ProjectionParams(rng.normal(size=(3, d))) if own_theta else None,
    )
    cfg = DynamicsConfig(
        activation=ActivationSpec(activation), adjacency_mode=mode,
        attention=shared, kernel=spec,
    )
    return g, X, cfg


def _log_rows_normalizable(g, X, spec) -> bool:
    K = dense_kernel_matrix(g, "log", X, floor=spec.singularity_floor)
    return bool(np.all(K.sum(axis=1) > 0))


_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    normalize=st.booleans(),
    mode=st.sampled_from(MODES),
    activation=st.sampled_from(ACTIVATIONS),
    own_theta=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(**_cases)
def test_rhs_matches_dense_oracle(seed, kind, normalize, mode, activation, own_theta):
    g, X, cfg = _instance(seed, kind, normalize, mode, activation, own_theta)
    if kind == "log" and normalize and not _log_rows_normalizable(g, X, cfg.kernel):
        with pytest.raises(ValueError, match="positive finite sums"):
            rhs(cfg, g, X)
        return
    got = rhs(cfg, g, X)
    want = dense_rhs(g, cfg, X)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(**_cases)
def test_kernel_matrix_is_the_kernel_of_the_rhs(seed, kind, normalize, mode, activation, own_theta):
    g, X, cfg = _instance(seed, kind, normalize, mode, activation, own_theta)
    spec = cfg.kernel
    if kind == "attention" and spec.theta is None:
        spec = replace(spec, theta=cfg.attention)
    if kind == "log" and normalize and not _log_rows_normalizable(g, X, spec):
        return
    K = kernel_matrix(spec, X, g)
    aggregation_only = replace(cfg, kernel=spec, diffusion_on=False)
    np.testing.assert_array_equal(aggregation_term(aggregation_only, g, K, X),
                                  rhs(aggregation_only, g, X))
    dense = dense_kernel_matrix(
        g, kind, X, spec.delta, spec.bandwidth, spec.singularity_floor,
        normalize_rows=normalize and kind != "attention",
        theta=spec.theta.theta if spec.theta else None,
        scale=spec.theta.scale if spec.theta else None,
    )
    scale = max(1.0, float(np.max(np.abs(dense))))
    assert float(np.max(np.abs(K.toarray() - dense))) <= 1e-12 * scale
