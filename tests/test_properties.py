"""Property tests: the vectorized RHS and the cluster diagnostics against the
dense oracles.

Random connected graphs crossed with every kernel kind, row normalization,
adjacency mode and activation. Features are bounded so that raw kernel row
sums stay far from underflow in the oracle's explicit division.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from grade import (
    ActivationSpec,
    DynamicsConfig,
    KernelSpec,
    ProjectionParams,
    aggregation_term,
    cluster_count,
    default_cluster_eps,
    kernel_matrix,
    rhs,
)

from _oracles import (
    dense_kernel_matrix,
    dense_rhs,
    eps_cluster_count,
    feature_diameter,
    pair_sq_distance,
    random_connected_graph,
)

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


@st.composite
def _point_sets(draw):
    """Rows drawn with replacement from a few distinct points, so duplicates
    are common; d up to 10 exercises numpy's pairwise summation (d > 8)."""
    d = draw(st.integers(1, 10))
    coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
    points = draw(arrays(np.float64, (draw(st.integers(1, 30)), d), elements=coord))
    picks = draw(st.lists(st.integers(0, len(points) - 1), max_size=30))
    return points[picks]


@st.composite
def _point_sets_and_eps(draw):
    X = draw(_point_sets())
    eps = draw(st.floats(0.01, 20.0))
    if len(X) >= 2 and draw(st.booleans()):
        # an exact pair distance puts some pair right on the threshold
        i, j = draw(st.integers(0, len(X) - 1)), draw(st.integers(0, len(X) - 1))
        eps = float(np.sqrt(pair_sq_distance(X, i, j))) or eps
    return X, eps


@settings(max_examples=300, deadline=None)
@given(_point_sets_and_eps())
def test_cluster_count_matches_bfs_oracle(case):
    X, eps = case
    assert cluster_count(X, eps) == eps_cluster_count(X, eps)


@settings(max_examples=150, deadline=None)
@given(_point_sets_and_eps(), st.floats(0.01, 20.0), st.randoms(use_true_random=False))
def test_cluster_count_monotone_and_permutation_invariant(case, other_eps, random):
    X, eps = case
    lo, hi = sorted((eps, other_eps))
    assert cluster_count(X, lo) >= cluster_count(X, hi)
    perm = list(range(len(X)))
    random.shuffle(perm)
    assert cluster_count(X[perm], eps) == cluster_count(X, eps)


@settings(max_examples=150, deadline=None)
@given(_point_sets())
def test_default_cluster_eps_is_five_percent_of_the_diameter(X):
    diameter = feature_diameter(X)
    assert default_cluster_eps(X) == (0.05 * diameter if diameter > 0 else 0.05)
