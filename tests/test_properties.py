"""Property tests: the vectorized RHS, the neighbourhood-sum primitive and the
diagnostics against the dense oracles and their invariants.

Random graphs (connected, weighted, or disconnected without isolated nodes)
crossed with every kernel kind, row normalization, adjacency mode and
activation. Features are bounded so that raw kernel row sums stay far from
underflow in the oracle's explicit division.
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
    NumericalError,
    ProjectionParams,
    SolverConfig,
    aggregation_term,
    cluster_count,
    default_cluster_eps,
    dirichlet_energy,
    from_edge_list,
    integrate,
    kernel_matrix,
    rhs,
)
from grade import autodiff as ad

from _oracles import (
    dense_kernel_matrix,
    dense_rhs,
    eps_cluster_count,
    feature_diameter,
    pair_sq_distance,
    random_connected_graph,
    random_graph,
)

KINDS = ("log", "power", "gaussian", "attention")
ACTIVATIONS = ("identity", "tanh", "softplus", "relu")
MODES = ("static_row_normalized", "attention")
GRAPHS = ("weighted", "disconnected", "weighted-disconnected")


def _graph(rng, n, graph):
    """A connected graph on ``n`` nodes, or a ``GRAPHS`` variant with ``n`` or
    more, and the sizes of its components (consecutive node ids)."""
    if graph == "connected":
        return random_connected_graph(rng, n), [n]
    sizes = [n, int(rng.integers(2, 6))] if "disconnected" in graph else [n]
    return random_graph(rng, sizes, weighted="weighted" in graph), sizes


def _instance(seed, kind, normalize, mode, activation, own_theta, graph="connected"):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    g, _ = _graph(rng, n, graph)
    X = rng.uniform(-1.0, 1.0, size=(g.n, d))
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


def _check_rhs_against_oracle(g, X, cfg):
    if cfg.kernel.kind == "log" and cfg.kernel.normalize_rows \
            and not _log_rows_normalizable(g, X, cfg.kernel):
        with pytest.raises(ValueError, match="positive finite sums"):
            rhs(cfg, g, X)
        return
    got = rhs(cfg, g, X)
    want = dense_rhs(g, cfg, X)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(**_cases)
def test_rhs_matches_dense_oracle(seed, kind, normalize, mode, activation, own_theta):
    _check_rhs_against_oracle(*_instance(seed, kind, normalize, mode, activation, own_theta))


@settings(max_examples=150, deadline=None)
@given(graph=st.sampled_from(GRAPHS), **_cases)
def test_rhs_matches_dense_oracle_on_weighted_and_disconnected_graphs(
        graph, seed, kind, normalize, mode, activation, own_theta):
    _check_rhs_against_oracle(
        *_instance(seed, kind, normalize, mode, activation, own_theta, graph))


@settings(max_examples=100, deadline=None)
@given(graph=st.sampled_from(("connected",) + GRAPHS), **_cases)
def test_rhs_is_permutation_equivariant(graph, seed, kind, normalize, mode, activation, own_theta):
    g, X, cfg = _instance(seed, kind, normalize, mode, activation, own_theta, graph)
    if kind == "log" and normalize and not _log_rows_normalizable(g, X, cfg.kernel):
        return
    perm = np.random.default_rng(seed).permutation(g.n)  # new node i is old node perm[i]
    new_id = np.argsort(perm)
    gp = from_edge_list(g.n, zip(new_id[g.edge_u], new_id[g.edge_v]), g.edge_weight)
    want = rhs(cfg, g, X)[perm]
    got = rhs(cfg, gp, X[perm])
    # a neighbourhood sum now adds its terms in another order
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


def _central_difference(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + h
        plus = fn(x)
        x[i] = orig - h
        minus = fn(x)
        x[i] = orig
        grad[i] = (plus - minus) / (2.0 * h)
    return grad


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), graph=st.sampled_from(GRAPHS), column=st.booleans())
def test_arc_spmm_gradients_match_central_differences(seed, graph, column):
    rng = np.random.default_rng(seed)
    g, _ = _graph(rng, int(rng.integers(2, 7)), graph)
    d = int(rng.integers(1, 4))
    m = g.arc_src.size
    vals = rng.uniform(-1.0, 1.0, size=(m, 1) if column else m)
    X = rng.normal(size=(g.n, d))
    weight = ad.constant(rng.normal(size=(g.n, d)))

    def value(v, x):
        return ad.reduce_sum(ad.mul(ad.arc_spmm(v, x, g), weight)).item()

    lv, lx = ad.parameter(vals.copy()), ad.parameter(X.copy())
    ad.reduce_sum(ad.mul(ad.arc_spmm(lv, lx, g), weight)).backward()
    np.testing.assert_allclose(
        lv.grad, _central_difference(lambda v: value(v, X), vals.copy()), rtol=1e-7, atol=1e-8)
    np.testing.assert_allclose(
        lx.grad, _central_difference(lambda x: value(vals, x), X.copy()), rtol=1e-7, atol=1e-8)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), graph=st.sampled_from(("connected",) + GRAPHS))
def test_dirichlet_energy_nonnegative_and_zero_on_componentwise_constants(seed, graph):
    rng = np.random.default_rng(seed)
    g, sizes = _graph(rng, int(rng.integers(2, 9)), graph)
    d = int(rng.integers(1, 4))
    assert dirichlet_energy(g, rng.normal(scale=10.0, size=(g.n, d))) >= 0.0
    component = np.repeat(np.arange(len(sizes)), sizes)
    levels = rng.normal(scale=10.0, size=(len(sizes), d))
    assert dirichlet_energy(g, levels[component]) == 0.0


def _run(cfg, g, X0, solver):
    """The trajectory, or the message of the error that stopped it (a blow-up,
    or a log-kernel row sum that turned nonpositive along the way)."""
    try:
        return integrate(lambda X, t: rhs(cfg, g, X, t), X0, solver)
    except (NumericalError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from(("euler", "rk4")), record_every=st.integers(1, 3), **_cases)
def test_fixed_step_integration_replays_bit_for_bit(
        method, record_every, seed, kind, normalize, mode, activation, own_theta):
    g, X, cfg = _instance(seed, kind, normalize, mode, activation, own_theta, "weighted")
    if kind == "log" and normalize and not _log_rows_normalizable(g, X, cfg.kernel):
        return
    solver = SolverConfig(method, step=0.1, horizon=0.5, record_every=record_every)
    first, second = _run(cfg, g, X, solver), _run(cfg, g, X.copy(), solver)
    if isinstance(first, str):
        assert second == first
        return
    np.testing.assert_array_equal(second.times, first.times)
    np.testing.assert_array_equal(second.states, first.states)
    assert second.step_count == first.step_count
