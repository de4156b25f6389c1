"""Property tests: the vectorized RHS, the neighbourhood-sum primitive and the
diagnostics against the dense oracles and their invariants.

Random graphs (connected, weighted, or disconnected without isolated nodes)
crossed with every kernel kind, row normalization, adjacency mode and
activation. Features are bounded so that raw kernel row sums stay far from
underflow in the oracle's explicit division.
"""
import warnings
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
from grade import diagnostics

from _oracles import (
    dense_kernel_matrix,
    dense_rhs,
    eps_cluster_count,
    feature_diameter,
    pair_sq_distance,
    random_connected_graph,
    random_graph,
    ref_cluster_count,
    ref_default_cluster_eps,
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


def _instance(seed, kind, normalize, mode, activation, graph="connected"):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    g, _ = _graph(rng, n, graph)
    X = rng.uniform(-1.0, 1.0, size=(g.n, d))
    shared = ProjectionParams(rng.normal(size=(2, d)))
    spec = KernelSpec(kind, delta=0.4, bandwidth=0.9, normalize_rows=normalize)
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
def test_rhs_matches_dense_oracle(seed, kind, normalize, mode, activation):
    _check_rhs_against_oracle(*_instance(seed, kind, normalize, mode, activation))


@settings(max_examples=150, deadline=None)
@given(graph=st.sampled_from(GRAPHS), **_cases)
def test_rhs_matches_dense_oracle_on_weighted_and_disconnected_graphs(
        graph, seed, kind, normalize, mode, activation):
    _check_rhs_against_oracle(*_instance(seed, kind, normalize, mode, activation, graph))


@settings(max_examples=100, deadline=None)
@given(graph=st.sampled_from(("connected",) + GRAPHS), **_cases)
def test_rhs_is_permutation_equivariant(graph, seed, kind, normalize, mode, activation):
    g, X, cfg = _instance(seed, kind, normalize, mode, activation, graph)
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
def test_kernel_matrix_is_the_kernel_of_the_rhs(seed, kind, normalize, mode, activation):
    g, X, cfg = _instance(seed, kind, normalize, mode, activation)
    spec = cfg.kernel
    if kind == "log" and normalize and not _log_rows_normalizable(g, X, spec):
        return
    K = kernel_matrix(spec, X, g, attention=cfg.attention)
    aggregation_only = replace(cfg, diffusion_on=False)
    np.testing.assert_array_equal(aggregation_term(aggregation_only, g, K, X),
                                  rhs(aggregation_only, g, X))
    dense = dense_kernel_matrix(
        g, kind, X, spec.delta, spec.bandwidth, spec.singularity_floor,
        normalize_rows=normalize and kind != "attention",
        theta=cfg.attention.theta, scale=cfg.attention.scale,
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


@settings(max_examples=300, deadline=None)
@given(_point_sets_and_eps())
def test_cluster_count_matches_prim_oracle(case):
    X, eps = case
    assert cluster_count(X, eps) == ref_cluster_count(X, eps)


@settings(max_examples=150, deadline=None)
@given(_point_sets())
def test_default_cluster_eps_has_the_loop_oracles_bits(X):
    assert default_cluster_eps(X).hex() == ref_default_cluster_eps(X).hex()


BENCH_SHAPES = {  # (community offset, noise) of the energy benchmark's three records
    "two-communities": (0.5, 0.1),
    "dispersed": (0.5, 10.0),
    "collapsed": (0.005, 0.001),
}


@st.composite
def _bench_states(draw):
    """A state of n ~ 300 nodes shaped like one energy-benchmark record, and
    the eps that the two-community record of the same draw fixes."""
    n, d = draw(st.integers(280, 320)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = np.where(np.arange(n) >= n // 2, 1.0, -1.0)[:, None] * np.ones((1, d))
    z = rng.normal(size=(n, d))
    offset, noise = BENCH_SHAPES[draw(st.sampled_from(sorted(BENCH_SHAPES)))]
    eps = ref_default_cluster_eps(0.5 * side + 0.1 * z)
    return offset * side + noise * z, eps


@settings(max_examples=40, deadline=None)
@given(_bench_states())
def test_cluster_diagnostics_match_the_oracles_on_bench_shaped_states(case):
    X, eps = case
    assert cluster_count(X, eps) == ref_cluster_count(X, eps)
    assert default_cluster_eps(X).hex() == ref_default_cluster_eps(X).hex()


@st.composite
def _sweep_states(draw):
    """A few hundred points spread along coordinate 0 over many eps, so the
    sweep cuts windows, with pairs placed along that axis exactly eps apart
    and one ulp either side of it; and the extremes: ties on the sweep axis,
    an eps whose square overflows, differences that overflow, and squares
    that underflow, and an offset so large that a coordinate plus or minus
    eps rounds back to itself. eps and the paired coordinates are multiples
    of 1/64, so the threshold sums are exact."""
    n, d = draw(st.integers(100, 400)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("spread", "ties", "inf-eps", "overflow", "underflow", "offset")))
    eps = draw(st.integers(8, 640)) / 64
    X = rng.uniform(-eps, eps, size=(n, d))
    X[:, 0] = rng.uniform(0.0, draw(st.sampled_from((5.0, 40.0))) * eps, size=n)
    if kind == "ties":  # grid neighbours are eps or eps / 2 apart on the sweep axis
        step = eps * draw(st.sampled_from((0.5, 1.0)))
        X[:, 0] = step * np.round(X[:, 0] / step)
    for i, j, ulps in zip(*rng.integers(0, n, (2, 20)), rng.integers(-1, 2, 20)):
        if i != j:
            X[j, 1:] = X[i, 1:]
            X[i, 0] = np.round(64 * X[i, 0]) / 64
            X[j, 0] = np.nextafter(X[i, 0] + eps, ulps * np.inf) if ulps else X[i, 0] + eps
    if draw(st.booleans()):  # some pair right on the threshold, off the sweep axis too
        i, j = rng.integers(0, n, 2)
        eps = float(np.sqrt(pair_sq_distance(X, i, j))) or eps
    if kind == "inf-eps":
        eps = 1e200
    elif kind == "overflow":
        X[rng.integers(0, n, 5), 0] = rng.choice([-1.0, 1.0], 5) * 1.5e308
    elif kind == "underflow":  # squares from subnormal to all zero
        scale = 2.0 ** draw(st.integers(-560, -520))
        X, eps = X * scale, eps * scale
    elif kind == "offset":  # sweep-axis values one ulp (2^7 eps) or more apart
        X[:, 0] += 2.0**59 * eps
    return X, eps


@settings(max_examples=80, deadline=None)
@given(_sweep_states(), st.sampled_from((1, 7, 64, 1 << 15)))
def test_cluster_diagnostics_match_the_oracles_across_sweep_windows(case, block):
    # a small distance block splits the seed batches and frontiers into many
    # windows of the sweep
    X, eps = case
    with np.errstate(over="ignore"):  # the oracles' own squares may overflow
        count, diameter_eps = ref_cluster_count(X, eps), ref_default_cluster_eps(X)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # an overflow is inf, and silent
        mp.setattr(diagnostics, "DISTANCE_BLOCK", block)
        assert cluster_count(X, eps) == count
        assert default_cluster_eps(X).hex() == diameter_eps.hex()


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
        method, record_every, seed, kind, normalize, mode, activation):
    g, X, cfg = _instance(seed, kind, normalize, mode, activation, "weighted")
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
