"""Dirichlet energy, spread, cluster counting, dwell intervals, verdicts."""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from grade import (
    ActivationSpec,
    DynamicsConfig,
    KernelSpec,
    SolverConfig,
    Trajectory,
    cluster_count,
    dirichlet_energy,
    feature_spread,
    from_edge_list,
    integrate,
    metastability_profile,
    oversmoothing_verdict,
    rhs,
    row_normalized_adjacency,
)
from grade import diagnostics
from grade.diagnostics import _sq_distances, default_cluster_eps

from _oracles import ref_cluster_count, ref_default_cluster_eps


def test_energy_constant_features_zero():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert dirichlet_energy(g, np.tile([3.0, -1.0], (3, 1))) == 0.0


def test_energy_p2_hand_value():
    g = from_edge_list(2, [(0, 1)])
    # (1/2) * (1 + 1): each direction of the edge contributes ||0-1||^2
    assert dirichlet_energy(g, np.array([[0.0], [1.0]])) == 1.0


def test_energy_triangle_hand_value():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    X = np.array([[0.0], [1.0], [2.0]])
    # directed pairs: (0,1):1 (1,0):1 (1,2):1 (2,1):1 (0,2):4 (2,0):4 -> 12/3
    assert dirichlet_energy(g, X) == pytest.approx(4.0)


def test_energy_translation_and_quadratic_scaling():
    rng = np.random.default_rng(0)
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    X = rng.normal(size=(4, 2))
    e = dirichlet_energy(g, X)
    assert dirichlet_energy(g, X + np.array([5.0, -1.0])) == pytest.approx(e, rel=1e-12)
    assert dirichlet_energy(g, 3.0 * X) == pytest.approx(9.0 * e, rel=1e-12)


def test_energy_zero_iff_constant_per_component():
    g = from_edge_list(4, [(0, 1), (2, 3)])  # two components
    X = np.array([[1.0], [1.0], [-2.0], [-2.0]])
    assert dirichlet_energy(g, X) == 0.0
    X[3] = 0.0
    assert dirichlet_energy(g, X) > 0.0


def test_energy_shape_mismatch():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError, match="row count"):
        dirichlet_energy(g, np.zeros((3, 1)))


def test_spread_examples():
    assert feature_spread(np.tile([1.0, 2.0], (5, 1))) == 0.0
    assert feature_spread(np.array([[0.0], [3.0]])) == 3.0
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 3))
    assert feature_spread(X + np.array([4.0, 4.0, -2.0])) == pytest.approx(
        feature_spread(X), rel=1e-12
    )


def test_cluster_count_examples():
    X = np.array([[0.0], [0.01], [5.0], [5.02]])
    assert cluster_count(X, eps=0.1) == 2
    assert cluster_count(X, eps=10.0) == 1
    assert cluster_count(X, eps=1e-6) == 4
    assert cluster_count(np.zeros((0, 2)), eps=1.0) == 0
    assert cluster_count(np.zeros((1, 2)), eps=1.0) == 1


def test_cluster_count_links_points_tied_on_the_sweep_axis():
    # at 2^60 a coordinate plus or minus eps rounds back to itself, so each
    # window is exactly the points that tie with the block on that axis
    X = np.array([[2.0**60, 0.0], [2.0**60, 0.5], [2.0**60, 1.0], [2.0**60 + 256, 0.0]])
    assert cluster_count(X, eps=0.6) == 2
    assert cluster_count(X[::-1], eps=0.6) == 2


def test_cluster_diagnostics_of_zero_width_features():
    # no coordinates: every pair is at distance 0
    assert cluster_count(np.zeros((3, 0)), eps=1.0) == 1
    assert default_cluster_eps(np.zeros((3, 0))) == 0.05
    assert feature_spread(np.zeros((3, 0))) == 0.0


def test_cluster_count_monotone_in_eps():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 2))
    counts = [cluster_count(X, eps) for eps in (0.01, 0.1, 0.5, 1.0, 5.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_cluster_count_rejects_bad_eps():
    with pytest.raises(ValueError):
        cluster_count(np.zeros((2, 1)), eps=0.0)


@pytest.mark.parametrize("build, message", [
    (lambda: diagnostics.EnergySeries(np.zeros(2), np.zeros(3)), "times and values must align"),
    (lambda: diagnostics.EnergySeries(np.zeros(2), np.array([1.0, -1e-300])),
     "Dirichlet energy is nonnegative"),
    (lambda: feature_spread(np.zeros((0, 2))), "need at least one node"),
])
def test_energy_series_and_spread_check_their_inputs(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cluster_diagnostics_reject_non_finite_features(bad):
    X = np.array([[0.0, 0.0], [bad, 1.0], [3.0, 4.0]])
    with pytest.raises(ValueError, match="finite"):
        cluster_count(X, eps=1.0)
    with pytest.raises(ValueError, match="finite"):
        default_cluster_eps(X)


def test_cluster_diagnostics_memory_is_linear_in_n():
    # a collapsed state links all n^2/2 pairs; a dense n x n bool array
    # alone would take 9 MB here
    X = 1e-9 * np.random.default_rng(3).normal(size=(3000, 2))
    tracemalloc.start()
    try:
        assert cluster_count(X, eps=1.0) == 1
        default_cluster_eps(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _dispersed(rng, n):
    # every node is its own cluster, so every seed batch is all singletons
    return np.column_stack([2.0 * rng.permutation(n), rng.uniform(0.0, 0.5, size=n)]), n


def _two_communities(rng, n):
    # the second frontier meets half of the nodes against the other half
    side = np.where(np.arange(n) >= n // 2, 50.0, -50.0)
    return np.column_stack([side, np.zeros(n)]) + 1e-9 * rng.normal(size=(n, 2)), 2


@pytest.mark.parametrize("state", [_dispersed, _two_communities])
def test_spread_cluster_diagnostics_memory_is_linear_in_n(state):
    X, clusters = state(np.random.default_rng(3), 3000)
    tracemalloc.start()
    try:
        assert cluster_count(X, eps=1.0) == clusters
        default_cluster_eps(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _circle(rng, n):
    # every point is as far from the bounding-box centre as any other, so
    # the diameter's prune keeps them all
    angle = np.sort(rng.uniform(0.0, 2 * np.pi, size=n))
    return np.column_stack([np.cos(angle), np.sin(angle)]), 1


def _chain(rng, n):
    # gaps below eps along the sweep axis: one cluster that spans every window
    x = np.cumsum(rng.uniform(0.1, 0.9, size=n))
    return np.column_stack([x, rng.uniform(-0.2, 0.2, size=n)]), 1


def _disc(rng, n):
    # the window of every point spans the disc, but the first seed reaches
    # only part of it, so large frontier blocks meet a wide window
    radius, angle = np.sqrt(rng.uniform(size=n)), rng.uniform(0.0, 2 * np.pi, size=n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]), 1


@pytest.mark.parametrize("state", [_circle, _chain])
def test_cluster_diagnostics_worst_cases_for_the_prunes_stay_bounded(state):
    X, clusters = state(np.random.default_rng(4), 3000)
    tracemalloc.start()
    try:
        count, scale = cluster_count(X, eps=1.0), default_cluster_eps(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert count == clusters == ref_cluster_count(X, 1.0)
    assert scale.hex() == ref_default_cluster_eps(X).hex()


@pytest.fixture
def blocks(monkeypatch):
    """(rows, columns) of every distance block the diagnostics compute."""
    seen = []

    def recorded(P, Q):
        seen.append((P.shape[1], Q.shape[1]))
        return _sq_distances(P, Q)

    monkeypatch.setattr(diagnostics, "_sq_distances", recorded)
    return seen


@pytest.mark.parametrize("state", [_dispersed, _two_communities, _circle, _chain, _disc])
def test_every_distance_block_fits_one_block_of_pairs(blocks, state):
    X, clusters = state(np.random.default_rng(6), 3000)
    assert cluster_count(X, eps=1.0) == clusters
    default_cluster_eps(X)
    assert all(rows == 1 or rows * cols <= diagnostics.DISTANCE_BLOCK for rows, cols in blocks)


def test_dispersed_state_compares_few_pairs(blocks):
    # a timing-free guard on both prunes: a full pass compares n^2/2 pairs
    X, clusters = _dispersed(np.random.default_rng(5), 3000)
    assert cluster_count(X, eps=1.0) == clusters
    assert 0 < sum(rows * cols for rows, cols in blocks) < len(X) ** 2 / 20
    blocks.clear()
    assert default_cluster_eps(X).hex() == ref_default_cluster_eps(X).hex()
    assert 0 < sum(rows * cols for rows, cols in blocks) < len(X) ** 2 / 20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_default_cluster_eps_has_the_oracles_bits_when_squares_are_subnormal(d):
    # rounding at subnormal squares is far coarser than the prune's margin
    for seed in range(4):
        for scale in 2.0 ** np.arange(-545, -515):
            X = np.random.default_rng(seed).normal(size=(30, d)) * scale
            assert default_cluster_eps(X).hex() == ref_default_cluster_eps(X).hex()


@pytest.mark.parametrize("d", [*range(1, 21), 127, 128, 129, 256, 300])
def test_sq_distances_sum_each_pair_as_numpy_sums_a_row(d):
    # magnitudes over 16 decades make the sum depend on the order of its terms
    rng = np.random.default_rng(d)
    scale = 10.0 ** rng.integers(-8, 9, size=d)
    p = rng.normal(size=(5, 1, d)) * scale
    q = rng.normal(size=(1, 7, d)) * scale
    want = np.sum((q - p) ** 2, axis=-1)
    got = _sq_distances(p[:, 0].T.copy(), q[0].T.copy())
    assert np.array_equal(got, want), (
        f"numpy {np.__version__} no longer sums a length-{d} row in the order "
        "grade.diagnostics._sq_distances reproduces")


def test_profile_stationary_single_interval():
    states = np.tile(np.array([[0.0], [5.0]]), (4, 1, 1))
    traj = Trajectory(np.array([0.0, 1.0, 2.0, 3.0]), states, 3)
    profile = metastability_profile(traj, eps=0.1)
    assert profile.dwell_intervals == [(2, 0.0, 3.0)]


def test_profile_run_length_encoding():
    # counts [3,3,3,2,2,1] at unit times -> (3,[0,2]) (2,[3,4]) (1,[5,5])
    states = np.array([
        [[0.0], [5.0], [10.0]],
        [[0.0], [5.0], [10.0]],
        [[0.0], [5.0], [10.0]],
        [[0.0], [5.0], [5.2]],
        [[0.0], [5.0], [5.2]],
        [[0.0], [0.2], [0.3]],
    ])
    traj = Trajectory(np.arange(6.0), states, 5)
    profile = metastability_profile(traj, eps=0.5)
    np.testing.assert_array_equal(profile.counts, [3, 3, 3, 2, 2, 1])
    assert profile.dwell_intervals == [(3, 0.0, 2.0), (2, 3.0, 4.0), (1, 5.0, 5.0)]


def test_profile_pure_diffusion_ends_in_one_cluster():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    cfg = DynamicsConfig(
        activation=ActivationSpec("identity"),
        kernel=KernelSpec("gaussian"),
        diffusion_on=True,
        aggregation_on=False,
    )
    X0 = np.array([[0.0], [1.0], [2.0]])
    traj = integrate(lambda X, t: rhs(cfg, g, X, t), X0,
                     SolverConfig("rk4", step=0.1, horizon=40.0))
    profile = metastability_profile(traj, eps=default_cluster_eps(X0))
    assert profile.counts[-1] == 1
    assert feature_spread(traj.final_state) < 1e-10


def test_verdict_constant_trajectory_oversmoothed():
    g = from_edge_list(2, [(0, 1)])
    states = np.tile(np.array([[1.0], [1.0]]), (3, 1, 1))
    traj = Trajectory(np.array([0.0, 1.0, 2.0]), states, 2)
    assert oversmoothing_verdict(traj, g, 1e-8, 1e-4) == "oversmoothed"


def test_verdict_two_cluster_trajectory_mitigated():
    g = from_edge_list(2, [(0, 1)])
    states = np.tile(np.array([[0.0], [5.0]]), (3, 1, 1))
    traj = Trajectory(np.array([0.0, 1.0, 2.0]), states, 2)
    assert oversmoothing_verdict(traj, g, 1e-8, 1e-4) == "mitigated"


def test_verdict_p3_diffusion_matches_matrix_exponential_oracle():
    # linear diffusion decays through the spectrum of (A - I); the matrix
    # exponential is the independent closed-form reference
    g = from_edge_list(3, [(0, 1), (1, 2)])
    A = row_normalized_adjacency(g).toarray()
    X0 = np.array([[0.0], [1.0], [2.0]])
    expected = scipy.linalg.expm(40.0 * (A - np.eye(3))) @ X0

    cfg = DynamicsConfig(
        activation=ActivationSpec("identity"),
        kernel=KernelSpec("gaussian"),
        diffusion_on=True,
        aggregation_on=False,
    )
    traj = integrate(lambda X, t: rhs(cfg, g, X, t), X0,
                     SolverConfig("dopri5", horizon=40.0, rel_tol=1e-9, abs_tol=1e-12))
    np.testing.assert_allclose(traj.final_state, expected, atol=1e-7)
    assert oversmoothing_verdict(traj, g, 1e-8, 1e-4) == "oversmoothed"


def test_verdict_uses_final_state_only():
    g = from_edge_list(2, [(0, 1)])
    moving = np.array([[[0.0], [9.0]], [[1.0], [1.0]]])
    traj = Trajectory(np.array([0.0, 1.0]), moving, 1)
    assert oversmoothing_verdict(traj, g, 1e-8, 1e-4) == "oversmoothed"


def test_default_cluster_eps():
    X = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert default_cluster_eps(X) == pytest.approx(0.25)  # 5% of diameter 5
    assert default_cluster_eps(np.zeros((3, 2))) > 0
