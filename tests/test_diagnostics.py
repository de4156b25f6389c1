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
from grade.diagnostics import default_cluster_eps


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


def test_cluster_count_monotone_in_eps():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(10, 2))
    counts = [cluster_count(X, eps) for eps in (0.01, 0.1, 0.5, 1.0, 5.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_cluster_count_rejects_bad_eps():
    with pytest.raises(ValueError):
        cluster_count(np.zeros((2, 1)), eps=0.0)


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
