"""Step functions, trajectory recording, and integrator accuracy."""
import numpy as np
import pytest

from grade import (
    ActivationSpec,
    DynamicsConfig,
    KernelSpec,
    NumericalError,
    SolverConfig,
    euler_step,
    from_edge_list,
    integrate,
    rhs,
    rk4_step,
)
from grade.solvers import fixed_step_sizes


def _zero(X, t):
    return np.zeros_like(X)


def _p2_diffusion():
    g = from_edge_list(2, [(0, 1)])
    cfg = DynamicsConfig(
        activation=ActivationSpec("identity"),
        kernel=KernelSpec("gaussian"),
        diffusion_on=True,
        aggregation_on=False,
    )
    return lambda X, t: rhs(cfg, g, X, t)


def p2_exact(X0, t):
    # on P2 with row-stochastic A the mean is preserved and the difference
    # decays as exp(-2 t)
    mean = X0.mean(axis=0, keepdims=True)
    return mean + (X0 - mean) * np.exp(-2.0 * t)


def test_euler_zero_field_identity():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(euler_step(_zero, X, 0.0, 0.5), X)


def test_euler_p2_half_step():
    out = euler_step(_p2_diffusion(), np.array([[0.0], [1.0]]), 0.0, 0.5)
    np.testing.assert_allclose(out, [[0.5], [0.5]])


def test_euler_rejects_zero_step():
    with pytest.raises(ValueError, match="step"):
        euler_step(_zero, np.zeros((1, 1)), 0.0, 0.0)


def test_rk4_zero_field_identity():
    X = np.array([[1.0], [2.0]])
    np.testing.assert_array_equal(rk4_step(_zero, X, 0.0, 0.3), X)


def test_rk4_scalar_linear_decay():
    # f(x) = -x, one step h=0.1 gives the degree-4 Taylor polynomial of e^-0.1
    out = rk4_step(lambda X, t: -X, np.array([[1.0]]), 0.0, 0.1)
    expected = 1 - 0.1 + 0.1**2 / 2 - 0.1**3 / 6 + 0.1**4 / 24
    assert out[0, 0] == pytest.approx(expected, abs=1e-15)
    assert out[0, 0] == pytest.approx(0.9048375, abs=1e-7)


def test_rk4_agrees_with_euler_to_first_order():
    # Richardson-style check: (euler - rk4) shrinks like O(h^2)
    f = _p2_diffusion()
    X = np.array([[0.0], [1.0]])
    gaps = []
    for h in (0.2, 0.1, 0.05):
        gaps.append(np.max(np.abs(euler_step(f, X, 0.0, h) - rk4_step(f, X, 0.0, h))))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.25)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.25)


def test_fixed_step_grid():
    assert fixed_step_sizes(1.0, 0.25) == [0.25, 0.25, 0.25, 0.25]
    sizes = fixed_step_sizes(1.0, 0.3)
    assert len(sizes) == 4
    assert sizes[-1] == pytest.approx(0.1)
    assert sum(sizes) == pytest.approx(1.0)
    assert fixed_step_sizes(0.0, 0.5) == []


def test_integrate_euler_grid_times():
    traj = integrate(_zero, np.zeros((2, 1)), SolverConfig("euler", step=0.25, horizon=1.0))
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert traj.step_count == 4
    assert traj.times[-1] == 1.0


def test_integrate_record_every():
    traj = integrate(_zero, np.zeros((1, 1)),
                     SolverConfig("euler", step=0.1, horizon=1.0, record_every=3))
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])


def test_integrate_endpoint_exact_with_awkward_step():
    traj = integrate(_zero, np.zeros((1, 1)), SolverConfig("euler", step=0.3, horizon=1.0))
    assert traj.times[-1] == 1.0
    assert traj.step_count == 4


def test_integrate_dopri5_exponential():
    cfg = SolverConfig("dopri5", horizon=1.0, rel_tol=1e-8, abs_tol=1e-10)
    traj = integrate(lambda X, t: -X, np.array([[1.0]]), cfg)
    assert traj.final_state[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-7)
    assert traj.max_error_ratio is not None and traj.max_error_ratio <= 1.0


def test_dopri5_reuses_last_stage_as_next_first():
    # one call for the initial derivative, one for the step-size heuristic,
    # then six per accepted step: stage 7 at the new state is the next stage 1
    calls = []

    def f(X, t):
        calls.append(t)
        return -X

    cfg = SolverConfig("dopri5", horizon=1.0, rel_tol=1e-8, abs_tol=1e-10)
    traj = integrate(f, np.array([[1.0]]), cfg)
    assert traj.step_count > 1
    assert len(calls) == 2 + 6 * traj.step_count


def test_integrate_p2_closed_form():
    X0 = np.array([[0.0], [1.0]])
    cfg = SolverConfig("dopri5", horizon=2.0, rel_tol=1e-9, abs_tol=1e-11)
    traj = integrate(_p2_diffusion(), X0, cfg)
    np.testing.assert_allclose(traj.final_state, p2_exact(X0, 2.0), atol=1e-8)


def test_integrate_deterministic():
    X0 = np.array([[0.0], [1.0]])
    cfg = SolverConfig("dopri5", horizon=2.0, rel_tol=1e-6, abs_tol=1e-9)
    a = integrate(_p2_diffusion(), X0, cfg)
    b = integrate(_p2_diffusion(), X0, cfg)
    np.testing.assert_array_equal(a.final_state, b.final_state)
    np.testing.assert_array_equal(a.times, b.times)


def test_integrate_blowup_detected():
    with pytest.raises(NumericalError, match="non-finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            integrate(lambda X, t: X**2, np.array([[4.0]]),
                      SolverConfig("euler", step=1000.0, horizon=100000.0))


def test_integrate_max_steps_exceeded():
    cfg = SolverConfig("dopri5", horizon=1e6, rel_tol=1e-10, abs_tol=1e-12, max_steps=10)
    with pytest.raises(NumericalError, match="max_steps"):
        integrate(lambda X, t: np.cos(t * X), np.ones((3, 3)), cfg)


def test_integrate_zero_horizon():
    X0 = np.array([[1.0, 2.0]])
    traj = integrate(_zero, X0, SolverConfig("euler", step=1.0, horizon=0.0))
    assert traj.step_count == 0
    np.testing.assert_array_equal(traj.times, [0.0])
    np.testing.assert_array_equal(traj.states[0], X0)


def test_global_order_of_convergence():
    # Euler slope ~1, RK4 slope ~4 on the closed-form P2 decay
    f = _p2_diffusion()
    X0 = np.array([[0.0], [1.0]])
    exact = p2_exact(X0, 2.0)
    deltas = np.array([0.2, 0.1, 0.05, 0.025])
    for method, lo, hi in (("euler", 0.9, 1.1), ("rk4", 3.7, 4.3)):
        errs = []
        for d in deltas:
            traj = integrate(f, X0, SolverConfig(method, step=float(d), horizon=2.0))
            errs.append(np.max(np.abs(traj.final_state - exact)))
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert lo <= slope <= hi, f"{method} slope {slope}"


def test_dopri5_error_estimates_within_tolerance():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cfg_dyn = DynamicsConfig(
        activation=ActivationSpec("tanh"),
        kernel=KernelSpec("gaussian", bandwidth=0.5),
    )
    X0 = np.random.default_rng(0).normal(size=(4, 2))
    traj = integrate(lambda X, t: rhs(cfg_dyn, g, X, t), X0,
                     SolverConfig("dopri5", horizon=5.0, rel_tol=1e-6, abs_tol=1e-9))
    assert traj.max_error_ratio <= 1.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig("euler", step=0.0)
    with pytest.raises(ValueError):
        SolverConfig("midpoint")
    with pytest.raises(ValueError):
        SolverConfig("euler", step=1e-9, horizon=1.0, max_steps=100)
    with pytest.raises(ValueError):
        SolverConfig("dopri5", rel_tol=1e-13)
    with pytest.raises(ValueError):
        SolverConfig("euler", record_every=0)


def test_trajectory_validation():
    from grade import Trajectory

    with pytest.raises(ValueError, match="increasing"):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1, 1)), 1)
    with pytest.raises(ValueError, match="align"):
        Trajectory(np.array([0.0]), np.zeros((2, 1, 1)), 1)
