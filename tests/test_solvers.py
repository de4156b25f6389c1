"""Step functions, trajectory recording, and integrator accuracy."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from grade import solvers
from grade.solvers import fixed_step_sizes, fixed_steps, record_trajectory


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


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_rk4_rejects_a_step_that_is_not_positive(step):
    with pytest.raises(ValueError, match="step must be > 0"):
        rk4_step(_zero, np.zeros((1, 1)), 0.0, step)


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


@settings(max_examples=300, deadline=None)
@given(step=st.floats(1e-3, 10.0), k=st.integers(1, 300),
       offset=st.one_of(st.just(0.0), st.floats(1e-14, 1e-6)), slack=st.integers(-2, 2))
def test_the_grid_has_one_count_and_step_k_ends_at_step_times_k(step, k, offset, slack):
    # k·step and horizons just above it: within the 1e-9 slack the grid keeps k steps
    horizon = k * step + offset * step
    count = len(fixed_step_sizes(horizon, step))
    max_steps = max(1, count + slack)
    try:
        SolverConfig("euler", step=step, horizon=horizon, max_steps=max_steps)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "horizon/step exceeds max_steps"
        accepted = False
    assert accepted == (count <= max_steps)

    cfg = SolverConfig("euler", step=step, horizon=horizon, max_steps=count)
    times = [t for t, _ in fixed_steps(lambda X, t: 0.0, 0.0, cfg)]
    assert times == [step * j for j in range(1, count)] + [horizon]
    assert all(np.diff([0.0, *times]) > 0)


def test_a_horizon_past_the_sum_of_its_steps_keeps_its_times_rising():
    # 50000 additions of 0.1 overshoot 5000.0000000002; 0.1·50000 does not
    cfg = SolverConfig("euler", step=0.1, horizon=5000.0000000002)
    started = time.perf_counter()
    traj = record_trajectory(0.0, fixed_steps(lambda X, t: 0.0, 0.0, cfg), 1)
    assert time.perf_counter() - started < 1.0
    assert traj.step_count == 50001
    assert traj.times[-2] == 0.1 * 50000 == 5000.0 and traj.times[-1] == cfg.horizon


def test_exactly_max_steps_steps_are_accepted():
    # 30/0.0003 is 100000.00000000001 in floats, but the grid has 100000 steps
    assert len(fixed_step_sizes(30.0, 0.0003)) == 100_000
    SolverConfig("euler", step=0.0003, horizon=30.0, max_steps=100_000)
    with pytest.raises(ValueError, match="horizon/step exceeds max_steps"):
        SolverConfig("euler", step=0.0003, horizon=30.0, max_steps=99_999)


def test_dopri5_reaching_a_tiny_horizon_reports_no_underflow():
    traj = integrate(lambda X, t: -X, np.ones((1, 1)), SolverConfig("dopri5", horizon=1e-15))
    assert traj.times[-1] == 1e-15 and traj.step_count == 1


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
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        SolverConfig("dopri5", max_steps=0)


def test_integrate_rejects_a_non_finite_initial_state():
    X0 = np.zeros((3, 2))
    X0[1, 0] = np.nan
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate(_zero, X0, SolverConfig("euler", horizon=1.0))


def test_trajectory_validation():
    from grade import Trajectory

    with pytest.raises(ValueError, match="increasing"):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1, 1)), 1)
    with pytest.raises(ValueError, match="align"):
        Trajectory(np.array([0.0]), np.zeros((2, 1, 1)), 1)
    with pytest.raises(ValueError, match="must contain the initial state"):
        Trajectory(np.zeros(0), np.zeros((0, 1, 1)), 0)


# The benchmark counts step attempts by wrapping solvers._check_finite
# (bench/spans.py): once per fixed step, once per dopri5 attempt, never in train.


def _count_checks(monkeypatch):
    calls = []
    check = solvers._check_finite
    monkeypatch.setattr(solvers, "_check_finite", lambda X, t: calls.append(t) or check(X, t))
    return calls


def test_dopri5_checks_every_attempt_once(monkeypatch):
    # the field flips sign at t=0.5, so the controller rejects steps there
    rhs_calls = []

    def f(X, t):
        rhs_calls.append(t)
        return np.where(t > 0.5, -X, X)

    checks = _count_checks(monkeypatch)
    traj = integrate(f, np.ones((1, 1)), SolverConfig("dopri5", horizon=1.0))
    attempts = (len(rhs_calls) - 2) // 6  # two start-up calls, six stages per attempt
    assert attempts > traj.step_count  # some steps were rejected
    assert len(checks) == attempts


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_fixed_steps_check_each_step_once(monkeypatch, method):
    checks = _count_checks(monkeypatch)
    traj = integrate(lambda X, t: -X, np.ones((2, 1)), SolverConfig(method, step=0.3, horizon=1.0))
    assert traj.step_count == 4
    assert checks == list(traj.times[1:])


def test_dopri5_zero_horizon_makes_no_rhs_call():
    calls = []
    X0 = np.array([[1.0, 2.0]])
    traj = integrate(lambda X, t: calls.append(t) or -X, X0, SolverConfig("dopri5", horizon=0.0))
    assert calls == []
    assert traj.step_count == 0 and traj.max_error_ratio is None
    np.testing.assert_array_equal(traj.times, [0.0])
    np.testing.assert_array_equal(traj.states, [X0])


def test_dopri5_record_every_keeps_start_every_third_step_and_end():
    X0 = np.array([[1.0], [-2.0]])
    every = integrate(lambda X, t: -X * t, X0, SolverConfig("dopri5", horizon=3.0))
    third = integrate(lambda X, t: -X * t, X0, SolverConfig("dopri5", horizon=3.0, record_every=3))
    last = every.step_count
    assert last % 3 != 0  # so the final state is kept on its own
    keep = [0, *range(3, last, 3), last]
    np.testing.assert_array_equal(third.times, every.times[keep])
    np.testing.assert_array_equal(third.states, every.states[keep])
    assert third.step_count == last
    assert third.max_error_ratio == every.max_error_ratio


def test_euler_reports_its_free_step_quality_indicator():
    calls = []

    def decay(X, t):
        calls.append(t)
        return -X

    traj = integrate(decay, np.ones((2, 1)), SolverConfig("euler", step=0.5, horizon=2.0))
    assert len(calls) == traj.step_count == 4  # no extra RHS evaluation
    # X_k = 0.5^k, so step k's indicator is 0.25 * 0.5^(k+1) / 1; the last step has none
    assert traj.max_error_ratio == 0.125
    one_step = integrate(decay, np.ones((2, 1)), SolverConfig("euler", step=1.0, horizon=1.0))
    assert one_step.max_error_ratio is None


def test_euler_indicator_is_relative_to_large_states():
    traj = integrate(lambda X, t: -X, np.full((1, 1), 8.0), SolverConfig("euler", step=0.5,
                                                                          horizon=1.0))
    assert traj.max_error_ratio == 0.25 * 4.0 / 4.0  # h/2 · |f(X_1) − f(X_0)| / |X_1|
    np.testing.assert_array_equal(traj.states[:, 0, 0], [8.0, 4.0, 2.0])


def test_rk4_reports_no_error_ratio():
    traj = integrate(lambda X, t: -X, np.ones((2, 1)), SolverConfig("rk4", step=0.5, horizon=2.0))
    assert traj.max_error_ratio is None
