"""Time integration for the graph dynamics initial value problem.

Fixed-step Euler and classical RK4 plus an adaptive Dormand-Prince 5(4)
scheme with a PI step controller. Step functions are duck-typed over the
state (any object supporting ``+`` and scalar ``*``), so the training
unroll can reuse them with gradient-carrying tensors; ``integrate`` works
on plain arrays and records a :class:`Trajectory`.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

__all__ = [
    "SolverConfig",
    "Trajectory",
    "NumericalError",
    "euler_step",
    "rk4_step",
    "integrate",
    "fixed_step_sizes",
    "fixed_steps",
]

FIXED_STEP_METHODS = ("euler", "rk4")
METHODS = FIXED_STEP_METHODS + ("dopri5",)

# Dormand-Prince 5(4) tableau. Seven stages, order 5 propagated, embedded
# order 4 via the error row E = b5 - b4.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (
    71 / 57600,
    0.0,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

_SAFETY = 0.9
_FACTOR_MIN, _FACTOR_MAX = 0.2, 5.0
_PI_ALPHA, _PI_BETA = 0.7 / 5.0, 0.4 / 5.0


class NumericalError(RuntimeError):
    """Integration failed numerically (blow-up, divergence, step budget)."""


@dataclass(frozen=True)
class SolverConfig:
    """Method choice and step/tolerance parameters for one integration."""

    method: str = "euler"
    step: float = 1.0
    horizon: float = 40.0
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    max_steps: int = 100_000
    record_every: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.method in FIXED_STEP_METHODS:
            if self.step <= 0:
                raise ValueError("step must be > 0")
            if self.horizon / self.step > self.max_steps:
                raise ValueError("horizon/step exceeds max_steps")
        else:
            if self.rel_tol < 1e-12 or self.abs_tol < 1e-12:
                raise ValueError("tolerances must be >= 1e-12")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SolverConfig":
        return cls(**{f.name: type(f.default)(obj[f.name]) for f in fields(cls) if f.name in obj})


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one integration, times ascending from 0 to T."""

    times: np.ndarray
    states: np.ndarray  # (records, n, d)
    step_count: int
    max_error_ratio: float | None = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must align")
        if len(self.times) == 0:
            raise ValueError("trajectory must contain the initial state")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def euler_step(f, X, t: float, step: float):
    """One explicit Euler update X + step * f(X, t)."""
    if step <= 0:
        raise ValueError("step must be > 0")
    return X + step * f(X, t)


def rk4_step(f, X, t: float, step: float):
    """One classical 4-stage Runge-Kutta update."""
    if step <= 0:
        raise ValueError("step must be > 0")
    k1 = f(X, t)
    k2 = f(X + (step / 2.0) * k1, t + step / 2.0)
    k3 = f(X + (step / 2.0) * k2, t + step / 2.0)
    k4 = f(X + step * k3, t + step)
    return X + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def fixed_step_sizes(horizon: float, step: float) -> list[float]:
    """Step sizes covering [0, horizon]: ceil(T/step) steps, last one shortened.

    A small relative slack keeps float noise in T/step from adding a
    spurious final micro-step.
    """
    if horizon == 0:
        return []
    count = max(1, math.ceil(horizon / step - 1e-9))
    sizes = [step] * (count - 1)
    sizes.append(horizon - step * (count - 1))
    return sizes


def fixed_steps(f, X, cfg: SolverConfig):
    """Walk the fixed-step grid of ``cfg`` from state ``X`` at t=0.

    Yields ``(t, X)`` after each step; the last t is exactly the horizon.
    Duck-typed over the state like the step functions. Overflow is not an
    error here: it surfaces as a non-finite state, which the caller checks
    and reports with its own diagnostic.
    """
    stepper = euler_step if cfg.method == "euler" else rk4_step
    sizes = fixed_step_sizes(cfg.horizon, cfg.step)
    t = 0.0
    for k, h in enumerate(sizes):
        with np.errstate(over="ignore", invalid="ignore"):
            X = stepper(f, X, t, h)
        t = cfg.horizon if k == len(sizes) - 1 else t + h
        yield t, X


def _check_finite(X: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(X)):
        raise NumericalError(f"state became non-finite at t={t:.6g}")


def _error_ratio(err: np.ndarray, X0: np.ndarray, X1: np.ndarray, cfg: SolverConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(X0), np.abs(X1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(f, X0, f0, cfg: SolverConfig) -> float:
    """Automatic first-step heuristic from the scaled state/derivative norms."""
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(X0)
    d0 = np.sqrt(np.mean((X0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = f(X0 + h0 * f0, h0)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, cfg.horizon)


def _integrate_fixed(f, X0, cfg: SolverConfig):
    times = [0.0]
    states = [X0.copy()]
    for k, (t, X) in enumerate(fixed_steps(f, X0, cfg), start=1):
        _check_finite(X, t)
        if k % cfg.record_every == 0:
            times.append(t)
            states.append(X.copy())
    if times[-1] != t:
        times.append(t)
        states.append(X.copy())
    return times, states, k, None


def _integrate_dopri5(f, X0, cfg: SolverConfig):
    t, X = 0.0, X0.copy()
    k = [f(X, t)] + [None] * 6
    h = _initial_step(f, X, k[0], cfg)
    times, states = [0.0], [X0.copy()]
    accepted = 0
    attempts = 0
    err_prev = 1.0
    max_ratio = 0.0
    while t < cfg.horizon:
        h = min(h, cfg.horizon - t)
        attempts += 1
        if attempts > cfg.max_steps:
            raise NumericalError(f"max_steps={cfg.max_steps} exceeded at t={t:.6g}")

        for i in range(1, 7):
            acc = _DP_A[i][0] * k[0]
            for j in range(1, i):
                if _DP_A[i][j] != 0.0:
                    acc = acc + _DP_A[i][j] * k[j]
            X_new = X + h * acc
            k[i] = f(X_new, t + _DP_C[i] * h)
        # _DP_A[6] is the fifth-order weight row, so the last stage point is
        # the step's solution and k[6] the derivative there: first same as last
        err = h * sum(e * kj for e, kj in zip(_DP_E, k) if e != 0.0)
        _check_finite(X_new, t + h)
        ratio = _error_ratio(err, X, X_new, cfg)

        if ratio <= 1.0:
            t = cfg.horizon if cfg.horizon - (t + h) <= 1e-14 * cfg.horizon else t + h
            X, k[0] = X_new, k[6]
            accepted += 1
            max_ratio = max(max_ratio, ratio)
            if accepted % cfg.record_every == 0 and t < cfg.horizon:
                times.append(t)
                states.append(X.copy())
            factor = _SAFETY * max(ratio, 1e-10) ** (-_PI_ALPHA) * max(err_prev, 1e-10) ** (_PI_BETA)
            err_prev = max(ratio, 1e-10)
        else:
            factor = min(1.0, _SAFETY * ratio ** (-_PI_ALPHA))
        h *= min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
        if h <= 1e-14:
            raise NumericalError(f"step size underflow at t={t:.6g}")
    times.append(cfg.horizon)
    states.append(X.copy())
    return times, states, accepted, max_ratio


def integrate(f, X0: np.ndarray, cfg: SolverConfig) -> Trajectory:
    """Integrate dX/dt = f(X, t) from 0 to cfg.horizon.

    Fixed-step methods walk a predetermined grid whose last step is
    shortened to land exactly on the horizon; dopri5 adapts its step so the
    embedded error estimate stays within tolerance. Every
    ``record_every``-th accepted state is recorded, plus the final state.
    Deterministic for fixed inputs.
    """
    X0 = np.asarray(X0, dtype=np.float64)
    if not np.all(np.isfinite(X0)):
        raise ValueError("initial state must be finite")
    if cfg.horizon == 0:
        return Trajectory(np.zeros(1), np.asarray([X0.copy()]), 0)

    if cfg.method in FIXED_STEP_METHODS:
        times, states, steps, max_ratio = _integrate_fixed(f, X0, cfg)
    else:
        times, states, steps, max_ratio = _integrate_dopri5(f, X0, cfg)
    return Trajectory(
        np.asarray(times), np.asarray(states), steps, max_error_ratio=max_ratio
    )
