"""Time integration for the graph dynamics initial value problem.

Fixed-step Euler and classical RK4 plus an adaptive Dormand-Prince 5(4)
scheme with a PI step controller. Step functions are duck-typed over the
state (any object supporting ``+`` and scalar ``*``), so the training
unroll can reuse them with gradient-carrying tensors. Both step generators
(:func:`fixed_steps` and dopri5's) yield accepted ``(t, X)`` steps, and
:func:`record_trajectory` alone turns such a stream into a :class:`Trajectory`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import from_fields, to_fields

__all__ = [
    "SolverConfig",
    "Trajectory",
    "NumericalError",
    "euler_step",
    "rk4_step",
    "integrate",
    "fixed_step_count",
    "fixed_step_sizes",
    "fixed_steps",
    "record_trajectory",
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
        if not 0 <= self.horizon < math.inf:
            raise ValueError("horizon must be >= 0 and finite")
        if not 0 < self.step < math.inf:  # dopri5 does not read it, but the manifest records it
            raise ValueError("step must be > 0 and finite")
        if self.method in FIXED_STEP_METHODS:
            if fixed_step_count(self.horizon, self.step) > self.max_steps:
                raise ValueError("horizon/step exceeds max_steps")
        else:
            if not (1e-12 <= self.rel_tol < math.inf and 1e-12 <= self.abs_tol < math.inf):
                raise ValueError("rel_tol and abs_tol must be >= 1e-12 and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    to_json = to_fields

    from_json = classmethod(from_fields)


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


def fixed_step_count(horizon: float, step: float) -> int:
    """The steps of the fixed grid over [0, horizon]: ceil(T/step − 1e-9), at
    least 1 when T > 0. The slack keeps float noise in T/step from adding a
    spurious final micro-step; a T/step past the largest float counts as it."""
    return max(int(horizon > 0), math.ceil(min(horizon / step, np.finfo(float).max) - 1e-9))


def fixed_step_sizes(horizon: float, step: float) -> list[float]:
    """The grid's step sizes: ``step`` each, but the last, T − step·(count − 1)."""
    count = fixed_step_count(horizon, step)
    return [step] * (count - 1) + [horizon - step * (count - 1)] if count else []


def fixed_steps(f, X, cfg: SolverConfig):
    """Walk the fixed-step grid of ``cfg`` from state ``X`` at t=0.

    Yields ``(t, X)`` after each step: step k runs from step·(k − 1) to
    step·k, the last to exactly the horizon. Duck-typed over the state like
    the step functions. Overflow is not an error here: it surfaces as a
    non-finite state, which the caller checks and reports with its own
    diagnostic.
    """
    stepper = euler_step if cfg.method == "euler" else rk4_step
    sizes = fixed_step_sizes(cfg.horizon, cfg.step)
    for k, h in enumerate(sizes, start=1):
        with np.errstate(over="ignore", invalid="ignore"):
            X = stepper(f, X, cfg.step * (k - 1), h)
        yield cfg.horizon if k == len(sizes) else cfg.step * k, X


def _check_finite(X: np.ndarray, t: float) -> np.ndarray:
    if not np.all(np.isfinite(X)):
        raise NumericalError(f"state became non-finite at t={t:.6g}")
    return X


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


def _dopri5_steps(f, X, cfg: SolverConfig, ratios: list):
    """:func:`fixed_steps` with adaptive Dormand-Prince steps. Checks every attempt for a
    non-finite state and appends each accepted step's error ratio to ``ratios``.
    As in :func:`fixed_steps`, overflow surfaces as that non-finite state."""
    if cfg.horizon == 0:
        return
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        k = [f(X, t)] + [None] * 6
        h = _initial_step(f, X, k[0], cfg)
    attempts = 0
    err_prev = 1.0
    while t < cfg.horizon:
        h = min(h, cfg.horizon - t)
        attempts += 1
        if attempts > cfg.max_steps:
            raise NumericalError(f"max_steps={cfg.max_steps} exceeded at t={t:.6g}")

        with np.errstate(over="ignore", invalid="ignore"):
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
            ratios.append(ratio)
            yield t, X
            factor = _SAFETY * max(ratio, 1e-10) ** (-_PI_ALPHA) * max(err_prev, 1e-10) ** (_PI_BETA)
            err_prev = max(ratio, 1e-10)
        else:
            factor = min(1.0, _SAFETY * ratio ** (-_PI_ALPHA))
        h *= min(_FACTOR_MAX, max(_FACTOR_MIN, factor))
        if h <= 1e-14 and t < cfg.horizon:
            raise NumericalError(f"step size underflow at t={t:.6g}")


def _euler_indicator(f, ratios: list):
    """``f``, also appending to ``ratios`` a free quality indicator of each Euler
    step but the last: h/2·‖f(X_{k+1}) − f(X_k)‖∞ / max(1, ‖X_{k+1}‖∞).

    h/2·(f(X_{k+1}) − f(X_k)) estimates the step's local error (Hairer, Nørsett
    and Wanner, *Solving ODEs I*, §II.4) from the values Euler evaluates anyway;
    h is the time between the two calls. The last step's f(X_{k+1}) is never
    evaluated, so a one-step run reports none.
    """
    previous = None

    def g(X, t):
        nonlocal previous
        dX = f(X, t)
        if previous is not None:
            t0, dX0 = previous
            change = float(np.max(np.abs(dX - dX0), initial=0.0))
            ratios.append((t - t0) / 2 * change / max(1.0, float(np.max(np.abs(X), initial=0.0))))
        previous = t, dX
        return dX

    return g


def record_trajectory(X0, steps, record_every: int, ratios=()) -> Trajectory:
    """``X0`` at t=0, every ``record_every``-th of the ``(t, X)`` steps, and the last.

    The one place that decides which states a trajectory keeps; the largest
    of the ``ratios`` the steps report is ``max_error_ratio`` (None if none).
    """
    kept, count = [(0.0, X0)], 0
    for count, step in enumerate(steps, start=1):
        if count % record_every == 0:
            kept.append(step)
    if count % record_every:
        kept.append(step)
    times, states = zip(*kept)
    return Trajectory(np.asarray(times), np.asarray(states), count,
                      max_error_ratio=max(ratios, default=None))


def integrate(f, X0: np.ndarray, cfg: SolverConfig) -> Trajectory:
    """Integrate dX/dt = f(X, t) from 0 to cfg.horizon.

    Fixed-step methods walk a predetermined grid whose last step is
    shortened to land exactly on the horizon; dopri5 adapts its step so the
    embedded error estimate stays within tolerance. Every
    ``record_every``-th accepted state is recorded, plus the final state.
    ``max_error_ratio`` is dopri5's largest accepted error ratio or euler's
    largest step-quality indicator (see ``_euler_indicator``); rk4 has none.
    Deterministic for fixed inputs.
    """
    X0 = np.asarray(X0, dtype=np.float64)
    if not np.all(np.isfinite(X0)):
        raise ValueError("initial state must be finite")
    ratios: list[float] = []
    if cfg.method == "euler":
        f = _euler_indicator(f, ratios)
    if cfg.method in FIXED_STEP_METHODS:
        steps = ((t, _check_finite(X, t)) for t, X in fixed_steps(f, X0, cfg))
    else:
        steps = _dopri5_steps(f, X0, cfg, ratios)
    return record_trajectory(X0, steps, cfg.record_every, ratios)
