"""Node classifier trained through the unrolled dynamics.

Pipeline: affine encoder -> fixed-step integration of the
aggregation-diffusion dynamics -> affine decoder -> masked cross-entropy.
The whole forward pass is recorded on the autodiff tape, so gradients are
exact derivatives of the discrete computation (discretize-then-optimize),
checkable against central finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .dynamics import DynamicsConfig, rhs_ops
from .graph import Dataset
from .kernels import ProjectionParams
from .solvers import FIXED_STEP_METHODS, NumericalError, SolverConfig, Trajectory, fixed_steps

__all__ = [
    "ModelParams",
    "TrainConfig",
    "EpochMetrics",
    "init_params",
    "forward",
    "loss",
    "loss_and_grad",
    "finite_difference_grad",
    "train",
    "accuracy",
    "gradient_check",
    "max_relative_error",
]


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Affine encoder/decoder plus the shared attention projection."""

    enc_weight: np.ndarray  # (d_in, h)
    enc_bias: np.ndarray  # (h,)
    dec_weight: np.ndarray  # (h, C)
    dec_bias: np.ndarray  # (C,)
    theta: np.ndarray | None = None  # (k, h) projection matrix, when attention is used

    def fields(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) of every parameter present, in declaration order."""
        named = [(f.name, getattr(self, f.name)) for f in fields(self)]
        return [(name, value) for name, value in named if value is not None]

    def copy(self) -> "ModelParams":
        return replace(self, **{name: value.copy() for name, value in self.fields()})

    def to_json(self) -> dict:
        return {name: value.tolist() for name, value in self.fields()}

    @classmethod
    def from_json(cls, obj: dict) -> "ModelParams":
        present = [f.name for f in fields(cls) if obj.get(f.name) is not None]
        return cls(**{name: np.array(obj[name], dtype=np.float64) for name in present})


@dataclass(frozen=True)
class TrainConfig:
    """Dynamics, fixed-step solver, and optimization hyperparameters."""

    dynamics: DynamicsConfig = DynamicsConfig()
    solver: SolverConfig = SolverConfig(method="euler", step=0.5, horizon=1.0)
    learning_rate: float = 0.2
    epochs: int = 100
    weight_decay: float = 1e-3
    seed: int = 0
    hidden: int = 8

    def __post_init__(self):
        if self.solver.method not in FIXED_STEP_METHODS:
            raise ValueError("training requires a fixed-step solver (euler or rk4)")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning_rate and weight_decay must be >= 0")
        if self.epochs < 1 or self.hidden < 1:
            raise ValueError("epochs and hidden must be >= 1")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss: float
    val_acc: float
    test_acc: float


def _needs_attention(cfg: DynamicsConfig) -> bool:
    return cfg.adjacency_mode == "attention" or (
        cfg.aggregation_on and cfg.kernel.kind == "attention"
    )


def init_params(ds: Dataset, cfg: TrainConfig) -> ModelParams:
    """Seeded Gaussian initialization.

    The encoder starts an order of magnitude below the usual fan-in scale:
    the aggregation term is quadratic in the state, so small initial
    embeddings keep the unroll inside its stable basin while the linear
    decoder is free to grow the logits.
    """
    rng = np.random.default_rng(cfg.seed)
    d_in = ds.features.shape[1]
    h = cfg.hidden
    classes = ds.num_classes
    theta = None
    if _needs_attention(cfg.dynamics):
        theta = rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h))
    return ModelParams(
        enc_weight=rng.normal(0.0, 0.1 / np.sqrt(d_in), size=(d_in, h)),
        enc_bias=np.zeros(h),
        dec_weight=rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, classes)),
        dec_bias=np.zeros(classes),
        theta=theta,
    )


def _unroll(ds: Dataset, cfg: TrainConfig, leaves: dict[str, ad.Tensor]):
    """Encoder -> K solver steps -> decoder on the tape.

    Returns (logits tensor, recorded step states, step times). ``leaves``
    carries the parameter tensors so callers control requires_grad; the
    ``theta`` leaf, when present, is the attention projection matrix.
    """
    g = ds.graph
    theta_t = leaves.get("theta")

    X = ad.add(ad.matmul(ad.constant(ds.features), leaves["enc_weight"]), leaves["enc_bias"])
    step_states = [X]
    step_times = [0.0]

    def f(state, t):
        return rhs_ops(cfg.dynamics, g, state, theta=theta_t)

    for i, (t, X) in enumerate(fixed_steps(f, X, cfg.solver), start=1):
        if not np.all(np.isfinite(X.data)):
            raise NumericalError(f"state blew up at unroll step {i} (t={t:.6g})")
        step_states.append(X)
        step_times.append(t)

    logits = ad.add(ad.matmul(X, leaves["dec_weight"]), leaves["dec_bias"])
    return logits, step_states, step_times


def _param_leaves(p: ModelParams, requires_grad: bool) -> dict[str, ad.Tensor]:
    make = ad.parameter if requires_grad else ad.constant
    leaves = {name: make(value) for name, value in p.fields()}
    return leaves


def _record_trajectory(step_states, step_times, solver: SolverConfig) -> Trajectory:
    """Every ``record_every``-th step state plus the last, as :func:`integrate` records."""
    last = len(step_states) - 1
    keep = [0, *range(solver.record_every, last, solver.record_every), last] if last else [0]
    return Trajectory(
        np.asarray([step_times[k] for k in keep]),
        np.asarray([step_states[k].data for k in keep]),
        last,
    )


def forward(p: ModelParams, ds: Dataset, cfg: TrainConfig):
    """Run the classifier; returns (logits, trajectory of the dynamics)."""
    leaves = _param_leaves(p, requires_grad=False)
    logits, step_states, step_times = _unroll(ds, cfg, leaves)
    return logits.data, _record_trajectory(step_states, step_times, cfg.solver)


def _loss_tensor(logits: ad.Tensor, labels: np.ndarray, mask: np.ndarray) -> ad.Tensor:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("mask selects no nodes")
    z = ad.gather_rows(logits, idx)
    # max-shift is treated as a constant: exact value, exact gradient
    shift = ad.constant(z.data.max(axis=1, keepdims=True))
    lse = ad.add(ad.log(ad.reduce_sum(ad.exp(ad.sub(z, shift)), axis=1)), shift)
    z_true = ad.take_per_row(z, labels[idx])
    return ad.mean(ad.sub(lse, z_true))


def loss(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Mean cross-entropy over masked nodes, stabilized by log-sum-exp."""
    return _loss_tensor(ad.constant(np.asarray(logits, dtype=np.float64)), labels, mask).item()


def loss_and_grad(p: ModelParams, ds: Dataset, cfg: TrainConfig, *, with_logits: bool = False):
    """Loss and its exact gradient through the unrolled discrete forward pass.

    Differentiates the activation, the kernel (through feature differences),
    the neighborhood softmax, and the bilinear attention scores. Raises
    NumericalError naming the unroll step if a non-finite gradient appears.
    With ``with_logits`` the logits of the taped forward come third; they
    equal ``forward(p, ds, cfg)[0]`` bit for bit.
    """
    leaves = _param_leaves(p, requires_grad=True)
    logits, step_states, _ = _unroll(ds, cfg, leaves)
    value = _loss_tensor(logits, ds.labels, ds.train_mask)
    with np.errstate(over="ignore", invalid="ignore"):
        value.backward()

    for k, state in enumerate(step_states):
        if state.grad is not None and not np.all(np.isfinite(state.grad)):
            raise NumericalError(f"non-finite gradient arose at unroll step {k}")

    def grad_of(name: str):
        leaf = leaves.get(name)
        if leaf is None:
            return None
        # a parameter the loss never touches has an exactly zero gradient
        return leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    grads = ModelParams(**{f.name: grad_of(f.name) for f in fields(ModelParams)})
    for _, gval in grads.fields():
        if not np.all(np.isfinite(gval)):
            raise NumericalError("non-finite parameter gradient")
    if with_logits:
        return value.item(), grads, logits.data
    return value.item(), grads


def finite_difference_grad(p: ModelParams, ds: Dataset, cfg: TrainConfig, h: float) -> ModelParams:
    """Central finite differences of the training loss per scalar parameter."""
    if h <= 0:
        raise ValueError("h must be > 0")

    def loss_at(params: ModelParams) -> float:
        logits, _ = forward(params, ds, cfg)
        return loss(logits, ds.labels, ds.train_mask)

    out = {}
    for name, value in p.fields():
        grad = np.zeros_like(value)
        flat = grad.reshape(-1)
        base = value.reshape(-1)
        for i in range(base.size):
            orig = base[i]
            work = p.copy()
            wf = getattr(work, name).reshape(-1)
            wf[i] = orig + h
            plus = loss_at(work)
            wf[i] = orig - h
            minus = loss_at(work)
            flat[i] = (plus - minus) / (2.0 * h)
        out[name] = grad
    return ModelParams(**out)


def _random_instance(seed: int, h: float):
    """Small random (dataset, params, config) draw for gradient verification.

    Rotates kernel kinds and adjacency modes across seeds. Draws are
    resampled when any unroll step brings an edge feature distance within
    10h of the singularity clamp (central differences must not straddle
    it) or lets the state grow past a conditioning bound (finite
    differences need the loss to stay in its linear regime at step h).
    """
    from .dynamics import ActivationSpec
    from .graph import Dataset, from_edge_list
    from .kernels import KernelSpec

    kinds = ("gaussian", "power", "log", "attention")
    for attempt in range(50):
        rng = np.random.default_rng((seed, attempt))
        n = int(rng.integers(4, 9))
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        for _ in range(int(rng.integers(0, n + 1))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((min(int(u), int(v)), max(int(u), int(v))))
        g = from_edge_list(n, sorted(edges))

        d_in = int(rng.integers(1, 4))
        hidden = int(rng.integers(2, 4))
        features = rng.normal(0.0, 1.0, size=(n, d_in))
        labels = rng.integers(0, 2, size=n)
        train = np.ones(n, dtype=bool)
        ds = Dataset(g, features, labels, train, np.zeros(n, bool), np.zeros(n, bool))

        kind = kinds[seed % len(kinds)]
        kernel = KernelSpec(
            kind,
            delta=0.5,
            bandwidth=0.8,
            normalize_rows=(kind == "gaussian" and seed % 2 == 0),
        )
        adjacency = "attention" if seed % 2 == 1 else "static_row_normalized"
        dyn = DynamicsConfig(
            activation=ActivationSpec("tanh"),
            adjacency_mode=adjacency,
            attention=ProjectionParams(np.zeros((hidden, hidden)))
            if (adjacency == "attention" or kind == "attention")
            else None,
            kernel=kernel,
            diffusion_on=True,
            aggregation_on=True,
        )
        steps = int(rng.integers(1, 6))
        cfg = TrainConfig(
            dynamics=dyn,
            solver=SolverConfig(method="euler", step=0.3, horizon=0.3 * steps),
            seed=seed,
            hidden=hidden,
        )
        # full-scale parameters (unlike init_params' damped encoder): the
        # check wants gradient entries well above the FD noise floor
        params = ModelParams(
            enc_weight=rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, hidden)),
            enc_bias=rng.normal(0.0, 0.1, size=hidden),
            dec_weight=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, 2)),
            dec_bias=rng.normal(0.0, 0.1, size=2),
            theta=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, hidden))
            if _needs_attention(dyn) else None,
        )

        try:
            _, traj = forward(params, ds, cfg)
        except NumericalError:
            continue
        if np.max(np.abs(traj.states)) > 20.0:
            continue
        margin = _clamp_margin(traj.states, g, kernel)
        if margin > 10.0 * h:
            return ds, params, cfg
    raise RuntimeError("could not draw a clamp-safe random instance")


def _clamp_margin(states, g, kernel) -> float:
    """Smallest gap between any edge feature distance and the clamp floor."""
    if kernel.kind in ("gaussian", "attention"):
        return float("inf")
    margin = float("inf")
    for state in states:
        diff = state[g.arc_src] - state[g.arc_dst]
        r = np.sqrt(np.sum(diff * diff, axis=1))
        margin = min(margin, float(np.min(np.abs(r - kernel.singularity_floor))))
    return margin


def max_relative_error(g1: ModelParams, g2: ModelParams, tiny: float = 1e-8) -> float:
    """Worst entrywise disagreement; entries below ``tiny`` compare absolutely."""
    worst = 0.0
    for (_, a), (_, b) in zip(g1.fields(), g2.fields()):
        denom = np.maximum(np.abs(a), np.abs(b))
        err = np.abs(a - b)
        rel = np.where(denom >= tiny, err / np.where(denom >= tiny, denom, 1.0), err)
        if rel.size:
            worst = max(worst, float(rel.max()))
    return worst


def gradient_check(seed: int, instances: int = 20, h: float = 1e-5):
    """Compare reverse-sweep gradients to central differences.

    Returns (overall max relative error, per-instance errors).
    """
    errors = []
    for i in range(instances):
        ds, params, cfg = _random_instance(seed + i, h)
        _, grads = loss_and_grad(params, ds, cfg)
        fd = finite_difference_grad(params, ds, cfg, h)
        errors.append(max_relative_error(grads, fd))
    return max(errors), errors


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return float("nan")
    pred = np.argmax(logits[idx], axis=1)
    return float(np.mean(pred == labels[idx]))


def train(ds: Dataset, cfg: TrainConfig):
    """Full-batch gradient descent with weight decay on the matrices.

    Records train loss and val/test accuracy per epoch and returns the
    parameters of the best validation epoch. Deterministic given the seed.
    The accuracies after an update come from the taped forward of the next
    epoch's gradient; only the last update needs a separate forward.
    """
    if not ds.train_mask.any() or not ds.val_mask.any():
        raise ValueError("dataset needs nonempty train and validation masks")
    params = init_params(ds, cfg)
    best = params.copy()
    best_val = -1.0
    metrics: list[EpochMetrics] = []
    decayed = ("enc_weight", "dec_weight", "theta")

    value, grads = loss_and_grad(params, ds, cfg)
    for epoch in range(cfg.epochs):
        if not np.isfinite(value):
            raise NumericalError(f"training diverged at epoch {epoch}")
        updated = params.copy()
        for name, _ in params.fields():
            step = getattr(grads, name).copy()
            if cfg.weight_decay > 0 and name in decayed:
                step += cfg.weight_decay * getattr(params, name)
            getattr(updated, name)[...] = getattr(params, name) - cfg.learning_rate * step
        params = updated

        epoch_loss = value
        if epoch + 1 < cfg.epochs:
            value, grads, logits = loss_and_grad(params, ds, cfg, with_logits=True)
        else:
            logits, _ = forward(params, ds, cfg)
        val_acc = accuracy(logits, ds.labels, ds.val_mask)
        test_acc = accuracy(logits, ds.labels, ds.test_mask)
        metrics.append(EpochMetrics(epoch, epoch_loss, val_acc, test_acc))
        if val_acc > best_val:
            best_val = val_acc
            best = params.copy()
    return best, metrics
