"""Classifier forward pass, loss, exact gradients, and the training loop."""
import numpy as np
import pytest

from grade import (
    ActivationSpec,
    CsbmConfig,
    Dataset,
    DynamicsConfig,
    KernelSpec,
    ModelParams,
    ProjectionParams,
    SolverConfig,
    TrainConfig,
    csbm_generate,
    finite_difference_grad,
    forward,
    from_edge_list,
    gradient_check,
    integrate,
    loss,
    loss_and_grad,
    rhs,
    train,
)
from grade.training import accuracy, init_params, max_relative_error
from grade import autodiff as ad

from _oracles import linear_diffusion_forward, random_connected_graph


def toy_dataset(n=4, d_in=2, seed=0, graph=None):
    rng = np.random.default_rng(seed)
    g = graph if graph is not None else random_connected_graph(rng, n)
    features = rng.normal(size=(g.n, d_in))
    labels = rng.integers(0, 2, size=g.n)
    train_mask = np.ones(g.n, dtype=bool)
    return Dataset(g, features, labels, train_mask,
                   np.zeros(g.n, bool), np.zeros(g.n, bool))


def identity_params(d):
    return ModelParams(np.eye(d), np.zeros(d), np.eye(d), np.zeros(d))


def diffusion_only_cfg(horizon=1.0, step=0.5, activation="identity"):
    return TrainConfig(
        dynamics=DynamicsConfig(
            activation=ActivationSpec(activation),
            kernel=KernelSpec("gaussian"),
            diffusion_on=True,
            aggregation_on=False,
        ),
        solver=SolverConfig("euler", step=step, horizon=horizon),
        hidden=1,
    )


# --------------------------------------------------------------- forward


def test_forward_zero_encoder_fixed_point():
    ds = toy_dataset(n=5, seed=1)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(activation=ActivationSpec("tanh"),
                                kernel=KernelSpec("gaussian")),
        solver=SolverConfig("euler", step=0.5, horizon=2.0),
        hidden=3,
    )
    bias = np.array([0.3, -0.7])
    p = ModelParams(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 2)), bias)
    logits, traj = forward(p, ds, cfg)
    np.testing.assert_array_equal(traj.final_state, np.zeros((5, 3)))
    np.testing.assert_allclose(logits, np.tile(bias, (5, 1)))


def test_forward_zero_horizon_short_circuits():
    ds = toy_dataset(n=4, seed=2)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(kernel=KernelSpec("gaussian")),
        solver=SolverConfig("euler", step=1.0, horizon=0.0),
        hidden=2,
    )
    p = init_params(ds, cfg)
    logits, traj = forward(p, ds, cfg)
    encoded = ds.features @ p.enc_weight + p.enc_bias
    np.testing.assert_allclose(logits, encoded @ p.dec_weight + p.dec_bias)
    assert traj.step_count == 0


def test_forward_matches_hand_unrolled_p2():
    # identity encoder/decoder, diffusion only, two Euler half-steps:
    # X1 = [[.5],[.5]], X2 = X1 (fixed point), logits = X2
    g = from_edge_list(2, [(0, 1)])
    ds = Dataset(g, np.array([[0.0], [1.0]]), np.array([0, 1]),
                 np.ones(2, bool), np.zeros(2, bool), np.zeros(2, bool))
    logits, traj = forward(identity_params(1), ds, diffusion_only_cfg())
    np.testing.assert_allclose(traj.states[1], [[0.5], [0.5]])
    np.testing.assert_allclose(logits, [[0.5], [0.5]])
    assert traj.step_count == 2


def test_forward_matches_integrate_bitwise():
    ds = toy_dataset(n=6, seed=3)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(activation=ActivationSpec("tanh"),
                                kernel=KernelSpec("power", delta=0.5)),
        solver=SolverConfig("rk4", step=0.3, horizon=1.0),
        hidden=2,
    )
    p = init_params(ds, cfg)
    _, traj = forward(p, ds, cfg)
    X0 = ds.features @ p.enc_weight + p.enc_bias
    ref = integrate(lambda X, t: rhs(cfg.dynamics, ds.graph, X, t), X0, cfg.solver)
    np.testing.assert_array_equal(traj.final_state, ref.final_state)
    np.testing.assert_array_equal(traj.times, ref.times)


def test_forward_permutation_equivariant():
    rng = np.random.default_rng(4)
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    features = rng.normal(size=(5, 2))
    labels = rng.integers(0, 2, size=5)
    ds = Dataset(g, features, labels, np.ones(5, bool), np.zeros(5, bool), np.zeros(5, bool))
    cfg = TrainConfig(
        dynamics=DynamicsConfig(activation=ActivationSpec("tanh"),
                                kernel=KernelSpec("log")),
        solver=SolverConfig("euler", step=0.25, horizon=1.0),
        hidden=3,
    )
    p = init_params(ds, cfg)
    logits, _ = forward(p, ds, cfg)

    perm = np.array([4, 2, 0, 1, 3])
    relabeled = [(int(perm[u]), int(perm[v])) for u, v in zip(g.edge_u, g.edge_v)]
    g2 = from_edge_list(5, relabeled)
    feat2 = np.zeros_like(features)
    feat2[perm] = features
    lab2 = np.zeros_like(labels)
    lab2[perm] = labels
    ds2 = Dataset(g2, feat2, lab2, np.ones(5, bool), np.zeros(5, bool), np.zeros(5, bool))
    logits2, _ = forward(p, ds2, cfg)
    np.testing.assert_allclose(logits2[perm], logits, atol=1e-12)


# ------------------------------------------------------------------ loss


def test_loss_uniform_logits_is_log2():
    logits = np.zeros((5, 2))
    labels = np.array([0, 1, 0, 1, 1])
    assert loss(logits, labels, np.ones(5, bool)) == pytest.approx(np.log(2.0))


def test_loss_saturated_logits_near_zero():
    labels = np.array([0, 1, 1])
    logits = np.array([[20.0, 0.0], [0.0, 20.0], [0.0, 20.0]])
    assert loss(logits, labels, np.ones(3, bool)) < 1e-3


def test_loss_matches_direct_formula():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    mask = np.array([True, False, True, True])
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean([np.log(probs[i, labels[i]]) for i in range(4) if mask[i]])
    assert loss(logits, labels, mask) == pytest.approx(expected, rel=1e-12)


def test_loss_rejects_empty_mask():
    with pytest.raises(ValueError, match="no nodes"):
        loss(np.zeros((2, 2)), np.zeros(2, dtype=int), np.zeros(2, bool))


def test_loss_masks_ignore_other_nodes():
    logits = np.array([[5.0, 0.0], [0.0, 5.0]])
    labels = np.array([0, 0])
    only_first = np.array([True, False])
    assert loss(logits, labels, only_first) < 1e-2
    only_second = np.array([False, True])
    assert loss(logits, labels, only_second) > 1.0


# ------------------------------------------------------------- gradients


def test_grad_zero_for_untouched_decoder_column():
    # class 2 never appears in the train labels of this 3-class problem,
    # but softmax still couples all columns; instead check theta's block is
    # zero when no attention is used anywhere
    ds = toy_dataset(n=5, seed=6)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(activation=ActivationSpec("tanh"),
                                kernel=KernelSpec("gaussian")),
        solver=SolverConfig("euler", step=0.5, horizon=1.0),
        hidden=2,
    )
    p = init_params(ds, cfg)
    p = ModelParams(p.enc_weight, p.enc_bias, p.dec_weight, p.dec_bias,
                    theta=np.ones((2, 2)))
    _, grads = loss_and_grad(p, ds, cfg)
    np.testing.assert_array_equal(grads.theta, np.zeros((2, 2)))


def test_grad_scales_linearly_with_loss():
    # doubling the seeded loss doubles every gradient entry
    from grade import autodiff as ad
    from grade.training import _loss_tensor, _param_leaves, _unroll

    ds = toy_dataset(n=4, seed=7)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(activation=ActivationSpec("tanh"),
                                kernel=KernelSpec("gaussian")),
        solver=SolverConfig("euler", step=0.5, horizon=1.0),
        hidden=2,
    )
    p = init_params(ds, cfg)

    leaves = _param_leaves(p, requires_grad=True)
    logits, _, _ = _unroll(ds, cfg, leaves)
    _loss_tensor(logits, ds.labels, ds.train_mask).backward()
    single = {k: v.grad.copy() for k, v in leaves.items()}

    leaves2 = _param_leaves(p, requires_grad=True)
    logits2, _, _ = _unroll(ds, cfg, leaves2)
    ad.mul(_loss_tensor(logits2, ds.labels, ds.train_mask), 2.0).backward()
    for k, v in leaves2.items():
        np.testing.assert_allclose(v.grad, 2.0 * single[k], rtol=1e-12)


def test_finite_difference_quadratic_exact():
    # FD oracle sanity: central differences are exact for quadratics
    g = from_edge_list(2, [(0, 1)])
    ds = Dataset(g, np.array([[3.0], [0.0]]), np.array([0, 1]),
                 np.ones(2, bool), np.zeros(2, bool), np.zeros(2, bool))

    class _Quad:
        pass

    # use the generic helper through a tiny closure instead: w -> w^2 at w=3
    h = 1e-5
    w = 3.0
    fd = ((w + h) ** 2 - (w - h) ** 2) / (2 * h)
    assert fd == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_grad_matches_finite_differences(seed):
    # seeds 0..3 rotate kernel kinds gaussian/power/log/attention and
    # static/attention adjacency via the instance generator
    from grade.training import _random_instance

    ds, params, cfg = _random_instance(seed, 1e-5)
    _, grads = loss_and_grad(params, ds, cfg)
    fd = finite_difference_grad(params, ds, cfg, 1e-5)
    assert max_relative_error(grads, fd) <= 1e-5


def test_finite_difference_richardson_order():
    # halving h changes the estimate by O(h^2) on a smooth configuration
    from grade.training import _random_instance

    ds, params, cfg = _random_instance(0, 1e-3)
    f1 = finite_difference_grad(params, ds, cfg, 2e-3)
    f2 = finite_difference_grad(params, ds, cfg, 1e-3)
    f3 = finite_difference_grad(params, ds, cfg, 5e-4)
    d12 = np.max(np.abs(f1.enc_weight - f2.enc_weight))
    d23 = np.max(np.abs(f2.enc_weight - f3.enc_weight))
    assert d23 <= d12 / 2.5  # ~4x shrink expected, allow slack


def test_gradient_check_harness():
    worst, errors = gradient_check(seed=0, instances=4, h=1e-5)
    assert len(errors) == 4
    assert worst <= 1e-5


# -------------------------------------------------- degenerate diffusion


def test_forward_equals_dedicated_linear_diffusion_implementation():
    # aggregation off, identity activation, attention adjacency: the whole
    # network is the attention-diffusion classifier; compare against an
    # independent dense implementation
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(3, 9))
        g = random_connected_graph(rng, n)
        d_in, hidden = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        features = rng.normal(size=(n, d_in))
        labels = rng.integers(0, 2, size=n)
        ds = Dataset(g, features, labels, np.ones(n, bool),
                     np.zeros(n, bool), np.zeros(n, bool))
        cfg = TrainConfig(
            dynamics=DynamicsConfig(
                activation=ActivationSpec("identity"),
                adjacency_mode="attention",
                attention=ProjectionParams(np.zeros((hidden, hidden))),
                kernel=KernelSpec("gaussian"),
                diffusion_on=True,
                aggregation_on=False,
            ),
            solver=SolverConfig("euler", step=0.25, horizon=1.5),
            hidden=hidden,
            seed=trial,
        )
        p = init_params(ds, cfg)
        logits, _ = forward(p, ds, cfg)
        expected = linear_diffusion_forward(
            features, p.enc_weight, p.enc_bias, p.dec_weight, p.dec_bias,
            p.theta, float(hidden), g, 0.25, 1.5,
        )
        np.testing.assert_allclose(logits, expected, atol=1e-10)


# ------------------------------------------------------------------ train


def test_train_zero_learning_rate_is_inert():
    ds = csbm_generate(CsbmConfig(n=20, p_intra=0.9, p_inter=0.1), seed=0)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(kernel=KernelSpec("gaussian", normalize_rows=True)),
        solver=SolverConfig("euler", step=1.0, horizon=2.0),
        learning_rate=0.0,
        epochs=5,
        seed=3,
    )
    params, metrics = train(ds, cfg)
    init = init_params(ds, cfg)
    np.testing.assert_array_equal(params.enc_weight, init.enc_weight)
    losses = [m.loss for m in metrics]
    assert all(l == losses[0] for l in losses)


def test_train_deterministic_given_seed():
    ds = csbm_generate(CsbmConfig(n=20, p_intra=0.9, p_inter=0.1), seed=1)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(kernel=KernelSpec("gaussian", normalize_rows=True)),
        solver=SolverConfig("euler", step=1.0, horizon=2.0),
        learning_rate=0.1,
        epochs=8,
        seed=5,
    )
    _, m1 = train(ds, cfg)
    _, m2 = train(ds, cfg)
    assert [(m.loss, m.val_acc, m.test_acc) for m in m1] == [
        (m.loss, m.val_acc, m.test_acc) for m in m2
    ]


def test_train_two_clique_separable_reaches_perfect_accuracy():
    ds = csbm_generate(CsbmConfig(n=40, p_intra=1.0, p_inter=0.0,
                                  class_mean_separation=1.0, noise_std=0.1), seed=2)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(kernel=KernelSpec("gaussian", normalize_rows=True)),
        solver=SolverConfig("euler", step=1.0, horizon=2.0),
        learning_rate=0.5,
        epochs=50,
        weight_decay=1e-4,
        seed=0,
    )
    params, metrics = train(ds, cfg)
    logits, _ = forward(params, ds, cfg)
    assert accuracy(logits, ds.labels, ds.test_mask) == 1.0
    assert any(m.test_acc == 1.0 for m in metrics)


def test_train_requires_masks():
    g = from_edge_list(2, [(0, 1)])
    ds = Dataset(g, np.zeros((2, 1)), np.array([0, 1]),
                 np.zeros(2, bool), np.zeros(2, bool), np.ones(2, bool))
    with pytest.raises(ValueError, match="masks"):
        train(ds, TrainConfig())


def test_train_config_rejects_adaptive_solver():
    with pytest.raises(ValueError, match="fixed-step"):
        TrainConfig(solver=SolverConfig("dopri5", horizon=1.0))


def test_model_params_json_roundtrip():
    p = ModelParams(np.eye(2), np.ones(3), np.zeros((3, 2)), np.array([1.0, -1.0]),
                    theta=np.full((2, 3), 0.5))
    q = ModelParams.from_json(p.to_json())
    for (_, a), (_, b) in zip(p.fields(), q.fields()):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_forward_trajectory_is_integrate_bit_for_bit(method):
    # the unroll and integrate walk the same fixed-step grid, recording
    # every record_every-th state plus the last (here steps 2, 4 and 5)
    ds = toy_dataset(n=6, seed=4)
    cfg = TrainConfig(
        dynamics=DynamicsConfig(kernel=KernelSpec("gaussian", normalize_rows=True)),
        solver=SolverConfig(method, step=0.5, horizon=2.3, record_every=2),
        hidden=3,
    )
    p = init_params(ds, cfg)
    _, traj = forward(p, ds, cfg)
    X0 = ad.add(ad.matmul(ad.constant(ds.features), ad.constant(p.enc_weight)),
                ad.constant(p.enc_bias)).data
    want = integrate(lambda X, t: rhs(cfg.dynamics, ds.graph, X, t), X0, cfg.solver)
    np.testing.assert_array_equal(traj.times, want.times)
    np.testing.assert_array_equal(traj.times, [0.0, 1.0, 2.0, 2.3])
    np.testing.assert_array_equal(traj.states, want.states)
    assert traj.step_count == want.step_count == 5


def _reference_train(ds, cfg):
    """The training loop with a separate forward after every update."""
    params = init_params(ds, cfg)
    best, best_val, rows = params.copy(), -1.0, []
    for epoch in range(cfg.epochs):
        value, grads = loss_and_grad(params, ds, cfg)
        updated = params.copy()
        for name, _ in params.fields():
            step = getattr(grads, name).copy()
            if name in ("enc_weight", "dec_weight", "theta"):
                step += cfg.weight_decay * getattr(params, name)
            getattr(updated, name)[...] = getattr(params, name) - cfg.learning_rate * step
        params = updated
        logits, _ = forward(params, ds, cfg)
        val_acc = accuracy(logits, ds.labels, ds.val_mask)
        rows.append((epoch, value, val_acc, accuracy(logits, ds.labels, ds.test_mask)))
        if val_acc > best_val:
            best_val, best = val_acc, params.copy()
    return best, rows


_NOISY_TRAIN_CONFIGS = [
    DynamicsConfig(kernel=KernelSpec("gaussian", normalize_rows=True)),
    DynamicsConfig(adjacency_mode="attention", kernel=KernelSpec("attention"),
                   attention=ProjectionParams(np.zeros((4, 4)))),
]


@pytest.mark.parametrize("dynamics", _NOISY_TRAIN_CONFIGS)
def test_train_metrics_equal_a_forward_after_every_update(dynamics):
    ds = csbm_generate(CsbmConfig(n=30, p_intra=0.5, p_inter=0.2, noise_std=1.2), seed=4)
    cfg = TrainConfig(dynamics=dynamics, solver=SolverConfig("euler", step=0.5, horizon=1.0),
                      learning_rate=0.3, epochs=12, seed=2, hidden=4)
    best, metrics = train(ds, cfg)
    want_best, want_rows = _reference_train(ds, cfg)
    assert [(m.epoch, m.loss, m.val_acc, m.test_acc) for m in metrics] == want_rows
    assert len({m.val_acc for m in metrics}) > 1  # the accuracies do move
    for (_, got), (_, want) in zip(best.fields(), want_best.fields()):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dynamics", _NOISY_TRAIN_CONFIGS)
def test_taped_logits_equal_forward_bit_for_bit(dynamics):
    ds = csbm_generate(CsbmConfig(n=30, p_intra=0.5, p_inter=0.2, noise_std=1.2), seed=4)
    cfg = TrainConfig(dynamics=dynamics, solver=SolverConfig("rk4", step=0.5, horizon=1.0),
                      seed=2, hidden=4)
    p = init_params(ds, cfg)
    value, grads, logits = loss_and_grad(p, ds, cfg, with_logits=True)
    np.testing.assert_array_equal(logits, forward(p, ds, cfg)[0])
    plain_value, plain_grads = loss_and_grad(p, ds, cfg)
    assert value == plain_value
    for (_, got), (_, want) in zip(grads.fields(), plain_grads.fields()):
        np.testing.assert_array_equal(got, want)
