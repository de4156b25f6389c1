"""Diffusion term, aggregation term, attention adjacency, and the full RHS."""
import numpy as np
import pytest

from grade import (
    ActivationSpec,
    DynamicsConfig,
    KernelSpec,
    ProjectionParams,
    aggregation_term,
    attention_adjacency,
    diffusion_term,
    from_edge_list,
    kernel_matrix,
    rhs,
    row_normalized_adjacency,
)

from _oracles import (
    dense_aggregation,
    dense_attention,
    dense_diffusion,
    dense_kernel_matrix,
    dense_rhs,
    dense_row_normalized,
    random_connected_graph,
)


def _p2():
    return from_edge_list(2, [(0, 1)])


def _p3():
    return from_edge_list(3, [(0, 1), (1, 2)])


# ------------------------------------------------------------- attention


def test_attention_zero_theta_is_uniform():
    g = _p3()
    X = np.random.default_rng(0).normal(size=(3, 2))
    A = attention_adjacency(X, ProjectionParams(np.zeros((2, 2))), g).toarray()
    np.testing.assert_allclose(A[1], [0.5, 0.0, 0.5])


def test_attention_single_neighbor_rows():
    g = _p2()
    rng = np.random.default_rng(1)
    A = attention_adjacency(
        rng.normal(size=(2, 3)), ProjectionParams(rng.normal(size=(2, 3))), g
    ).toarray()
    np.testing.assert_array_equal(A, [[0.0, 1.0], [1.0, 0.0]])


def test_attention_rows_sum_to_one_fuzz():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng, 5)
        X = rng.normal(size=(5, 2))
        p = ProjectionParams(rng.normal(size=(3, 2)))
        A = attention_adjacency(X, p, g).toarray()
        np.testing.assert_allclose(A.sum(axis=1), np.ones(5), atol=1e-12)
        np.testing.assert_allclose(A, dense_attention(X, p.theta, p.scale, g), atol=1e-12)


def test_attention_rejects_empty_neighborhood():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(ValueError, match="no neighbors"):
        attention_adjacency(np.zeros((3, 1)), ProjectionParams(np.zeros((1, 1))), g)


@pytest.mark.parametrize("build, message", [
    (lambda: ActivationSpec("swish"), "unknown activation 'swish'"),
    (lambda: DynamicsConfig(adjacency_mode="dense"), "unknown adjacency mode 'dense'"),
])
def test_dynamics_config_rejects_unknown_names(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_aggregation_term_takes_a_kernel_on_an_equal_graph():
    rng = np.random.default_rng(3)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g, copy = from_edge_list(4, edges), from_edge_list(4, edges)
    X = rng.normal(size=(4, 2))
    cfg = DynamicsConfig(kernel=KernelSpec("gaussian"))
    K = kernel_matrix(cfg.kernel, X, g)
    np.testing.assert_array_equal(aggregation_term(cfg, copy, K, X),
                                  aggregation_term(cfg, g, K, X))
    with pytest.raises(ValueError, match="state row count must equal node count"):
        aggregation_term(cfg, g, K, X[:3])


def test_attention_scale_defaults_to_projected_dim():
    p = ProjectionParams(np.zeros((4, 2)))
    assert p.scale == 4.0


# ------------------------------------------------------------- diffusion


def _cfg(activation="identity", **kw):
    defaults = dict(
        activation=ActivationSpec(activation),
        kernel=KernelSpec("gaussian"),
        diffusion_on=True,
        aggregation_on=True,
    )
    defaults.update(kw)
    return DynamicsConfig(**defaults)


def test_diffusion_identical_rows_vanishes():
    g = _p3()
    A = row_normalized_adjacency(g)
    X = np.tile([2.0, -1.0], (3, 1))
    out = diffusion_term(_cfg("tanh"), A, X)
    np.testing.assert_allclose(out, np.zeros((3, 2)), atol=1e-15)


def test_diffusion_p2_identity():
    g = _p2()
    out = diffusion_term(_cfg(), row_normalized_adjacency(g), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(out, [[1.0], [-1.0]])


def test_diffusion_tanh_matches_dense_oracle():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 6)
    X = np.zeros((6, 2))
    X[2, 1] = 3.0
    A = row_normalized_adjacency(g)
    out = diffusion_term(_cfg("tanh"), A, X)
    expected = dense_diffusion(dense_row_normalized(g), "tanh", X)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_diffusion_translation_invariant_identity():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 7)
    X = rng.normal(size=(7, 2))
    A = row_normalized_adjacency(g)
    base = diffusion_term(_cfg(), A, X)
    shifted = diffusion_term(_cfg(), A, X + np.array([10.0, -4.0]))
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_diffusion_shape_mismatch():
    g = _p2()
    with pytest.raises(ValueError, match="shape"):
        diffusion_term(_cfg(), row_normalized_adjacency(g), np.zeros((3, 1)))


# ----------------------------------------------------------- aggregation


def test_aggregation_equal_features_regular_graph_vanishes():
    g = _p2()
    X = np.tile([0.7], (2, 1))
    K = kernel_matrix(KernelSpec("gaussian"), X, g)
    out = aggregation_term(_cfg(), g, K, X)
    np.testing.assert_array_equal(out, np.zeros((2, 1)))


def test_aggregation_zero_state_vanishes():
    g = _p3()
    X = np.zeros((3, 2))
    for kind in ("gaussian", "log", "power"):
        K = kernel_matrix(KernelSpec(kind), X, g)
        out = aggregation_term(_cfg(), g, K, X)
        np.testing.assert_array_equal(out, np.zeros((3, 2)))


def test_aggregation_matches_triple_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(6):
        g = random_connected_graph(rng, 8)
        X = rng.normal(size=(8, 2))
        spec = KernelSpec("power", delta=0.5)
        K = kernel_matrix(spec, X, g)
        out = aggregation_term(_cfg(), g, K, X)
        expected = dense_aggregation(g, dense_kernel_matrix(g, "power", X, delta=0.5), X)
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_aggregation_support_mismatch():
    g = _p3()
    other = from_edge_list(3, [(0, 2), (1, 2)])
    K = kernel_matrix(KernelSpec("gaussian"), np.zeros((3, 1)), other)
    with pytest.raises(ValueError, match="support"):
        aggregation_term(_cfg(), g, K, np.zeros((3, 1)))


def test_aggregation_respects_edge_weights():
    g = from_edge_list(3, [(0, 1), (1, 2)], weights=[2.0, 0.5])
    rng = np.random.default_rng(8)
    X = rng.normal(size=(3, 2))
    K = kernel_matrix(KernelSpec("gaussian"), X, g)
    out = aggregation_term(_cfg(), g, K, X)
    expected = dense_aggregation(g, dense_kernel_matrix(g, "gaussian", X), X)
    np.testing.assert_allclose(out, expected, atol=1e-13)


# ------------------------------------------------------------------- rhs


def test_rhs_composition_matches_terms():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 7)
    X = rng.normal(size=(7, 2))
    cfg = _cfg("tanh", kernel=KernelSpec("power", delta=0.3))
    A = row_normalized_adjacency(g)
    K = kernel_matrix(cfg.kernel, X, g)
    combined = diffusion_term(cfg, A, X) + aggregation_term(cfg, g, K, X)
    np.testing.assert_allclose(rhs(cfg, g, X), combined, atol=1e-12)


def test_rhs_autonomous():
    rng = np.random.default_rng(10)
    g = random_connected_graph(rng, 5)
    X = rng.normal(size=(5, 2))
    cfg = _cfg("tanh")
    np.testing.assert_array_equal(rhs(cfg, g, X, 0.0), rhs(cfg, g, X, 17.3))


def test_rhs_degenerate_linear_diffusion_p2():
    # aggregation off, identity activation, attention adjacency: plain
    # linear diffusion; on P2 the attention row is forced to the single
    # neighbor, so rhs equals (A - I) X exactly.
    g = _p2()
    cfg = DynamicsConfig(
        activation=ActivationSpec("identity"),
        adjacency_mode="attention",
        attention=ProjectionParams(np.ones((1, 1))),
        kernel=KernelSpec("gaussian"),
        diffusion_on=True,
        aggregation_on=False,
    )
    out = rhs(cfg, g, np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(out, [[1.0], [-1.0]], atol=1e-15)


def test_rhs_fixed_point_equal_features():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])  # 2-regular triangle
    X = np.tile([0.4, -0.2], (3, 1))
    cfg = _cfg("tanh")
    np.testing.assert_allclose(rhs(cfg, g, X), np.zeros((3, 2)), atol=1e-15)


def test_rhs_requires_one_term():
    with pytest.raises(ValueError, match="at least one"):
        _cfg(diffusion_on=False, aggregation_on=False)


def test_rhs_permutation_equivariance():
    rng = np.random.default_rng(12)
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    X = rng.normal(size=(5, 2))
    cfg = _cfg("tanh", kernel=KernelSpec("log"))
    perm = np.array([3, 1, 4, 0, 2])  # node u -> perm[u]
    relabeled = [(int(perm[u]), int(perm[v])) for u, v in zip(g.edge_u, g.edge_v)]
    g2 = from_edge_list(5, relabeled)
    X2 = np.zeros_like(X)
    X2[perm] = X
    out2 = rhs(cfg, g2, X2)
    out = rhs(cfg, g, X)
    np.testing.assert_allclose(out2[perm], out, atol=1e-12)


@pytest.mark.parametrize("kind", ["log", "power", "gaussian", "attention"])
@pytest.mark.parametrize("mode", ["static_row_normalized", "attention"])
def test_rhs_matches_dense_oracle_all_kinds(kind, mode):
    rng = np.random.default_rng(hash((kind, mode)) % 2**32)
    for _ in range(4):
        n = int(rng.integers(3, 13))
        g = random_connected_graph(rng, n)
        X = rng.normal(size=(n, 3))
        attention = ProjectionParams(rng.normal(size=(2, 3)))
        cfg = DynamicsConfig(
            activation=ActivationSpec("tanh"),
            adjacency_mode=mode,
            attention=attention,
            kernel=KernelSpec(kind, delta=0.4, bandwidth=1.1),
            diffusion_on=True,
            aggregation_on=True,
        )
        np.testing.assert_allclose(rhs(cfg, g, X), dense_rhs(g, cfg, X), atol=1e-12)


def test_rhs_normalized_kernel_matches_oracle():
    rng = np.random.default_rng(14)
    g = random_connected_graph(rng, 6)
    X = rng.normal(size=(6, 2))
    cfg = _cfg("tanh", kernel=KernelSpec("gaussian", normalize_rows=True))
    np.testing.assert_allclose(rhs(cfg, g, X), dense_rhs(g, cfg, X), atol=1e-12)


def test_dynamics_config_json_roundtrip():
    cfg = DynamicsConfig(
        activation=ActivationSpec("softplus"),
        adjacency_mode="attention",
        attention=ProjectionParams(np.arange(6, dtype=float).reshape(2, 3), 5.0),
        kernel=KernelSpec("power", delta=0.2),
        diffusion_on=True,
        aggregation_on=False,
    )
    again = DynamicsConfig.from_json(cfg.to_json())
    assert again.activation == cfg.activation
    assert again.adjacency_mode == cfg.adjacency_mode
    assert again.kernel == cfg.kernel
    np.testing.assert_array_equal(again.attention.theta, cfg.attention.theta)
    assert again.attention.scale == cfg.attention.scale
