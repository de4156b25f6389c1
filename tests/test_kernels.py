"""Kernel scalars, edge-supported kernel matrices, and row normalization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grade import autodiff as ad
from grade import (
    KernelMatrix,
    KernelSpec,
    ProjectionParams,
    from_edge_list,
    kernel_matrix,
    kernel_scalar,
    row_normalize,
)
from grade.kernels import kernel_arc_values, kernel_weights, normalized_kernel_arc_values

from _oracles import (
    dense_kernel_matrix,
    kernel_value,
    random_connected_graph,
    random_graph,
    ref_kernel_weights,
)


def test_gaussian_at_zero_is_one():
    assert kernel_scalar(KernelSpec("gaussian"), np.zeros(3)) == 1.0


def test_log_at_unit_norm_is_zero():
    assert kernel_scalar(KernelSpec("log"), np.array([1.0])) == 0.0


def test_power_delta_zero():
    assert kernel_scalar(KernelSpec("power", delta=0.0), np.array([2.0])) == 0.25


def test_scalar_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        kernel_scalar(KernelSpec("log"), np.array([np.nan]))


def test_scalar_rejects_attention_kind():
    with pytest.raises(ValueError, match="matrix level"):
        kernel_scalar(KernelSpec("attention"), np.zeros(2))


def test_singularity_clamp():
    spec = KernelSpec("log", singularity_floor=1e-6)
    assert kernel_scalar(spec, np.zeros(2)) == pytest.approx(np.log(1e-6))
    spec = KernelSpec("power", delta=1.0, singularity_floor=1e-2)
    assert kernel_scalar(spec, np.zeros(2)) == pytest.approx(1e-2 ** -3.0)


def test_kernel_scalar_bounds_fuzz():
    # clamped kernels are globally bounded: power <= floor^(-2-delta),
    # |log| <= max(|log floor|, log(max norm))
    rng = np.random.default_rng(9)
    floor = 1e-4
    for _ in range(200):
        z = rng.normal(0, 10, size=int(rng.integers(1, 5)))
        p = kernel_scalar(KernelSpec("power", delta=0.5, singularity_floor=floor), z)
        assert 0 < p <= floor ** -2.5
        l = kernel_scalar(KernelSpec("log", singularity_floor=floor), z)
        bound = max(abs(np.log(floor)), abs(np.log(max(np.linalg.norm(z), floor))))
        assert abs(l) <= bound + 1e-12


def test_matrix_identical_rows_gaussian():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    X = np.tile([1.5, -2.0], (4, 1))
    K = kernel_matrix(KernelSpec("gaussian"), X, g)
    assert np.all(K.values == 1.0)


def test_matrix_p2_log_zero():
    g = from_edge_list(2, [(0, 1)])
    X = np.array([[0.0], [1.0]])
    K = kernel_matrix(KernelSpec("log"), X, g)
    np.testing.assert_array_equal(K.toarray(), np.zeros((2, 2)))


@pytest.mark.parametrize("kind", ["log", "power", "gaussian"])
def test_matrix_matches_bruteforce(kind):
    rng = np.random.default_rng(31)
    for trial in range(8):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        X = rng.normal(size=(g.n, 2))
        spec = KernelSpec(kind, delta=0.7, bandwidth=1.3)
        K = kernel_matrix(spec, X, g).toarray()
        expected = dense_kernel_matrix(g, kind, X, delta=0.7, bandwidth=1.3)
        np.testing.assert_allclose(K, expected, atol=1e-12)


def test_radial_matrix_symmetric_and_translation_invariant():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 7)
    X = rng.normal(size=(7, 3))
    for kind in ("log", "power", "gaussian"):
        spec = KernelSpec(kind, delta=0.3)
        K = kernel_matrix(spec, X, g).toarray()
        np.testing.assert_array_equal(K, K.T)
        shifted = kernel_matrix(spec, X + np.array([5.0, -3.0, 2.0]), g).toarray()
        np.testing.assert_allclose(shifted, K, atol=1e-12)


def test_radial_matrix_permutation_consistency():
    rng = np.random.default_rng(23)
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    X = rng.normal(size=(4, 2))
    perm = np.array([2, 0, 3, 1])
    relabeled = [(int(perm[u]), int(perm[v])) for u, v in zip(g.edge_u, g.edge_v)]
    g2 = from_edge_list(4, relabeled)
    for kind in ("log", "power"):
        K = kernel_matrix(KernelSpec(kind), X, g).toarray()
        K2 = kernel_matrix(KernelSpec(kind), X[np.argsort(perm)], g2).toarray()
        np.testing.assert_allclose(K2[np.ix_(perm, perm)], K, atol=1e-14)


def test_attention_matrix_rows_sum_to_one():
    rng = np.random.default_rng(29)
    g = random_connected_graph(rng, 6)
    X = rng.normal(size=(6, 3))
    theta = ProjectionParams(rng.normal(size=(2, 3)))
    K = kernel_matrix(KernelSpec("attention"), X, g, attention=theta)
    np.testing.assert_allclose(K.row_sums(), np.ones(6), atol=1e-12)
    expected = dense_kernel_matrix(g, "attention", X, theta=theta.theta, scale=theta.scale)
    np.testing.assert_allclose(K.toarray(), expected, atol=1e-12)


def test_attention_requires_theta():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError, match="projection"):
        kernel_matrix(KernelSpec("attention"), np.zeros((2, 1)), g)


def test_attention_dimension_mismatch():
    g = from_edge_list(2, [(0, 1)])
    theta = ProjectionParams(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="match"):
        kernel_matrix(KernelSpec("attention"), np.zeros((2, 2)), g, attention=theta)


def test_row_normalize_basic():
    g = from_edge_list(3, [(0, 1), (0, 2)])
    K = KernelMatrix(g, np.array([2.0, 2.0, 2.0, 2.0]))
    normed = row_normalize(K)
    np.testing.assert_allclose(normed.toarray()[0], [0.0, 0.5, 0.5])
    again = row_normalize(normed)
    np.testing.assert_allclose(again.values, normed.values, atol=1e-15)


def test_row_normalize_keeps_zero_rows():
    g = from_edge_list(3, [(0, 1), (0, 2)])
    K = KernelMatrix(g, np.array([1.0, 3.0, 0.0, 0.0]))
    normed = row_normalize(K)
    # rows 1 and 2 sum to zero and stay zero; row 0 rescales to 1
    np.testing.assert_allclose(normed.toarray()[0], [0.0, 0.25, 0.75])
    np.testing.assert_array_equal(normed.toarray()[1:], np.zeros((2, 3)))


def test_row_normalize_rejects_negative_sum():
    g = from_edge_list(2, [(0, 1)])
    K = KernelMatrix(g, np.array([-1.0, -1.0]))
    with pytest.raises(ValueError, match="negative"):
        row_normalize(K)


@pytest.mark.parametrize("build, message", [
    (lambda g: ProjectionParams(np.ones(2)), "theta must be a 2-d matrix"),
    (lambda g: KernelMatrix(g, np.ones(g.arc_src.size + 1)),
     "values must align with the graph's arc table"),
    (lambda g: kernel_arc_values(KernelSpec("gaussian"), np.zeros((g.n + 1, 2)), g),
     "feature row count must equal node count"),
    (lambda g: kernel_arc_values(KernelSpec("attention"), np.zeros((g.n, 2)), g),
     "attention kernel is not radial"),
    (lambda g: kernel_matrix(KernelSpec("gaussian"), np.full((g.n, 2), np.inf), g),
     "state matrix must be finite"),
])
def test_kernel_inputs_are_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build(from_edge_list(3, [(0, 1), (1, 2)]))


def test_row_normalize_rejects_nonfinite():
    g = from_edge_list(2, [(0, 1)])
    K = KernelMatrix(g, np.array([np.inf, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        row_normalize(K)


def test_normalize_rows_flag_in_matrix():
    rng = np.random.default_rng(41)
    g = random_connected_graph(rng, 5)
    X = rng.normal(size=(5, 2))
    K = kernel_matrix(KernelSpec("gaussian", normalize_rows=True), X, g)
    np.testing.assert_allclose(K.row_sums(), np.ones(5), atol=1e-12)


def test_normalized_matrix_is_the_softmax_the_dynamics_use():
    # raw gaussian values exp(-800) underflow to 0; dividing by raw row sums
    # would leave all-zero rows, the per-neighborhood softmax does not
    g = from_edge_list(3, [(0, 1), (1, 2)])
    X = np.array([[0.0], [40.0], [80.0]])
    spec = KernelSpec("gaussian", bandwidth=1.0, normalize_rows=True)
    K = kernel_matrix(spec, X, g)
    np.testing.assert_array_equal(K.row_sums(), np.ones(3))
    np.testing.assert_array_equal(K.values, [1.0, 0.5, 0.5, 1.0])
    np.testing.assert_array_equal(K.values, normalized_kernel_arc_values(spec, X, g).data.reshape(-1))


def test_nonpositive_log_row_sum_names_the_node():
    # on the path 0-1-2, node 0's row is log 5 > 0 and node 1's is
    # log 5 + log 0.1 < 0: node 1 is the first row that cannot be normalized
    g = from_edge_list(3, [(0, 1), (1, 2)])
    X = np.array([[0.0], [5.0], [5.1]])
    with pytest.raises(ValueError, match="positive finite sums.*node 1's row"):
        kernel_matrix(KernelSpec("log", normalize_rows=True), X, g)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("cubic")
    with pytest.raises(ValueError):
        KernelSpec("gaussian", bandwidth=0.0)
    with pytest.raises(ValueError):
        KernelSpec("log", singularity_floor=0.0)
    with pytest.raises(ValueError):
        KernelSpec("power", delta=-1.0)


def test_spec_json_roundtrip():
    spec = KernelSpec("power", delta=0.5, bandwidth=2.0, normalize_rows=True,
                      singularity_floor=1e-5)
    again = KernelSpec.from_json(spec.to_json())
    assert again == spec


def test_kernel_scalar_matches_oracle_formula():
    rng = np.random.default_rng(59)
    for _ in range(50):
        z = rng.normal(size=3)
        for kind in ("log", "power", "gaussian"):
            spec = KernelSpec(kind, delta=0.4, bandwidth=0.9, singularity_floor=1e-5)
            assert kernel_scalar(spec, z) == pytest.approx(
                kernel_value(kind, z, 0.4, 0.9, 1e-5), rel=1e-14
            )


# ------------------------------------------- one kernel layer, bit for bit


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _one_projection(spec, x, g, attention, theta):
    """``kernel_weights`` on the oracle's (attention, theta) pair: the tensor
    ``theta``, when given, is the projection, at the default scale."""
    return kernel_weights(spec, x, g, attention if theta is None else ProjectionParams(theta))


def _weights_and_grads(weights, spec, X, g, attention, theta):
    """Kernel column and the tape gradients of a fixed linear functional of it
    with respect to X and the training tensor (fresh leaves per call)."""
    x = ad.parameter(X)
    t = None if theta is None else ad.parameter(theta)
    values = weights(spec, x, g, attention, t)
    w = np.random.default_rng(values.data.size).normal(size=values.data.shape)
    ad.reduce_sum(ad.mul(values, w)).backward()
    return values.data, x.grad, None if t is None else t.grad


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(("log", "power", "gaussian", "attention")),
    normalize=st.booleans(),
    params_from=st.sampled_from(("cfg.attention", "none")),
    tensor=st.booleans(),
    weighted=st.booleans(),
    components=st.integers(1, 2),
    isolated=st.integers(0, 2),
)
def test_kernel_weights_are_the_pre_change_kernels_bit_for_bit(
        seed, kind, normalize, params_from, tensor, weighted, components, isolated):
    rng = np.random.default_rng(seed)
    d, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    base = random_graph(rng, [int(rng.integers(2, 7)) for _ in range(components)], weighted)
    g = from_edge_list(base.n + isolated, np.stack([base.edge_u, base.edge_v], axis=1),
                       base.edge_weight)
    X = rng.uniform(-2.0, 2.0, size=(g.n, d))
    if rng.random() < 0.3:
        X[1] = X[0]  # a coincident pair puts the singular kernels on their clamp
    shared = ProjectionParams(rng.normal(size=(k, d)), scale=float(rng.choice([0.0, 0.7])))
    spec = KernelSpec(kind, delta=0.4, bandwidth=0.8, normalize_rows=normalize)
    theta = rng.normal(size=(k, d)) if tensor else None
    # one projection argument: with a tensor drawn, the tensor is the projection
    attention = None if params_from == "none" or tensor else shared

    try:
        expected = _weights_and_grads(ref_kernel_weights, spec, X, g, attention, theta)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _weights_and_grads(_one_projection, spec, X, g, attention, theta)
        softmax = kind == "attention" or (normalize and kind != "log")
        if isolated and softmax and "projection parameters" not in str(exc):
            assert f"node {base.n} has no neighbors" in str(got.value)
        else:
            assert str(got.value) == str(exc)
        return
    got = _weights_and_grads(_one_projection, spec, X, g, attention, theta)
    for a, b in zip(got, expected):
        if b is None:
            assert a is None
        else:
            np.testing.assert_array_equal(_bits(a), _bits(b))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(("log", "power", "gaussian")),
    z=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
)
def test_kernel_scalar_is_the_arc_kernel_on_one_edge(kind, z):
    g = from_edge_list(2, [(0, 1)])
    spec = KernelSpec(kind, delta=0.3, bandwidth=1.7, singularity_floor=1e-5)
    X = np.stack([np.array(z), np.zeros(len(z))])
    arc = kernel_arc_values(spec, X, g).data[0, 0]  # arc (0, 1): x_0 - x_1 = z
    assert _bits(kernel_scalar(spec, z)) == _bits(arc)


@pytest.mark.parametrize("spec, named", [
    (KernelSpec("attention"), "attention"),
    (KernelSpec("gaussian", normalize_rows=True), "row-normalized gaussian kernel"),
    (KernelSpec("power", normalize_rows=True), "row-normalized power kernel"),
])
def test_softmax_kernel_names_the_node_without_neighbors(spec, named):
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 4)])
    with pytest.raises(ValueError, match=f"{named} undefined: node 3 has no neighbors"):
        kernel_matrix(spec, np.arange(10.0).reshape(5, 2), g,
                      attention=ProjectionParams(np.eye(2)))
