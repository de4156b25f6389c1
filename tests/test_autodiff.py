"""Finite-difference checks for every autodiff primitive."""
import numpy as np
import pytest

from grade import autodiff as ad
from grade import from_edge_list


def numeric_grad(fn, x, h=1e-6):
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = fn(x)
        flat_x[i] = orig - h
        fm = fn(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2 * h)
    return g


def check_unary(op, x, h=1e-6, tol=1e-6):
    out_shape = op(ad.constant(x.copy())).data.shape

    def value(arr):
        return ad.reduce_sum(ad.mul(op(ad.constant(arr.copy())), WEIGHT(out_shape))).item()

    leaf = ad.parameter(x.copy())
    out = ad.reduce_sum(ad.mul(op(leaf), WEIGHT(out_shape)))
    out.backward()
    fd = numeric_grad(value, x.copy(), h)
    np.testing.assert_allclose(leaf.grad, fd, rtol=tol, atol=tol)


def WEIGHT(shape):
    rng = np.random.default_rng(7)
    return ad.constant(rng.normal(size=shape))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_add_sub_mul_broadcast(rng):
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3,))
    la, lb = ad.parameter(a.copy()), ad.parameter(b.copy())
    out = ad.reduce_sum(ad.mul(ad.sub(ad.add(la, lb), 0.5), WEIGHT((4, 3))))
    out.backward()

    def value_a(arr):
        return ad.reduce_sum(ad.mul(ad.sub(ad.add(ad.constant(arr), lb.data), 0.5), WEIGHT((4, 3)))).item()

    def value_b(arr):
        return ad.reduce_sum(ad.mul(ad.sub(ad.add(ad.constant(a), arr), 0.5), WEIGHT((4, 3)))).item()

    np.testing.assert_allclose(la.grad, numeric_grad(value_a, a.copy()), atol=1e-6)
    np.testing.assert_allclose(lb.grad, numeric_grad(value_b, b.copy()), atol=1e-6)


def test_matmul_both_orientations(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    la, lb = ad.parameter(a.copy()), ad.parameter(b.copy())
    out = ad.reduce_sum(ad.mul(ad.matmul(la, lb), WEIGHT((3, 2))))
    out.backward()
    np.testing.assert_allclose(
        la.grad,
        numeric_grad(lambda arr: ad.reduce_sum(ad.mul(ad.matmul(ad.constant(arr), lb.data), WEIGHT((3, 2)))).item(), a.copy()),
        atol=1e-6,
    )
    np.testing.assert_allclose(
        lb.grad,
        numeric_grad(lambda arr: ad.reduce_sum(ad.mul(ad.matmul(ad.constant(a), ad.constant(arr)), WEIGHT((3, 2)))).item(), b.copy()),
        atol=1e-6,
    )

    bt = rng.normal(size=(2, 4))
    lbt = ad.parameter(bt.copy())
    out = ad.reduce_sum(ad.mul(ad.matmul(ad.constant(a), lbt, transpose_b=True), WEIGHT((3, 2))))
    out.backward()
    np.testing.assert_allclose(
        lbt.grad,
        numeric_grad(lambda arr: ad.reduce_sum(ad.mul(ad.matmul(ad.constant(a), ad.constant(arr), transpose_b=True), WEIGHT((3, 2)))).item(), bt.copy()),
        atol=1e-6,
    )


@pytest.mark.parametrize("op", [ad.exp, ad.tanh, ad.softplus])
def test_smooth_unaries(op, rng):
    check_unary(op, rng.normal(size=(3, 2)))


def test_log_positive(rng):
    check_unary(ad.log, rng.uniform(0.5, 2.0, size=(3, 2)))


def test_power(rng):
    check_unary(lambda x: ad.power(x, -2.5), rng.uniform(0.5, 2.0, size=(4,)))


def test_relu_away_from_kink(rng):
    x = rng.normal(size=(5, 2))
    x[np.abs(x) < 0.05] = 0.1
    check_unary(ad.relu, x)


def test_reduce_sum_axis1(rng):
    check_unary(lambda x: ad.reduce_sum(x, axis=1), rng.normal(size=(4, 3)))


def test_reshape(rng):
    check_unary(lambda x: ad.reshape(x, (6, 2)), rng.normal(size=(3, 4)))


def test_gather_scatter_roundtrip(rng):
    x = rng.normal(size=(5, 2))
    idx = np.array([0, 2, 2, 4, 1, 0])
    check_unary(lambda t: ad.gather_rows(t, idx), x)
    y = rng.normal(size=(6, 2))
    check_unary(lambda t: ad.segment_sum(t, np.sort(idx), 5), y)


def test_clamped_norm_above_floor(rng):
    x = rng.normal(size=(6, 3)) + 2.0
    check_unary(lambda t: ad.clamped_norm(t, 1e-6), x)


def test_clamped_norm_zero_grad_when_clamped():
    leaf = ad.parameter(np.zeros((2, 3)))
    out = ad.reduce_sum(ad.clamped_norm(leaf, 0.5))
    out.backward()
    assert np.all(leaf.grad == 0.0)
    assert np.all(out.data == 0.5 * 2)


def test_segment_softmax_matches_dense(rng):
    offsets = np.array([0, 3, 5, 9])
    s = rng.normal(size=9)
    leaf = ad.parameter(s.copy())
    p = ad.segment_softmax(leaf, offsets)
    for a, b in zip(offsets[:-1], offsets[1:]):
        seg = s[a:b]
        expect = np.exp(seg - seg.max())
        expect /= expect.sum()
        np.testing.assert_allclose(p.data[a:b], expect, rtol=1e-14)
    out = ad.reduce_sum(ad.mul(p, WEIGHT((9,))))
    out.backward()
    fd = numeric_grad(
        lambda arr: ad.reduce_sum(ad.mul(ad.segment_softmax(ad.constant(arr), offsets), WEIGHT((9,)))).item(),
        s.copy(),
    )
    np.testing.assert_allclose(leaf.grad, fd, atol=1e-6)


def test_segment_softmax_rejects_empty_segment():
    with pytest.raises(ValueError):
        ad.segment_softmax(ad.constant(np.ones(3)), np.array([0, 0, 3]))


def test_take_per_row(rng):
    x = rng.normal(size=(4, 3))
    cols = np.array([2, 0, 1, 1])
    check_unary(lambda t: ad.take_per_row(t, cols), x)


def test_grad_accumulates_through_reuse(rng):
    # x appears twice; d/dx (x*x + 3x) = 2x + 3
    x = rng.normal(size=(3,))
    leaf = ad.parameter(x.copy())
    out = ad.reduce_sum(ad.add(ad.mul(leaf, leaf), ad.mul(leaf, 3.0)))
    out.backward()
    np.testing.assert_allclose(leaf.grad, 2 * x + 3, rtol=1e-12)


def test_backward_resets_between_calls(rng):
    leaf = ad.parameter(rng.normal(size=(3,)))
    for _ in range(2):
        out = ad.reduce_sum(ad.mul(leaf, leaf))
        out.backward()
        np.testing.assert_allclose(leaf.grad, 2 * leaf.data, rtol=1e-12)


def test_operator_sugar_matches_functions(rng):
    a = ad.constant(rng.normal(size=(2, 2)))
    b = ad.constant(rng.normal(size=(2, 2)))
    np.testing.assert_array_equal((a + b).data, ad.add(a, b).data)
    np.testing.assert_array_equal((a - b).data, ad.sub(a, b).data)
    np.testing.assert_array_equal((2.0 * a).data, ad.mul(a, 2.0).data)
    np.testing.assert_array_equal((-a).data, ad.mul(a, -1.0).data)


def test_backward_leaves_constants_without_grad(rng):
    x, c = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    idx = np.array([0, 2, 2, 3, 1])

    def loss(a, b):
        return ad.reduce_sum(ad.mul(ad.gather_rows(ad.tanh(ad.mul(a, b)), idx), WEIGHT((5, 3))))

    leaf, const = ad.parameter(x.copy()), ad.constant(c.copy())
    loss(leaf, const).backward()
    assert const.grad is None

    both = ad.parameter(x.copy()), ad.parameter(c.copy())
    loss(*both).backward()
    np.testing.assert_array_equal(leaf.grad, both[0].grad)


def test_constant_computation_records_no_tape(rng):
    a = ad.constant(rng.normal(size=(3, 2)))
    out = ad.exp(ad.add(ad.mul(a, 2.0), a))
    assert not out.requires_grad
    assert out._parents == () and out._backward is None


def test_arc_spmm_adds_like_gather_mul_segment_sum_bit_for_bit(rng):
    g = from_edge_list(5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4), (1, 4)],
                       rng.uniform(0.5, 2.0, size=6))
    vals = rng.normal(size=(g.arc_src.size, 1))
    X = rng.normal(size=(5, 3))
    triple = ad.segment_sum(ad.mul(vals, ad.gather_rows(X, g.arc_dst)), g.arc_src, g.n)
    np.testing.assert_array_equal(ad.arc_spmm(vals, X, g).data, triple.data)
    np.testing.assert_array_equal(ad.arc_spmm(vals[:, 0], X[:, :1], g).data, triple.data[:, :1])


def test_gather_rows_backward_adds_in_index_order(rng):
    x = rng.normal(size=(4, 3))
    idx = np.array([3, 0, 3, 1, 3, 0])
    g = rng.normal(size=(idx.size, 3)) * 10.0 ** rng.integers(-8, 8, size=(idx.size, 1))
    leaf = ad.parameter(x)
    ad.reduce_sum(ad.mul(ad.gather_rows(leaf, idx), g)).backward()
    want = np.zeros_like(x)
    for i, row in zip(idx, g):
        want[i] += row
    np.testing.assert_array_equal(leaf.grad, want)
