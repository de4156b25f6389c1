"""Graph construction, normalization, synthetic data, and degree queries."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grade import (
    CsbmConfig,
    Dataset,
    csbm_generate,
    from_edge_list,
    min_degree_node,
    row_normalized_adjacency,
)
from grade import graph as graph_module

from _oracles import dense_row_normalized, dense_weight_matrix, ref_csbm_generate


def test_single_edge():
    g = from_edge_list(2, [(0, 1)])
    assert list(g.degree) == [1, 1]
    assert g.num_edges == 1


def test_duplicate_pair_collapses():
    g = from_edge_list(3, [(0, 1), (1, 0)])
    assert g.num_edges == 1
    assert list(g.degree) == [1, 1, 0]


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        from_edge_list(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(2, [(0, 2)])


@pytest.mark.parametrize("n, edges, weights, message", [
    (-1, [], None, "node count must be >= 0"),
    (3, [(0, 1, 2)], None, r"edges must be \(u, v\) pairs"),
    (3, [0, 1], None, r"edges must be \(u, v\) pairs"),
    (3, [(0, 2**70)], None, "edge endpoint out of range: too large for a node id"),
    (3, [(0, 1), (1, 2)], [1.0], "weights must match edges in length"),
])
def test_malformed_edge_list_rejected(n, edges, weights, message):
    with pytest.raises(ValueError, match=message):
        from_edge_list(n, edges, weights)


@pytest.mark.parametrize("field, value, message", [
    ("features", np.zeros(4), r"features must be an \(n, d\) matrix"),
    ("features", np.zeros((3, 2)), r"features must be an \(n, d\) matrix"),
    ("labels", np.zeros(3, dtype=np.int64), "labels must have one entry per node"),
    ("test_mask", np.array([True, False, False, False]), "masks must be disjoint"),
])
def test_dataset_rejects_misshapen_fields(field, value, message):
    fields = {"features": np.zeros((4, 2)), "labels": np.zeros(4, dtype=np.int64),
              "train_mask": np.array([True, False, False, False]),
              "val_mask": np.array([False, True, False, False]),
              "test_mask": np.array([False, False, True, True])}
    Dataset(from_edge_list(4, [(0, 1)]), **fields)
    with pytest.raises(ValueError, match=message):
        Dataset(from_edge_list(4, [(0, 1)]), **{**fields, field: value})


@pytest.mark.parametrize("edges, named", [
    ([(0.7, 1.2), (1.9, 2.5)], "(0.7, 1.2)"),
    ([(0, 1), (1, float("nan"))], "(1.0, nan)"),
    ([(0, 1), (float("inf"), 2)], "(inf, 2.0)"),
])
def test_non_integral_endpoint_rejected(edges, named):
    # int() used to truncate these to the edges (0, 1) and (1, 2)
    with pytest.raises(ValueError, match="not an integer") as info:
        from_edge_list(3, edges)
    assert named in str(info.value)


def test_first_offending_pair_is_named_whatever_its_fault():
    with pytest.raises(ValueError, match=r"out of range: \(0, 5\)"):
        from_edge_list(3, [(0, 5), (0.5, 1)])
    with pytest.raises(ValueError, match=r"not an integer node id: \(0.5, 1.0\)"):
        from_edge_list(3, [(0.5, 1), (0, 5)])


def test_integral_float_endpoints_accepted():
    g = from_edge_list(3, [(0.0, 1.0), (2.0, 1.0)])
    assert list(g.edge_u) == [0, 1] and list(g.edge_v) == [1, 2]


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative weight"):
        from_edge_list(2, [(0, 1)], weights=[-1.0])


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_weight_rejected(weight):
    # a nan weight used to pass `w < 0` and give nan diffusion
    with pytest.raises(ValueError, match=r"non-finite weight on edge \(2, 1\)"):
        from_edge_list(3, [(0, 1), (2, 1), (0, 2)], weights=[1.0, weight, weight])


def test_conflicting_duplicate_weight_rejected():
    with pytest.raises(ValueError, match="conflicting"):
        from_edge_list(2, [(0, 1), (1, 0)], weights=[1.0, 2.0])


@pytest.mark.parametrize("n", [8, graph_module._KEY_SIDE, graph_module._KEY_SIDE + 1, 2**62])
def test_duplicates_are_grouped_for_any_node_count(n):
    # for n = 2^62 the key a·n + b of (4, 7) would wrap to that of (0, 7);
    # beyond _KEY_SIDE the pairs are grouped by a lexsort instead
    with pytest.raises(ValueError, match=r"conflicting duplicate weights for edge \(0, 7\)"):
        from_edge_list(n, [(0, 7), (4, 7), (7, 0)], weights=[1.0, 2.0, 3.0])


def test_agreeing_duplicate_weight_collapses():
    g = from_edge_list(2, [(0, 1), (1, 0)], weights=[2.0, 2.0])
    assert g.num_edges == 1
    assert g.edge_weight[0] == 2.0


def test_arc_table_symmetric_and_sorted():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        edges = set()
        for _ in range(int(rng.integers(1, 2 * n))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((min(int(u), int(v)), max(int(u), int(v))))
        if not edges:
            continue
        g = from_edge_list(n, sorted(edges))
        W = dense_weight_matrix(g)
        np.testing.assert_array_equal(W, W.T)
        # arcs sorted by (src, dst) and consistent with offsets
        order = np.lexsort((g.arc_dst, g.arc_src))
        np.testing.assert_array_equal(order, np.arange(g.arc_src.size))
        assert g.arc_offsets[-1] == g.arc_src.size
        np.testing.assert_array_equal(np.diff(g.arc_offsets), g.degree)


def test_row_normalized_p2():
    g = from_edge_list(2, [(0, 1)])
    A = row_normalized_adjacency(g).toarray()
    np.testing.assert_array_equal(A, [[0, 1], [1, 0]])


def test_row_normalized_star():
    g = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    A = row_normalized_adjacency(g).toarray()
    np.testing.assert_allclose(A[0], [0, 1 / 3, 1 / 3, 1 / 3])
    for leaf in (1, 2, 3):
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_array_equal(A[leaf], expected)


def test_row_normalized_rejects_isolated():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(ValueError, match="isolated"):
        row_normalized_adjacency(g)


def test_row_normalized_rejects_a_node_with_zero_total_weight():
    # node 0's row used to divide 0 by 0 and give rhs a nan
    g = from_edge_list(3, [(0, 1), (1, 2)], weights=[0.0, 1.0])
    with pytest.raises(ValueError, match="node 0 has zero total edge weight"):
        row_normalized_adjacency(g)
    with pytest.raises(ValueError, match="graph has isolated node 0"):
        row_normalized_adjacency(from_edge_list(3, [(1, 2)], weights=[0.0]))


def test_row_normalized_rejects_a_total_edge_weight_that_overflows():
    # node 0's weights sum to inf: its row used to read [0, 0, 0], silently
    g = from_edge_list(3, [(0, 1), (0, 2)], weights=[1e308, 1e308])
    with pytest.raises(ValueError, match="node 0 has non-finite total edge weight inf"):
        row_normalized_adjacency(g)


@st.composite
def canonical_edge_lists(draw):
    """(n, edges u < v in (u, v) order, their weights), isolated nodes and m = 0 included."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else []
    weights = draw(st.lists(st.sampled_from((1.0, 0.5, 2.0, 0.0, 3e-7, 1e300)),
                            min_size=len(edges), max_size=len(edges)))
    return n, edges, weights


@settings(max_examples=200, deadline=None)
@given(case=canonical_edge_lists())
def test_build_graph_sorts_once_into_edges_arcs_and_reverse_arcs(case):
    n, edges, weights = case
    g = graph_module._build_graph(n, np.array([e[0] for e in edges], dtype=np.int64),
                                  np.array([e[1] for e in edges], dtype=np.int64),
                                  np.array(weights))
    np.testing.assert_array_equal(np.stack([g.edge_u, g.edge_v], axis=1).reshape(-1, 2),
                                  np.array(edges, dtype=np.int64).reshape(-1, 2))
    np.testing.assert_array_equal(g.edge_weight, weights)
    rev = g.reverse_arc
    np.testing.assert_array_equal(rev, np.lexsort((g.arc_src, g.arc_dst)))
    np.testing.assert_array_equal(rev[rev], np.arange(2 * len(edges)))
    np.testing.assert_array_equal(g.arc_src[rev], g.arc_dst)
    np.testing.assert_array_equal(g.arc_dst[rev], g.arc_src)
    np.testing.assert_array_equal(g.arc_weight[rev], g.arc_weight)


def test_row_sums_one_within_tolerance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        edges = [(i - 1, i) for i in range(1, n)]
        for _ in range(n):
            u, v = rng.integers(0, n, size=2)
            if u != v and (min(u, v), max(u, v)) not in [(min(a, b), max(a, b)) for a, b in edges]:
                edges.append((int(u), int(v)))
        weights = rng.uniform(0.1, 3.0, size=len(edges))
        g = from_edge_list(n, edges, weights)
        A = row_normalized_adjacency(g).toarray()
        np.testing.assert_allclose(A.sum(axis=1), np.ones(n), atol=1e-12)
        np.testing.assert_allclose(A, dense_row_normalized(g), atol=1e-14)


def test_min_degree_node_examples():
    path3 = from_edge_list(3, [(0, 1), (1, 2)])
    assert min_degree_node(path3) == (0, 1)
    triangle = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert min_degree_node(triangle) == (0, 2)
    star = from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert min_degree_node(star) == (1, 1)


def test_min_degree_node_empty_graph():
    g = from_edge_list(0, [])
    with pytest.raises(ValueError, match="empty"):
        min_degree_node(g)


def test_min_degree_is_a_true_minimum():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        g = from_edge_list(n, sorted(edges))
        node, deg = min_degree_node(g)
        assert deg == g.degree.min()
        assert node == int(np.argmin(g.degree))


def test_csbm_deterministic():
    cfg = CsbmConfig(n=100, p_intra=0.9, p_inter=0.05, feat_dim=2)
    a = csbm_generate(cfg, seed=7)
    b = csbm_generate(cfg, seed=7)
    np.testing.assert_array_equal(a.graph.edge_u, b.graph.edge_u)
    np.testing.assert_array_equal(a.graph.edge_v, b.graph.edge_v)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.train_mask, b.train_mask)
    c = csbm_generate(cfg, seed=8)
    assert not np.array_equal(a.features, c.features)


def test_csbm_degenerate_probabilities_give_two_cliques():
    cfg = CsbmConfig(n=100, p_intra=1.0, p_inter=0.0)
    ds = csbm_generate(cfg, seed=1)
    W = dense_weight_matrix(ds.graph)
    half = 50
    np.testing.assert_array_equal(W[:half, :half] + np.eye(half), np.ones((half, half)))
    np.testing.assert_array_equal(W[half:, half:] + np.eye(half), np.ones((half, half)))
    assert W[:half, half:].sum() == 0


def test_csbm_intra_edge_count_concentrates():
    # Binomial oracle: 2*C(50,2) intra pairs at p=0.9; the 20-seed mean must
    # land within 3 sigma/sqrt(20) of the expectation.
    cfg = CsbmConfig(n=100, p_intra=0.9, p_inter=0.05)
    pairs = 2 * (50 * 49 // 2)
    expected = cfg.p_intra * pairs
    sigma = np.sqrt(pairs * cfg.p_intra * (1 - cfg.p_intra))
    counts = []
    for seed in range(20):
        ds = csbm_generate(cfg, seed)
        labels = ds.labels
        intra = sum(
            1 for u, v in zip(ds.graph.edge_u, ds.graph.edge_v) if labels[u] == labels[v]
        )
        counts.append(intra)
    assert abs(np.mean(counts) - expected) <= 3 * sigma / np.sqrt(20)


def test_csbm_masks_partition_and_labels_balanced():
    ds = csbm_generate(CsbmConfig(), seed=3)
    total = ds.train_mask.astype(int) + ds.val_mask.astype(int) + ds.test_mask.astype(int)
    assert total.max() == 1 and total.min() == 1
    assert ds.labels.sum() == 50
    assert ds.train_mask.sum() == 60


def test_csbm_config_validation():
    with pytest.raises(ValueError):
        CsbmConfig(n=99)
    with pytest.raises(ValueError):
        CsbmConfig(p_intra=1.5)
    with pytest.raises(ValueError):
        CsbmConfig(noise_std=-0.1)
    with pytest.raises(ValueError, match="feat_dim must be >= 1"):
        CsbmConfig(feat_dim=0)
    for noise in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="noise_std must be >= 0 and finite"):
            CsbmConfig(noise_std=noise)


PROBABILITIES = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@pytest.mark.parametrize("block", [1, 5, 7, None])
@settings(max_examples=40, deadline=None)
@given(half=st.integers(1, 30), p_intra=PROBABILITIES, p_inter=PROBABILITIES,
       seed=st.integers(0, 2**32 - 1))
def test_csbm_generate_matches_the_triu_sampler(block, half, p_intra, p_inter, seed):
    # a small block puts block boundaries mid-row, and for some n at a row's end
    cfg = CsbmConfig(n=2 * half, p_intra=p_intra, p_inter=p_inter, feat_dim=3)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graph_module, "PAIR_BLOCK", block)
        got = csbm_generate(cfg, seed)
    ref = ref_csbm_generate(cfg, seed)
    np.testing.assert_array_equal(got.graph.edge_u, ref.graph.edge_u)
    np.testing.assert_array_equal(got.graph.edge_v, ref.graph.edge_v)
    np.testing.assert_array_equal(got.graph.arc_offsets, ref.graph.arc_offsets)
    # the features and masks come after the pairs in the random stream
    assert np.array_equal(got.features.view(np.uint64), ref.features.view(np.uint64))
    for field in ("labels", "train_mask", "val_mask", "test_mask"):
        np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))


def test_csbm_generate_memory_grows_with_edges_not_pairs():
    # about 2 million pairs and 11000 edges: one uniform per pair at once
    # (the triu sampler) traced about 65 MB here
    cfg = CsbmConfig(n=2000, p_intra=0.01, p_inter=0.001)
    tracemalloc.start()
    try:
        csbm_generate(cfg, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_graph_arrays_immutable():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.degree[0] = 5
