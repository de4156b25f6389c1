"""Round-trips for every file format the engine reads or writes."""
import ast
import json
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from grade import (
    CsbmConfig,
    Dataset,
    DynamicsConfig,
    KernelSpec,
    ModelParams,
    SolverConfig,
    Trajectory,
    csbm_generate,
    from_edge_list,
)
from grade import io as gio
from grade.training import EpochMetrics

from _oracles import ref_read_dataset, ref_read_trajectory_csv, ref_write_trajectory_csv


def test_edge_list_roundtrip(tmp_path):
    g = from_edge_list(5, [(0, 1), (1, 2), (3, 4)], weights=[1.0, 2.5, 0.125])
    path = tmp_path / "graph.txt"
    gio.write_edge_list(g, path)
    g2 = gio.read_edge_list(path)
    assert g2.n == 5
    np.testing.assert_array_equal(g2.edge_u, g.edge_u)
    np.testing.assert_array_equal(g2.edge_v, g.edge_v)
    np.testing.assert_array_equal(g2.edge_weight, g.edge_weight)


def test_edge_list_comments_and_default_weight(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a comment\n0 1\n\n1 2 0.5\n")
    g = gio.read_edge_list(path, n=4)
    assert g.n == 4
    assert list(g.edge_weight) == [1.0, 0.5]


def test_edge_list_malformed_line(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1 2 3\n")
    with pytest.raises(ValueError, match="expected"):
        gio.read_edge_list(path, n=2)


def test_edge_list_malformed_header(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n# nodes: ten\n")
    with pytest.raises(ValueError, match=r"graph.txt:2: expected '# nodes: N'"):
        gio.read_edge_list(path)


def test_malformed_edge_field_names_the_file_line(tmp_path):
    # numpy counts only the edge lines; the header, comments and blanks count too
    path = tmp_path / "graph.txt"
    path.write_text("# nodes: 4\n# a comment\n\n0 1\n# another\n1 2 0.5\n\n2 x\n")
    with pytest.raises(ValueError, match=r"graph.txt:8: could not convert string 'x'"):
        gio.read_edge_list(path)


def test_edge_list_fault_is_found_in_one_read_of_the_file(tmp_path, monkeypatch):
    # the line of a bad field comes from the lines kept in the one pass
    path = tmp_path / "graph.txt"
    path.write_text("# nodes: 4\n0 1\n1 x\n2 3 -\n")
    opened = []
    monkeypatch.setattr(gio, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                        raising=False)
    with pytest.raises(ValueError, match=r"graph.txt:3: could not convert string 'x'"):
        gio.read_edge_list(path)
    assert opened == [path]


GRAPH_ARRAYS = ("edge_u", "edge_v", "edge_weight", "arc_src", "arc_dst", "arc_weight",
                "arc_offsets", "degree", "reverse_arc")


def test_edge_list_reader_memory_is_the_graph_plus_a_block(tmp_path):
    # a per-character copy of the whole file (UTF-32 or int64) would trace 5 to
    # 10 MB beyond the graph's own arrays; a block of text stays below 2 MB
    rng = np.random.default_rng(7)
    u, v = rng.integers(0, 20000, size=(2, 110000))
    keep = u != v
    g = from_edge_list(20000, np.stack([u[keep], v[keep]], axis=1))
    gio.write_edge_list(g, tmp_path / "graph.txt")
    tracemalloc.start()
    try:
        got = gio.read_edge_list(tmp_path / "graph.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.num_edges > 100000
    for name in GRAPH_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(g, name)), name
    assert peak < sum(getattr(got, name).nbytes for name in GRAPH_ARRAYS) + 2 * 2**20


def test_malformed_csv_field_names_the_file_line(tmp_path):
    # line 5 of the file, after the header, three rows and a blank line
    gio.write_dataset(csbm_generate(CsbmConfig(n=6, p_intra=1.0, p_inter=0.0), seed=0), tmp_path)
    lines = (tmp_path / "labels.csv").read_text().split("\n")
    lines[3] = "\n3,1.5"
    (tmp_path / "labels.csv").write_text("\n".join(lines))
    with pytest.raises(ValueError, match=r"labels.csv:5: could not convert string '1.5'"):
        gio.read_dataset(tmp_path)


def test_missing_column_names_the_file_line(tmp_path):
    gio.write_dataset(csbm_generate(CsbmConfig(n=6, p_intra=1.0, p_inter=0.0), seed=0), tmp_path)
    lines = (tmp_path / "masks.csv").read_text().split("\n")
    lines[6] = lines[6].rsplit(",", 1)[0]
    (tmp_path / "masks.csv").write_text("\n".join(lines))
    with pytest.raises(ValueError, match=r"masks.csv:7: the dtype passed requires 4 columns but 3"):
        gio.read_dataset(tmp_path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_feature_is_rejected_naming_file_and_node(tmp_path, value):
    gio.write_dataset(csbm_generate(CsbmConfig(n=6, p_intra=1.0, p_inter=0.0), seed=0), tmp_path)
    lines = (tmp_path / "features.csv").read_text().split("\n")
    lines[4] = f"3,0.5,{value}"
    (tmp_path / "features.csv").write_text("\n".join(lines))
    with pytest.raises(ValueError, match=r"features.csv: node 3 has a non-finite feature"):
        gio.read_dataset(tmp_path)


def test_features_without_a_feature_column_are_rejected_naming_the_file(tmp_path):
    gio.write_dataset(csbm_generate(CsbmConfig(n=6, p_intra=1.0, p_inter=0.0), seed=0), tmp_path)
    lines = (tmp_path / "features.csv").read_text().split("\n")
    (tmp_path / "features.csv").write_text("\n".join(line.split(",")[0] for line in lines))
    with pytest.raises(ValueError, match=r"features.csv: expected at least 1 feature column"):
        gio.read_dataset(tmp_path)


@pytest.mark.parametrize("text", ["time,node\r\n0,0\r\n0,1\r\n", ""])
def test_a_trajectory_without_a_feature_column_is_rejected_naming_the_file(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    for read in (gio.read_trajectory_csv, ref_read_trajectory_csv):
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value) == f"{path}: expected at least 1 feature column after the node id"


def test_a_bundle_of_no_nodes_is_rejected_naming_graph_txt(tmp_path):
    none = np.zeros(0, dtype=bool)
    gio.write_dataset(Dataset(from_edge_list(0, []), np.zeros((0, 1)), np.zeros(0, np.int64),
                              none, none, none), tmp_path)
    assert gio.read_edge_list(tmp_path / "graph.txt").n == 0  # a graph of no nodes stays readable
    for read in (gio.read_dataset, ref_read_dataset):
        with pytest.raises(ValueError) as info:
            read(tmp_path)
        assert str(info.value) == f"{tmp_path / 'graph.txt'}: expected at least 1 node"


def test_integer_parsed_via_a_float_is_an_error(tmp_path, monkeypatch):
    # numpy releases that accept "1.5" in an integer field truncate it and
    # only warn; the readers turn that warning into an error naming the file
    # and the line
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return loadtxt(*args, **kwargs)

    gio.write_dataset(csbm_generate(CsbmConfig(n=6, p_intra=1.0, p_inter=0.0), seed=0), tmp_path)
    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    with pytest.raises(ValueError, match="graph.txt:2: loadtxt.*integer via a float"):
        gio.read_dataset(tmp_path)


def test_dataset_bundle_roundtrip(tmp_path):
    ds = csbm_generate(CsbmConfig(n=20, p_intra=0.8, p_inter=0.1), seed=4)
    gio.write_dataset(ds, tmp_path / "ds")
    again = gio.read_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(again.graph.edge_u, ds.graph.edge_u)
    np.testing.assert_array_equal(again.features, ds.features)  # 17 digits
    np.testing.assert_array_equal(again.labels, ds.labels)
    np.testing.assert_array_equal(again.train_mask, ds.train_mask)
    np.testing.assert_array_equal(again.val_mask, ds.val_mask)
    np.testing.assert_array_equal(again.test_mask, ds.test_mask)


def test_dataset_bundle_missing_file(tmp_path):
    (tmp_path / "ds").mkdir()
    with pytest.raises(FileNotFoundError, match="graph.txt"):
        gio.read_dataset(tmp_path / "ds")


def test_trajectory_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), rng.normal(size=(3, 4, 2)), 2)
    path = tmp_path / "traj.csv"
    gio.write_trajectory_csv(traj, path)
    again = gio.read_trajectory_csv(path)
    np.testing.assert_array_equal(again.times, traj.times)
    np.testing.assert_array_equal(again.states, traj.states)  # bit-exact


@pytest.mark.parametrize("rows, fault", [
    ([], ": no records"),
    (["0,0,1", "inf,0,1"], " at t=inf: time is not finite"),
    # a time fault is reported before the node fault of the same row
    (["0,0,1", "nan,1,1", "-inf,0,1"], " at t=nan: time is not finite"),
    (["0,0,1", "1,0,1", "0.5,0,1"], " at t=0.5: times must be strictly increasing"),
    (["1,0,1", "0,5,1"], " at t=0: times must be strictly increasing"),
])
def test_trajectory_faults_name_the_file_and_the_time(tmp_path, rows, fault):
    path = tmp_path / "t.csv"
    path.write_text("time,node,f0\n" + "".join(row + "\n" for row in rows))
    with pytest.raises(ValueError) as info:
        gio.read_trajectory_csv(path)
    assert str(info.value) == f"{path}{fault}"


def test_trajectory_whose_first_data_line_is_blank_is_read(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time,node,f0,f1\n\n0,1,3,4\n0,0,1,2\n")
    traj = gio.read_trajectory_csv(path)
    np.testing.assert_array_equal(traj.times, [0.0])
    np.testing.assert_array_equal(traj.states, [[[1.0, 2.0], [3.0, 4.0]]])


def test_negative_label_is_rejected_naming_the_file_and_node(tmp_path):
    # a train node's -1 would pick the last class; a val or test node's could never be predicted
    gio.write_dataset(csbm_generate(CsbmConfig(n=6, p_intra=1.0, p_inter=0.0), seed=0), tmp_path)
    lines = (tmp_path / "labels.csv").read_text().split("\n")
    lines[3], lines[5] = "2,-1", "4,-3"
    (tmp_path / "labels.csv").write_text("\n".join(lines))
    with pytest.raises(ValueError) as info:
        gio.read_dataset(tmp_path)
    assert str(info.value) == (f"{tmp_path / 'labels.csv'}: node 2 has label -1; "
                               "labels must be >= 0")


def test_labels_without_the_label_column_are_rejected_naming_the_file(tmp_path):
    gio.write_dataset(csbm_generate(CsbmConfig(n=6, p_intra=1.0, p_inter=0.0), seed=0), tmp_path)
    lines = (tmp_path / "labels.csv").read_text().split("\n")
    (tmp_path / "labels.csv").write_text("\n".join(line.split(",")[0] for line in lines))
    with pytest.raises(ValueError, match=r"labels.csv: expected 1 value columns after the node id"):
        gio.read_dataset(tmp_path)


def test_summary_json(tmp_path):
    path = tmp_path / "summary.json"
    gio.write_summary_json(path, [0.0, 1.0], [2.0, 1.0], [0.5, 0.25], [3, 2],
                           extra={"verdict": "mitigated"})
    obj = json.loads(path.read_text())
    assert obj["cluster_count"] == [3, 2]
    assert obj["verdict"] == "mitigated"


def test_checkpoint_roundtrip(tmp_path):
    p = ModelParams(np.eye(2), np.zeros(2), np.ones((2, 2)), np.array([0.5, -0.5]),
                    theta=np.full((2, 2), 0.25))
    dyn = DynamicsConfig(kernel=KernelSpec("power", delta=0.1))
    sol = SolverConfig("rk4", step=0.5, horizon=3.0)
    path = tmp_path / "checkpoint.json"
    gio.write_checkpoint(path, p, dyn, sol)
    p2, dyn2, sol2 = gio.read_checkpoint(path)
    for (_, a), (_, b) in zip(p.fields(), p2.fields()):
        np.testing.assert_array_equal(a, b)
    assert dyn2.kernel == dyn.kernel
    assert sol2 == sol


def test_metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    gio.write_metrics_csv(path, [EpochMetrics(0, 0.7, 0.5, 0.4),
                                 EpochMetrics(1, 0.6, 0.6, 0.5)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,val_acc,test_acc"
    assert len(lines) == 3
    assert lines[1].startswith("0,0.69999999999999996,")


def test_manifest_atomic_write(tmp_path):
    target = gio.write_manifest(tmp_path, {"command": "generate", "seed": 1})
    assert target.name == "manifest.json"
    obj = json.loads(target.read_text())
    assert obj["command"] == "generate"
    assert not (tmp_path / ".manifest.json.tmp").exists()


def test_csv_seventeen_digits_roundtrip(tmp_path):
    # a value with no short decimal representation survives the format
    value = np.pi / 3.0e7
    traj = Trajectory(np.array([0.0]), np.array([[[value]]]), 0)
    gio.write_trajectory_csv(traj, tmp_path / "t.csv")
    again = gio.read_trajectory_csv(tmp_path / "t.csv")
    assert again.states[0, 0, 0] == value


def test_trajectory_writer_streams_one_record_at_a_time(tmp_path):
    # 63 records of 2000 nodes make a file of about 6 MB; building it as one
    # string would trace several times the bound
    rng = np.random.default_rng(5)
    traj = Trajectory(np.linspace(0.0, 40.0, 63), rng.normal(size=(63, 2000, 2)), 62)
    tracemalloc.start()
    try:
        gio.write_trajectory_csv(traj, tmp_path / "t.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 5 * 2**20
    assert peak < 2 * 2**20


def test_trajectory_writer_memory_is_bounded_within_a_large_record(tmp_path):
    # one record of 20000 nodes is itself several times the bound as text
    rng = np.random.default_rng(6)
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), rng.normal(size=(3, 20000, 2)), 2)
    tracemalloc.start()
    try:
        gio.write_trajectory_csv(traj, tmp_path / "t.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 2 * 2**20
    assert peak < 2 * 2**20
    ref_write_trajectory_csv(traj, tmp_path / "ref.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_dataset_writer_memory_is_bounded_at_twenty_thousand_nodes(tmp_path):
    # the n=20000 bundle: 109950 edges and 20000 rows a table, more text than the bound
    ds = csbm_generate(CsbmConfig(n=20000, p_intra=0.001, p_inter=0.0001), seed=5)
    assert ds.graph.num_edges == 109950
    tracemalloc.start()
    try:
        gio.write_dataset(ds, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(path.stat().st_size for path in tmp_path.iterdir()) > 2 * 2**20
    assert peak < 2 * 2**20


@pytest.mark.parametrize("block", [5, None])
def test_table_encoder_reads_column_views_of_any_layout(tmp_path, monkeypatch, block):
    # a column slice of a Fortran-ordered array and reversed views are neither
    # C-contiguous nor of unit stride; each value keeps its %.17g or %d text
    if block:
        monkeypatch.setattr(gio, "BLOCK_VALUES", block)
    rng = np.random.default_rng(18)
    floats = np.asfortranarray(rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-8, 20, (40, 3)))
    ints = np.asfortranarray(rng.integers(-10 ** 12, 10 ** 12, (40, 3)))
    columns = [floats[:, 1:], ints[:, 1], floats[::-1, 0], ints[::-1, :2]]
    rows = zip(floats[:, 1:].tolist(), ints[:, 1].tolist(), floats[::-1, 0].tolist(),
               ints[::-1, :2].tolist())
    want = "".join(",".join(["%.17g" % x for x in f] + ["%d" % i, "%.17g" % r]
                            + ["%d" % j for j in js]) + "\r\n" for f, i, r, js in rows)
    gio._write_table(tmp_path / "t.csv", "", 40, lambda lo, hi: [c[lo:hi] for c in columns])
    assert (tmp_path / "t.csv").read_bytes() == want.encode()


def test_trajectory_without_features_is_written_as_time_and_node(tmp_path):
    # a Trajectory may hold zero-width features; read_trajectory_csv refuses
    # such a file back, as read_dataset refuses a features.csv without columns
    traj = Trajectory(np.array([0.0, 0.5]), np.zeros((2, 3, 0)), 1)
    gio.write_trajectory_csv(traj, tmp_path / "t.csv")
    ref_write_trajectory_csv(traj, tmp_path / "ref.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_io_module_needs_no_temporary_files():
    tree = ast.parse(Path(gio.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert not imported & {"tempfile", "shutil"}


def _encoded(column, path) -> list[str]:
    """Each value of ``column`` as the table encoder writes it."""
    gio._write_table(path, "", len(column), lambda lo, hi: [column[lo:hi]], end="\n")
    return path.read_text().split("\n")[:-1]


def _near(x, ulps=3):
    """Each double of ``x`` and its neighbours up to ``ulps`` apart."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


def test_float_encoder_matches_cpython_on_a_million_values(tmp_path):
    rng = np.random.default_rng(16)
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    # the doubles nearest m / 10^k, where |x|·10^k rounds to 10^16 or 10^17
    edges = np.array([m / 10 ** k for k in range(23)
                      for m in (*range(10 ** 16 - 2, 10 ** 16 + 3), *range(10 ** 17 - 2, 10 ** 17 + 3))])
    # exact ties: q/2^(k+1) with q odd and |x|·10^k in [10^16, 10^17) has a fraction of 1/2
    ties = np.concatenate([(2 * rng.integers(-(-2 ** k * 10 ** 16 // 10 ** k),
                                             min(2 ** k * 10 ** 17 // 10 ** k, 2 ** 52), 10000)
                            + 1) / 2.0 ** (k + 1) for k in range(1, 23)])
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 450000, dtype=np.uint64).view(np.float64),
        rng.normal(size=450000) * 10.0 ** rng.uniform(-30, 40, 450000),
        _near(powers), -_near(powers), _near(edges), ties, [1 + 2.0 ** -17],
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf, np.nan],
    ])
    assert values.size >= 10 ** 6
    want = ["%.17g" % x for x in values.tolist()]
    got = _encoded(values, tmp_path / "t.txt")
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad and len(got) == len(want), bad[:5]
    assert _encoded(np.array([1e-6, 1 + 2.0 ** -17]), tmp_path / "t.txt") == [
        "9.9999999999999995e-07", "1.0000076293945312"]


@pytest.mark.parametrize("toward", [-np.inf, np.inf])
def test_float_encoder_falls_back_when_log10_misjudges_the_exponent(tmp_path, monkeypatch,
                                                                    toward):
    # a log10 one ulp off moves the exponent guess at powers of ten by one; the
    # scaled value then leaves [10^16, 10^17), and CPython formats it
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    values = _near(np.array([float(f"1e{j}") for j in range(-7, 19)]))
    assert _encoded(values, tmp_path / "t.txt") == ["%.17g" % x for x in values.tolist()]


def test_no_significand_rounds_up_to_the_next_power_of_ten():
    # for 0 <= k <= 22, the largest double below 10^(17-k), times 10^k, lies more
    # than 1/2 below 10^17: so the encoder's 17-digit N never carries into the exponent
    for k in range(23):
        power = Fraction(10) ** (17 - k)
        below = float(power)
        while Fraction(below) >= power:
            below = np.nextafter(below, 0.0)
        assert 10 ** 17 - Fraction(below) * 10 ** k > Fraction(1, 2)


def test_int_encoder_matches_cpython_over_the_int64_range(tmp_path):
    rng = np.random.default_rng(17)
    tens = 10 ** np.arange(19, dtype=np.int64)
    values = np.concatenate([
        rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 200000, dtype=np.int64,
                     endpoint=True),
        rng.integers(-1000, 1000, 2000), tens, tens - 1, -tens, 1 - tens,
        [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1],
    ]).astype(np.int64)
    assert _encoded(values, tmp_path / "t.txt") == ["%d" % i for i in values.tolist()]


def test_csv_rows_end_in_crlf_and_edge_list_lines_in_lf(tmp_path):
    ds = csbm_generate(CsbmConfig(n=4, p_intra=1.0, p_inter=0.0), seed=0)
    gio.write_dataset(ds, tmp_path)
    assert (tmp_path / "labels.csv").read_bytes().startswith(b"node,label\r\n0,0\r\n")
    assert (tmp_path / "graph.txt").read_bytes() == b"# nodes: 4\n0 1 1\n2 3 1\n"
