"""Property tests: the file formats against the csv-module writers and the
loop-based readers in ``_oracles``.

Writers must produce the same bytes. Readers must parse the same bits as
``float()`` and, on faulty input, raise the same first error with the same
message; a field that ``int()`` or ``float()`` rejects must be rejected too,
in numpy's words. Values include signed zeros, subnormals, the largest
doubles, integral floats and non-finite values.
"""
import hashlib
import re
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grade import Dataset, Trajectory, from_edge_list
from grade import io as gio
from grade.training import EpochMetrics

from _oracles import (
    ref_from_edge_list,
    ref_read_dataset,
    ref_read_edge_list,
    ref_read_trajectory_csv,
    ref_write_dataset,
    ref_write_energy_csv,
    ref_write_metrics_csv,
    ref_write_trajectory_csv,
)

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           1e308, -1e308, 1.7976931348623157e308, 1e16, -1e16, 2.0 ** 53 + 2, 1e22, 0.1, 1 / 3)
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))
ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(SPECIAL))
NON_FINITE = st.sampled_from((float("nan"), float("inf"), float("-inf")))
# not integers; the first four are floats, the rest are not numbers at all
TOKENS = st.sampled_from(("1.5", "1e3", "2.0", "-0.5", "#1", "1#x", "x", "0x1"))


@contextmanager
def _scratch():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _outcome(read, *args):
    """What ``read`` returns, or the message of the ValueError it raises."""
    try:
        return read(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _malformed(outcome) -> bool:
    """Whether ``outcome`` is a failure to parse a field (int(), float() or numpy)."""
    return isinstance(outcome, str) and ("invalid literal for int()" in outcome
                                         or "could not convert string" in outcome)


def _assert_same_fault(got, ref, path, line=None):
    """``got`` fails as ``ref`` does. numpy parses the whole file before any
    node check, so when either names a malformed field both must fail, and
    ``got`` must name that file and a line: ``line`` when given, else the
    line that ``ref`` names for its malformed field, if it names one."""
    if _malformed(got) or _malformed(ref):
        assert isinstance(ref, str), ref
        where = re.escape(str(path))
        named = re.match(rf"ValueError: {where}:(\d+): ", ref)
        if line is None and named and _malformed(ref):
            line = named[1]
        at = r"\d+" if line is None else line
        assert re.match(rf"ValueError: {where}:{at}: could not convert string", got), got
    else:
        assert got == ref


@st.composite
def states(draw, values=FINITE, max_records=4, max_nodes=6, max_dim=3):
    r = draw(st.integers(1, max_records))
    n = draw(st.integers(1, max_nodes))
    d = draw(st.integers(1, max_dim))
    flat = draw(st.lists(values, min_size=r * n * d, max_size=r * n * d))
    return np.array(flat, dtype=np.float64).reshape(r, n, d)


@st.composite
def trajectories(draw, values=FINITE):
    s = draw(states(values))
    # bounded so that the gaps between times stay finite
    times = draw(st.lists(FINITE.filter(lambda t: abs(t) < 1e300), min_size=len(s),
                          max_size=len(s), unique=True))
    return Trajectory(np.array(sorted(times)), s, len(s) - 1)


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=3 * n,
                          unique_by=lambda p: (min(p), max(p))))
    weights = draw(st.lists(FINITE.map(abs), min_size=len(pairs), max_size=len(pairs)))
    d = draw(st.integers(1, 3))
    features = np.array(draw(st.lists(ANY_FLOAT, min_size=n * d, max_size=n * d))).reshape(n, d)
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    split = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return Dataset(from_edge_list(n, pairs, weights), features, labels,
                   split == 0, split == 1, split == 2)


# ------------------------------------------------------------------ writers


@settings(max_examples=100, deadline=None)
@given(trajectories(values=ANY_FLOAT))
def test_trajectory_writer_bytes_match_csv_module(traj):
    with _scratch() as tmp:
        gio.write_trajectory_csv(traj, tmp / "new.csv")
        ref_write_trajectory_csv(traj, tmp / "ref.csv")
        assert _sha(tmp / "new.csv") == _sha(tmp / "ref.csv")


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_dataset_writer_bytes_match_csv_module(ds):
    with _scratch() as tmp:
        gio.write_dataset(ds, tmp / "new")
        ref_write_dataset(ds, tmp / "ref")
        for name in ("graph.txt", "features.csv", "labels.csv", "masks.csv"):
            assert _sha(tmp / "new" / name) == _sha(tmp / "ref" / name), name


@settings(max_examples=100, deadline=None)
@given(trajectories(values=ANY_FLOAT), datasets(),
       st.sampled_from((1, 2, 5, 11, gio.BLOCK_VALUES)))
def test_writers_bytes_match_csv_module_across_blocks(traj, ds, block):
    # a small block cuts every table into several, down to one row each; one of
    # 11 values holds 2 or 3 rows, and so cuts a record of the trajectory
    with _scratch() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(gio, "BLOCK_VALUES", block)
        gio.write_trajectory_csv(traj, tmp / "new.csv")
        ref_write_trajectory_csv(traj, tmp / "ref.csv")
        assert _sha(tmp / "new.csv") == _sha(tmp / "ref.csv")
        gio.write_dataset(ds, tmp / "new")
        ref_write_dataset(ds, tmp / "ref")
        for name in ("graph.txt", "features.csv", "labels.csv", "masks.csv"):
            assert _sha(tmp / "new" / name) == _sha(tmp / "ref" / name), name


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, st.integers(0, 10 ** 6)), max_size=8),
       st.lists(st.tuples(st.integers(0, 500), ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), max_size=8))
def test_energy_and_metrics_writer_bytes_match_csv_module(energy_rows, metric_rows):
    columns = [list(c) for c in zip(*energy_rows)] or [[], [], [], []]
    metrics = [EpochMetrics(*row) for row in metric_rows]
    with _scratch() as tmp:
        gio.write_energy_csv(tmp / "e.csv", *columns)
        ref_write_energy_csv(tmp / "e_ref.csv", *columns)
        gio.write_metrics_csv(tmp / "m.csv", metrics)
        ref_write_metrics_csv(tmp / "m_ref.csv", metrics)
        assert _sha(tmp / "e.csv") == _sha(tmp / "e_ref.csv")
        assert _sha(tmp / "m.csv") == _sha(tmp / "m_ref.csv")


# ------------------------------------------------------------------ readers


@settings(max_examples=100, deadline=None)
@given(trajectories(), st.randoms(use_true_random=False))
def test_trajectory_reader_matches_float_in_any_row_order(traj, rnd):
    with _scratch() as tmp:
        path = tmp / "t.csv"
        gio.write_trajectory_csv(traj, path)
        head, *rows = path.read_bytes().split(b"\r\n")[:-1]
        n = traj.states.shape[1]
        records = [rows[i:i + n] for i in range(0, len(rows), n)]
        for record in records:
            rnd.shuffle(record)
        path.write_bytes(b"\r\n".join([head] + [r for rec in records for r in rec]) + b"\r\n")
        got, ref = gio.read_trajectory_csv(path), ref_read_trajectory_csv(path)
    assert _same_bits(got.times, ref.times) and _same_bits(got.states, ref.states)
    assert _same_bits(got.states, traj.states) and got.step_count == ref.step_count


@st.composite
def decimal_strings(draw):
    """Decimal literals with up to 25 significant digits and any exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(0, len(digits)))
    exponent = draw(st.one_of(st.just(""), st.integers(-340, 320).map(lambda e: f"e{e}")))
    return draw(st.sampled_from(("", "-", "+"))) + digits[:point] + "." + digits[point:] + exponent


@settings(max_examples=200, deadline=None)
@given(st.lists(decimal_strings(), min_size=1, max_size=12))
def test_readers_parse_decimal_strings_as_float_does(literals):
    expected = np.array([float(s) for s in literals])
    with _scratch() as tmp:
        path = tmp / "t.csv"
        path.write_text("time,node,f0\r\n" + "".join(
            f"0,{i},{s}\r\n" for i, s in enumerate(literals)), newline="")
        if np.isfinite(expected).all():
            assert _same_bits(gio.read_trajectory_csv(path).states[0, :, 0], expected)
        else:
            got = _outcome(gio.read_trajectory_csv, path)
            assert got == _outcome(ref_read_trajectory_csv, path)


@st.composite
def faulty_trajectory_rows(draw):
    """Rows of a long-format trajectory with node ids and times drawn so that
    records may miss, repeat or overrun node ids and repeat times out of order,
    and times and features may be non-finite."""
    n = draw(st.integers(1, 5))
    times = draw(st.lists(st.sampled_from((0.0, -0.0, 0.5, 1.0, 1e-300, float("nan"),
                                           float("inf"), -float("inf"))),
                          min_size=1, max_size=4))
    rows = []
    for t in times:
        for _ in range(draw(st.integers(1, n + 2))):
            node = draw(st.one_of(st.integers(0, n - 1), st.integers(-2, n + 1)))
            value = draw(st.one_of(FINITE, NON_FINITE) if draw(st.booleans()) else FINITE)
            rows.append(["%.17g" % t, "%d" % node, "%.17g" % value])
    if draw(st.integers(0, 3)) == 0:  # one field that may not parse
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 2))] = draw(TOKENS)
    return rows


@settings(max_examples=400, deadline=None)
@given(faulty_trajectory_rows())
def test_trajectory_reader_reports_the_first_fault_like_the_loop_reader(rows):
    with _scratch() as tmp:
        path = tmp / "t.csv"
        path.write_text("time,node,f0\r\n" + "".join(",".join(r) + "\r\n" for r in rows),
                        newline="")
        got, ref = _outcome(gio.read_trajectory_csv, path), _outcome(ref_read_trajectory_csv, path)
    if isinstance(ref, str) or isinstance(got, str):
        _assert_same_fault(got, ref, path)
    else:
        assert _same_bits(got.times, ref.times) and _same_bits(got.states, ref.states)


@pytest.mark.parametrize("name", ["features.csv", "labels.csv", "masks.csv"])
@settings(max_examples=60, deadline=None)
@given(ds=datasets(), node=st.integers(-2, 12), row=st.integers(0, 11), drop=st.booleans(),
       token=st.one_of(st.none(), st.tuples(st.integers(0, 11), st.integers(0, 3), TOKENS)))
def test_bundle_reader_reports_the_first_fault_like_the_loop_reader(name, ds, node, row, drop,
                                                                    token):
    with _scratch() as tmp:
        gio.write_dataset(ds, tmp)
        path = tmp / name
        head, *rows = path.read_text().split("\n")[:-1]
        row %= len(rows)
        if drop:
            del rows[row]
        else:  # relabel one row: a duplicate, an out-of-range id, or unchanged
            rows[row] = f"{node}," + rows[row].split(",", 1)[1]
        line = None
        if token is not None:  # one field that may not parse: a node id, label, mask or feature
            at, column, text = token
            fields = rows[at % len(rows)].split(",")
            fields[column % len(fields)] = text
            rows[at % len(rows)] = ",".join(fields)
            line = at % len(rows) + 2  # the only field that may not parse is on this line
        path.write_text("\n".join([head] + rows) + "\n")
        got, ref = _outcome(gio.read_dataset, tmp), _outcome(ref_read_dataset, tmp)
    if isinstance(ref, str) or isinstance(got, str):
        _assert_same_fault(got, ref, path, line)
    else:
        assert _same_bits(got.features, ref.features)
        for field in ("labels", "train_mask", "val_mask", "test_mask"):
            np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))


# --------------------------------------------------------------- edge lists


EDGE_WEIGHTS = st.sampled_from((1.0, 2.0, 0.0, -0.0, 5e-324, 1e308, -1.0, float("nan"),
                                float("inf"), -float("inf")))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1)), max_size=10),
    st.lists(EDGE_WEIGHTS, min_size=10, max_size=10))))
def test_from_edge_list_reports_the_first_fault_like_the_dict_builder(case):
    n, pairs, weights = case
    weights = weights[:len(pairs)]
    got = _outcome(from_edge_list, n, pairs, weights)
    ref = _outcome(ref_from_edge_list, n, pairs, weights)
    if isinstance(ref, str):
        assert got == ref
    else:
        np.testing.assert_array_equal(got.edge_u, ref.edge_u)
        np.testing.assert_array_equal(got.edge_v, ref.edge_v)
        assert _same_bits(got.edge_weight, ref.edge_weight)
        np.testing.assert_array_equal(got.arc_offsets, ref.arc_offsets)


EDGE_LINES = st.one_of(
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(lambda p: "%d %d" % p),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6), EDGE_WEIGHTS)
    .map(lambda p: "%d %d %.17g" % p),
    st.sampled_from(("", "   ", "# a comment", "  # nodes: 6", "0 1 1 1", "3", "\t2\t4\t0.5 ")),
    st.tuples(TOKENS, st.integers(0, 6), st.booleans())
    .map(lambda p: ("%d %s" if p[2] else "%s %d 1") % ((p[1], p[0]) if p[2] else p[:2])),
    TOKENS.map(lambda t: "0 1 " + t),
)


# field separators: ASCII blanks and the other characters str.split() splits on,
# none of them a line end in a file read with universal newlines
SPACES = st.sampled_from((" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                          "\x85", "\xa0", "\u2003", "\u3000", " \u2028 "))


def test_space_table_holds_what_str_split_splits_on():
    spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert np.flatnonzero(gio._SPACE).tolist() == spaces


def _edge_outcomes(text, n, block=None):
    """``read_edge_list`` and ``ref_read_edge_list`` on a file of ``text`` (written as
    it is, line ends included), with ``block`` characters classified at a time."""
    with _scratch() as tmp, pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(gio, "TEXT_BLOCK", block)
        path = tmp / "graph.txt"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return path, _outcome(gio.read_edge_list, path, n), _outcome(ref_read_edge_list, path, n)


def _assert_same_graph_or_fault(path, got, ref):
    if isinstance(ref, str) or isinstance(got, str):
        _assert_same_fault(got, ref, path)
    else:
        assert got.n == ref.n
        np.testing.assert_array_equal(got.edge_u, ref.edge_u)
        np.testing.assert_array_equal(got.edge_v, ref.edge_v)
        assert _same_bits(got.edge_weight, ref.edge_weight)
        assert _same_bits(got.arc_weight, ref.arc_weight)
        for field in ("arc_src", "arc_dst", "arc_offsets", "degree", "reverse_arc"):
            np.testing.assert_array_equal(getattr(got, field), getattr(ref, field))


@settings(max_examples=400, deadline=None)
@given(st.lists(EDGE_LINES, max_size=12), st.one_of(st.none(), st.integers(0, 7)),
       st.sampled_from((1, 3, 7, None)), SPACES, st.sampled_from(("\n", "\r", "\r\n")),
       st.booleans())
def test_edge_list_reader_reports_the_first_fault_like_the_loop_reader(lines, n, block, space,
                                                                       end, last_end):
    # a small block classifies the lines a few characters at a time, cutting most lines
    text = end.join(line.replace(" ", space) for line in lines) + (end if last_end else "")
    _assert_same_graph_or_fault(*_edge_outcomes(text, n, block))


@pytest.mark.parametrize("text, faulty", [
    ("0 1\r1 2 0.5\r", False),  # old Mac line ends
    ("# nodes: 4\r\n0 1\r\n\r\n2 3 2\r\n", False),
    ("0 1 0.5\n1 2", False),  # a last line without a line end
    ("0 1\n  \t", False),
    ("0\x0b1\x0c2\n1\x1c2\x1d0.5\n2\x1e3\x1f1\n3\xa04\u30000.25\n4\u20035\x85\n", False),
    ("   # a comment\n\t#nodes: 9\n0 1\n", False),  # a # after leading blanks
    ("0 1\n# nodes: 5\n1 2 2\n", False),  # the header after an edge
    ("0 1\n1 2 3\n2 3\n3 4 0.5\n\n4 0\n", False),  # two and three fields mixed
    ("0 1 #x\n", True),  # a field that starts with # is not a comment
    ("0 1\n1 2 3 4\n0 x\n", True),  # the wrong field count comes first
    ("0 x\n1 2 3 4\n", True),  # the field that does not parse comes first
    ("0 1\n1 2\n0 x\n3\n", True),  # the same, in a later block than the first
])
@pytest.mark.parametrize("block", [1, 2, 5, None])
def test_edge_list_reader_reads_awkward_text_like_the_loop_reader(text, faulty, block):
    path, got, ref = _edge_outcomes(text, None, block)
    _assert_same_graph_or_fault(path, got, ref)
    assert isinstance(got, str) == faulty, got
