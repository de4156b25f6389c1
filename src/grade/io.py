"""File formats: edge-list text, dataset bundles, trajectory CSV, checkpoints.

Numeric text has the bytes of ``'%.17g'`` (doubles round-trip) and ``'%d'``.
Manifests are written atomically (temp file + rename) next to the outputs
they describe.
"""
from __future__ import annotations

import json
import math
import os
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dynamics import DynamicsConfig
from .graph import Dataset, Graph, _build_graph, _checked_edges
from .solvers import SolverConfig, Trajectory
from .training import EpochMetrics, ModelParams

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_dataset",
    "read_dataset",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_energy_csv",
    "write_summary_json",
    "write_checkpoint",
    "read_checkpoint",
    "read_json",
    "write_metrics_csv",
    "write_manifest",
]


def _finite_or_null(obj):
    """``obj`` with each non-finite float in it, at any depth, as None: JSON has no
    inf or NaN, and each one written here is a nonnegative quantity that overflowed."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path, obj: dict, sort_keys: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, sort_keys=sort_keys, allow_nan=False)
        fh.write("\n")


def _csv_head(*names: str) -> str:
    return ",".join(names) + "\r\n"


# ------------------------------------------------------------- text encoder
# One numpy encoder writes every table, a block of rows at a time, laid out as
# byte planes: one per character position of a row, rows along the last axis,
# and 0 where a value's text has no character. One transposed copy of the
# planes, without its zero bytes, is the text.

_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10^0..10^22, each exact as a double
_TENS = 10 ** np.arange(1, 20, dtype=np.uint64)
_AT = np.arange(20, dtype=np.int8)[:, None]  # the index of each plane of a slot region
# the text around the digits, by exponent from -6 to 17: "0.00" before, or "e-05" after
_AROUND = np.array([("0." + "0" * (-1 - e) if -4 <= e < 0 else "").ljust(5, "\0")
                    + ("e%+03d" % e if e < -4 or e > 16 else "") for e in range(-6, 18)],
                   dtype="S9").view(np.uint8).reshape(-1, 9).T
BLOCK_VALUES = 1 << 14  # values encoded at a time, so memory stays bounded for any table


def _split(x: np.ndarray, scales) -> list:
    """``x`` in the mixed radix of the descending ``scales``: the quotients, then the rest."""
    parts = []
    for scale in scales:
        parts.append(x // scale)
        x = x - parts[-1] * scale
    return parts + [x]


def _digits(n: np.ndarray, places: int) -> np.ndarray:
    """The ``places`` (a multiple of 4) low digits of each integer of ``n``, as ASCII planes."""
    scales = map(n.dtype.type, 10 ** np.arange(places - 4, 0, -4, dtype=np.uint64))
    quads = np.stack([q.astype(np.int16) for q in _split(n, scales)], axis=1)  # 4 digits each
    pairs = np.stack(_split(quads, [100]), axis=2).astype(np.uint8)
    digits = np.stack(_split(pairs, [10]), axis=3)
    return digits.reshape(n.shape[0], places, n.shape[1]) + np.uint8(ord("0"))


def _halves(a: np.ndarray):
    """Veltkamp's split of each double into two halves of 26 bits that sum to it exactly."""
    c = a * 134217729.0  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _significands(x: np.ndarray):
    """The 17-digit integer N, the decimal exponent and whether N is exact, for
    each double of ``x`` (see ``_float_planes``). The Dekker product's
    temporaries are freed on return, before the digit stage allocates its own."""
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -6) & (e <= 16)
    k = np.where(fast, 16 - e, 0).astype(np.int8)
    a, b = np.where(fast, a, 1.0), _POW10[k]
    hi = a * b
    (ah, al), (bh, bl) = _halves(a), _halves(b)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    fast &= (hi < 1e17) & ((hi > 1e16) | (hi == 1e16) & (lo >= 0))
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), 16 - k, fast


def _float_planes(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.17g' % v`` of each double v of ``x`` (k, m) into the planes ``out[:, :28]``.

    The 17 significant digits of |x| are the integer N nearest |x|·10^k with
    k = 16 − ⌊log10|x|⌋. For 0 ≤ k ≤ 22, 10^k is an exact double, and Dekker's
    product gives |x|·10^k = hi + lo exactly. hi is an even integer above 2^53,
    so hi + rint(lo) is N rounded half to even, as CPython rounds. N is used
    only when hi + lo itself lies in [10^16, 10^17), and it never rounds up to
    10^17: for these k, no double times 10^k lies within 8 below it. Every
    other value (zeros, non-finite values, exponents outside [−6, 16] and
    misjudged ones) is formatted by CPython.

    A slot is the sign, the "0.000" before the digits of a number below 1,
    18 planes that hold the digits with the point among them, and the exponent.
    """
    n, exp, fast = _significands(x)
    # %g: fixed notation for exponents in [-4, 17), scientific otherwise
    point = (exp * ((exp >= -4) & (exp <= 16)))[:, None]  # the digit the point follows
    digits = np.zeros((x.shape[0], 19, x.shape[1]), np.uint8)  # a 0 on either side
    digits[:, 1:18] = _digits(n, 20)[:, 3:]
    last = np.maximum(((digits[:, 1:18] != ord("0")) * _AT[:17]).max(axis=1, keepdims=True),
                      point)  # the last digit written: trailing zeros are stripped
    inner = (point >= 0) & (point < last)  # the point falls among the digits
    point = np.where(inner, point, np.int8(17))
    at, region, before = _AT[:18], out[:, 6:24], digits[:, :18]
    # a plane holds its own digit up to the point, then the point, then the digit before its own
    np.bitwise_xor(before, (digits[:, 1:] ^ before) * (at <= point), out=region)
    region ^= (region ^ np.uint8(ord("."))) * (at == point + 1)
    region *= at <= last + inner
    out[:, 0] = (x < 0) * np.uint8(ord("-"))
    around = np.take(_AROUND, exp + 6, axis=1).swapaxes(0, 1)
    out[:, 1:6], out[:, 24:28] = around[:, :5], around[:, 5:]
    if not fast.all():
        at = np.nonzero(~fast)
        text = np.array(["%.17g" % v for v in x[at].tolist()], dtype="S28")
        out[at[0], :28, at[1]] = text.view(np.uint8).reshape(-1, 28)


def _int_planes(i: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%d' % v`` of each int64 v of ``i`` (k, m) into the zeroed planes ``out[:, :21]``."""
    u = np.abs(i).view(np.uint64)  # |i|, also for the most negative int64
    width = np.searchsorted(_TENS, u, side="right")[:, None]  # digits - 1
    places = 4 + 4 * (int(width.max(initial=0)) // 4)  # the 4-digit groups of the widest
    out[:, 0] = (i < 0) * np.uint8(ord("-"))
    out[:, 21 - places:21] = _digits(u, places) * (_AT[20 - places:] >= 19 - width)


def _text(columns, sep: bytes, end: bytes) -> bytes:
    """One block of rows (see ``_write_table``), laid out in one buffer of planes."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    # each column's slot count and width: the characters of a value, then the separator
    slots = [(1, c.itemsize + 1) if c.dtype.kind == "S" else
             (c.shape[1], 29 if c.dtype.kind == "f" else 22) for c in columns]
    m, at = len(columns[0]), 0
    block = np.zeros((sum(k * w for k, w in slots) + len(end), m), np.uint8)
    for c, (k, w) in zip(columns, slots):
        out, at = block[at:at + k * w].reshape(k, w, m), at + k * w
        if c.dtype.kind == "S":  # one column of text, as it is
            out[0, :-1] = c.view(np.uint8).T
        elif c.dtype.kind == "f":
            _float_planes(np.ascontiguousarray(c.T, dtype=np.float64), out)
        else:
            _int_planes(np.ascontiguousarray(c.T, dtype=np.int64), out)
        out[:, -1] = sep[0]
    block[at:] = np.frombuffer(end, np.uint8)[:, None]
    keep = block.any(axis=1)  # planes no row uses are dropped before the transposed copy,
    keep[-1 - len(end)] = False  # and so is the separator after the last value
    return block[keep].T.tobytes().translate(None, b"\0")


def _write_table(path, head: str, rows: int, block, sep: str = ",", end: str = "\r\n") -> None:
    """Every CSV file and the edge list: ``head``, then ``rows`` rows.

    ``block(lo, hi)`` gives the columns of rows ``lo`` to ``hi`` - 1, each an (r,) or
    (r, k) array: floats are written as ``%.17g``, bytes as they are, other values as
    ``%d``. A row is its values joined by ``sep``, then ``end``. Rows are encoded
    BLOCK_VALUES values at a time, so memory stays bounded for any table.
    """
    step = max(1, BLOCK_VALUES // sum(np.shape(c)[1] if np.ndim(c) > 1 else 1
                                      for c in block(0, 0)))
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for lo in range(0, rows, step):
            fh.write(_text(block(lo, min(lo + step, rows)), sep.encode(), end.encode()))


def _columns(*columns):
    """``_write_table``'s row count and blocks for a table of whole ``columns``."""
    return len(columns[0]), lambda lo, hi: [c[lo:hi] for c in columns]


def _load_table(path, lead: list[tuple[str, str]], values: str,
                width: int | None = None) -> np.ndarray:
    """The rows under a CSV header as one structured array.

    Its fields are the ``lead`` (name, dtype) columns, then ``values``: one
    column of that dtype for each further name in the header, so a row with
    another column count is an error naming its line. The header must name
    ``width`` value columns, or at least 1 feature column when ``width`` is
    None. A decimal literal parses to the same number as ``int()`` or
    ``float()`` gives; a file without rows gives zero rows.
    """
    with _text_faults(path), open(path) as fh:
        found = max(fh.readline().count(",") + 1 - len(lead), 0)
        dtype = np.dtype(lead + [("values", values, (found,))])
        rows = _loadtxt(path, _numbered_blocks(fh, 2), dtype, delimiter=",")
    if width is None and not found:
        raise ValueError(f"{path}: expected at least 1 feature column after the node id")
    if width is not None and found != width:
        raise ValueError(f"{path}: expected {width} value columns after the node id")
    return rows


@contextmanager
def _text_faults(path):
    """Report text in ``path`` that does not decode as an error naming the file line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # the offset in ``exc`` is within one decoded chunk; a newline byte is
        # never part of a multibyte character, so find the line by decoding lines
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode(exc.encoding)
                except UnicodeDecodeError as bad:
                    raise ValueError(f"{path}:{lineno}: byte 0x{raw[bad.start]:02x} is not "
                                     f"valid {bad.encoding} text") from None
        raise


_AT_ROW = re.compile(r" at row \d+(?=, column)| at row \d+;.*")  # numpy's row, not the file's line


def _loadtxt(path, blocks, dtype, **kwargs) -> np.ndarray:
    """The rows of every block of ``blocks``, (line numbers, lines) pairs, as one
    array: one ``np.loadtxt`` call per block, with no comment syntax.

    A malformed field, such as a non-integral number in an integer field,
    raises a ValueError naming ``path`` and the line: the first block that
    fails is parsed again one line at a time, and its first line that fails
    alone is named. Every dtype here fixes the column count, so a line
    parses alone as it does in its block.
    """
    def parse(rows):
        with warnings.catch_warnings():
            # numpy releases that still accept "1.5" in an integer field truncate it with this warning
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1, **kwargs)

    parts = [np.zeros(0, dtype)]
    for linenos, lines in blocks:
        try:
            parts.append(parse(lines))
            continue
        except (ValueError, DeprecationWarning) as exc:
            fault = exc
        for lineno, line in zip(linenos, lines):
            try:
                parse([line])
            except (ValueError, DeprecationWarning) as exc:
                raise ValueError(f"{path}:{lineno}: {_AT_ROW.sub('', str(exc))}") from None
        raise ValueError(f"{path}: {fault}") from None
    return np.concatenate(parts)


def _node_order(node: np.ndarray, record: np.ndarray, n: int, where) -> np.ndarray:
    """Row order by record, then node id, for rows that list each id in [0, n)
    exactly once per record.

    ``record`` numbers the records from 0 in file order, and ``where(r)``
    names record r in errors. The first record with a fault is reported: its
    first row whose node is out of range or listed before, else its smallest
    missing node.
    """
    order = np.lexsort((node, record))
    s_node, s_record = node[order], record[order]
    repeat = np.zeros(node.size, dtype=bool)
    repeat[order[1:]] = (s_node[1:] == s_node[:-1]) & (s_record[1:] == s_record[:-1])
    bad = (node < 0) | (node >= n) | repeat
    short = np.bincount(record, minlength=1) < n
    first_bad = record[bad].min(initial=short.size)
    first_short = int(np.argmax(short)) if short.any() else short.size
    r = min(first_bad, first_short)
    if r == short.size:
        return order
    if r == first_bad:
        i = int(np.flatnonzero(bad & (record == r))[0])
        # a repeated id is in range, or its first occurrence would have been reported
        fault = "appears more than once" if repeat[i] else f"is out of range for {n} nodes"
        raise ValueError(f"{where(r)}: node {node[i]} {fault}")
    present = np.zeros(n, dtype=bool)
    present[node[record == r]] = True
    raise ValueError(f"{where(r)}: node {int(np.argmin(present))} is missing")


# ------------------------------------------------------------------ graphs


def write_edge_list(g: Graph, path) -> None:
    """One `u v weight` triple per line, 0-based ids, `#` comments allowed."""
    _write_table(path, f"# nodes: {g.n}\n", *_columns(g.edge_u, g.edge_v, g.edge_weight),
                 sep=" ", end="\n")


_EDGE = np.dtype([("uv", "i8", (2,)), ("w", "f8")])
TEXT_BLOCK = 1 << 16  # characters of a text file read and parsed at a time
# the characters str.split() splits on, each below 0x3001; np.loadtxt splits fields on them too
_SPACE = np.zeros(0x3002, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32, 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
        0x2028, 0x2029, 0x202F, 0x205F, 0x3000]] = True


def _text_blocks(fh):
    """The text of ``fh`` in blocks of whole lines, about TEXT_BLOCK characters
    each; every block ends with a newline (one is added to an unterminated last line)."""
    parts = []
    for chunk in iter(lambda: fh.read(TEXT_BLOCK), ""):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join(parts) + chunk[:cut]
            parts = []
        parts.append(chunk[cut:])
    if any(parts):
        yield "".join(parts) + "\n"


def _numbered_blocks(fh, lineno: int):
    """(line numbers, lines) of each of ``_text_blocks(fh)``; its first line is line ``lineno``."""
    for block in _text_blocks(fh):
        lines = block.split("\n")[:-1]
        yield range(lineno, lineno + len(lines)), lines
        lineno += len(lines)


def _line_tokens(block: str):
    """The lines of ``block``, and for each line its whitespace-separated field
    count and whether its first field starts with ``#``."""
    codes = (np.frombuffer(block.encode("ascii"), np.uint8) if block.isascii()
             else np.frombuffer(block.encode("utf-32-le"), np.uint32))
    space = np.take(_SPACE, codes, mode="clip")
    first = np.flatnonzero(~space & np.r_[True, space[:-1]])  # the first character of each field
    fields = np.searchsorted(first, np.flatnonzero(codes == ord("\n")))  # fields before each line end
    count = np.diff(fields, prepend=0)
    lead = np.append(codes[first], 0)[fields - count]  # the first character of a line
    return block.split("\n")[:-1], count, (count > 0) & (lead == ord("#"))


def read_edge_list(path, n: int | None = None) -> Graph:
    """Parse the edge-list text format; node count from the header or ``n``.

    A line holds `u v` or `u v weight` (weight 1 when absent); blank lines
    and lines starting with `#` are skipped, and `# nodes: N` sets the node
    count. The file is opened once and read TEXT_BLOCK characters at a time:
    array operations sort each block's lines into blank, comment and edge
    lines, and one np.loadtxt call parses the block's edge lines. Only a
    block with a field that does not parse is parsed again, a line at a
    time, to name its line.
    """
    header_n, fault = None, None

    def edge_lines(fh):
        """(line numbers, texts) of the edge lines of each block, up to the first fault."""
        nonlocal header_n, fault
        lineno = 1
        for block in _text_blocks(fh):
            lines, count, comment = _line_tokens(block)
            edge = (count > 0) & ~comment
            wrong = np.flatnonzero(edge & ((count < 2) | (count > 3)))
            stop = int(wrong[0]) if wrong.size else len(lines)
            for i in np.flatnonzero(comment[:stop]).tolist():
                if "nodes:" in lines[i]:
                    try:
                        # strip() first: int() keeps the separators \x1c to \x1f
                        header_n = int(lines[i].split("nodes:")[1].strip())
                    except ValueError:
                        stop, fault = i, f"{path}:{lineno + i}: expected '# nodes: N'"
                        break
            else:
                if wrong.size:
                    fault = f"{path}:{lineno + stop}: expected 'u v [weight]'"
            at = np.flatnonzero(edge[:stop])
            texts = np.array(lines, dtype=object)[at]
            texts[count[at] == 2] += " 1"
            yield lineno + at, texts
            if stop < len(lines):
                return
            lineno += len(lines)

    with _text_faults(path), open(path) as fh:
        edges = _loadtxt(path, edge_lines(fh), _EDGE)
    # a fault in a line before the one that stopped the reading is reported first
    if fault:
        raise ValueError(fault)
    if n is None:
        n = header_n if header_n is not None else int(edges["uv"].max(initial=-1)) + 1
    edge_u, edge_v, weight = _checked_edges(n, edges["uv"], edges["w"])
    del edges  # so that the graph is built without them
    try:  # the request for a per-node array that cannot be had fails at once
        np.empty(n + 1, dtype=np.int64)
    except (MemoryError, ValueError):
        raise ValueError(f"{path}: {n} nodes do not fit in memory") from None
    return _build_graph(n, edge_u, edge_v, weight)


# ---------------------------------------------------------------- datasets


def write_dataset(ds: Dataset, out_dir) -> None:
    """Write the bundle {graph.txt, features.csv, labels.csv, masks.csv}."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(ds.graph, out / "graph.txt")

    nodes, d = np.arange(ds.graph.n), ds.features.shape[1]
    _write_table(out / "features.csv", _csv_head("node", *(f"f{j}" for j in range(d))),
                 *_columns(nodes, ds.features))
    _write_table(out / "labels.csv", _csv_head("node", "label"), *_columns(nodes, ds.labels))
    _write_table(out / "masks.csv", _csv_head("node", "train", "val", "test"),
                 *_columns(nodes, ds.train_mask, ds.val_mask, ds.test_mask))


def _read_table(path, n: int, values: str, width: int | None = None) -> np.ndarray:
    """The value columns of a per-node table, one row per node id in order."""
    rows = _load_table(path, [("node", "i8")], values, width)
    order = _node_order(rows["node"], np.zeros(rows.size, dtype=np.int64), n, lambda r: path)
    return rows["values"][order]


def read_dataset(in_dir) -> Dataset:
    """Read a bundle of at least one node; every per-node file must list each node exactly once."""
    src = Path(in_dir)
    for name in ("graph.txt", "features.csv", "labels.csv", "masks.csv"):
        if not (src / name).exists():
            raise FileNotFoundError(f"dataset bundle is missing {name}")
    graph = read_edge_list(src / "graph.txt")
    n = graph.n
    if not n:
        raise ValueError(f"{src / 'graph.txt'}: expected at least 1 node")

    features = _read_table(src / "features.csv", n, "f8")
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        raise ValueError(f"{src / 'features.csv'}: node {bad[0][0]} has a non-finite feature")
    labels = _read_table(src / "labels.csv", n, "i8", 1)[:, 0]
    bad = np.flatnonzero(labels < 0)
    if bad.size:
        raise ValueError(f"{src / 'labels.csv'}: node {bad[0]} has label {labels[bad[0]]}; "
                         "labels must be >= 0")
    masks = _read_table(src / "masks.csv", n, "i8", 3).astype(bool)
    try:
        return Dataset(graph, features, labels, *masks.T)
    except ValueError as exc:  # overlapping masks: the one fault the checks above leave
        raise ValueError(f"{src / 'masks.csv'}: {exc}") from None


# ------------------------------------------------------------- trajectories


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Long format: one row per (time, node) with columns f0..f{d-1}."""
    count, n, d = traj.states.shape
    times = np.array(["%.17g" % t for t in traj.times.tolist()], dtype=bytes)
    nodes = np.array(["%d" % i for i in range(n)], dtype=bytes)  # the same text in every record
    states = traj.states.reshape(count * n, d)

    def block(lo, hi):
        record, node = np.divmod(np.arange(lo, hi), max(n, 1))
        return [times[record], nodes[node], states[lo:hi]]

    _write_table(path, _csv_head("time", "node", *(f"f{j}" for j in range(d))), len(states), block)


def read_trajectory_csv(path) -> Trajectory:
    """Read the long format; every record lists the first record's nodes once, all finite.

    Rows with the same time form one record, in order of first appearance;
    a record's rows may come in any order. Times must be finite and rise from
    record to record; a time fault is reported before any node fault.
    """
    rows = _load_table(path, [("time", "f8"), ("node", "i8")], "f8")
    if not rows.size:
        raise ValueError(f"{path}: no records")
    bad = np.flatnonzero(~np.isfinite(rows["time"]))
    if bad.size:
        raise ValueError(f"{path} at t={rows['time'][bad[0]]:.17g}: time is not finite")
    _, first, inverse = np.unique(rows["time"], return_index=True, return_inverse=True)
    record = np.argsort(np.argsort(first))[inverse]  # numbered in order of first appearance
    times = rows["time"][np.sort(first)]
    back = np.flatnonzero(np.diff(times) <= 0)
    if back.size:
        raise ValueError(f"{path} at t={times[back[0] + 1]:.17g}: times must be strictly "
                         "increasing")
    n = int(np.count_nonzero(record == 0))
    order = _node_order(rows["node"], record, n, lambda r: f"{path} at t={times[r]:.17g}")
    states = rows["values"][order].reshape(times.size, n, rows["values"].shape[1])
    bad = np.argwhere(~np.isfinite(states))
    if bad.size:
        rec, node, _ = bad[0]
        raise ValueError(f"{path} at t={times[rec]:.17g}: node {node} has a non-finite feature")
    return Trajectory(times, states, step_count=max(times.size - 1, 0))


def write_energy_csv(path, times, energy, spread, cluster_counts) -> None:
    """One row per record: time, Dirichlet energy, spread and cluster count."""
    _write_table(path, _csv_head("time", "energy", "spread", "cluster_count"),
                 *_columns(*(np.asarray(c, np.float64) for c in (times, energy, spread)),
                           np.asarray(cluster_counts, np.int64)))


def write_summary_json(path, times, energy, spread, cluster_counts, extra=None) -> None:
    obj = {
        "times": [float(t) for t in times],
        "energy": [float(e) for e in energy],
        "spread": [float(s) for s in spread],
        "cluster_count": [int(c) for c in cluster_counts],
    }
    _write_json(path, {**obj, **(extra or {})})


# ------------------------------------------------------------- checkpoints


def write_checkpoint(path, params: ModelParams, dynamics: DynamicsConfig, solver: SolverConfig) -> None:
    obj = {
        "model": params.to_json(),
        "dynamics_config": dynamics.to_json(),
        "solver_config": solver.to_json(),
    }
    _write_json(path, obj)


def read_json(path):
    """The JSON value in ``path``; text that does not decode or parse raises
    a ValueError naming ``path`` and the line (``path:line:col`` for syntax)."""
    with _text_faults(path), open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def read_checkpoint(path) -> tuple[ModelParams, DynamicsConfig, SolverConfig]:
    obj = read_json(path)
    return (
        ModelParams.from_json(obj["model"]),
        DynamicsConfig.from_json(obj["dynamics_config"]),
        SolverConfig.from_json(obj["solver_config"]),
    )


def write_metrics_csv(path, metrics: list[EpochMetrics]) -> None:
    epochs = np.array([m.epoch for m in metrics], np.int64)
    scores = np.array([(m.loss, m.val_acc, m.test_acc) for m in metrics], np.float64)
    _write_table(path, _csv_head("epoch", "loss", "val_acc", "test_acc"), *_columns(epochs, scores))


# ---------------------------------------------------------------- manifest


def write_manifest(out_dir, manifest: dict) -> Path:
    """Atomically write run metadata next to the outputs it describes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "manifest.json"
    tmp = out / ".manifest.json.tmp"
    _write_json(tmp, manifest, sort_keys=True)
    os.replace(tmp, target)
    return target
