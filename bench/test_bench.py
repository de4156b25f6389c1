"""Tests of the benchmark's own arithmetic, inputs and output checks."""
import shutil

import pytest
from scipy.spatial.distance import pdist

import spans
import workloads as wl
from grade.cli import dispatch


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        spans.Span("root", 0.0, 10.0, -1, "r"),
        spans.Span("a", 1.0, 4.0, 0, "r"),
        spans.Span("a.child", 2.0, 3.0, 1, "r"),
        spans.Span("b", 3.5, 6.0, 0, "r"),  # overlaps a by 0.5
        spans.Span("c", 9.0, 12.0, 0, "r"),  # runs past the root's end
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_records_nested_spans_and_restores_grade(tmp_path):
    import grade.cli
    import grade.graph

    original = (grade.cli.dispatch, grade.cli.csbm_generate, grade.graph.csbm_generate)
    tracer = spans.Tracer()
    tracer.run_id = "setup-0"
    tracer.install()
    try:
        argv = ["generate", "--n", "20", "--seed", "3", "--out", str(tmp_path / "ds")]
        assert grade.cli.dispatch(argv) == 0
    finally:
        tracer.uninstall()
    assert (grade.cli.dispatch, grade.cli.csbm_generate, grade.graph.csbm_generate) == original

    by_name = {s.name: s for s in tracer.spans}
    root = tracer.spans[by_name["graph.csbm_generate"].parent]
    assert root.name == "cli.dispatch" and root.parent == -1
    assert {s.run_id for s in tracer.spans} == {"setup-0"}
    metrics = spans.layer_metrics(tracer, [], ["setup-0"])
    assert metrics["graph.csbm_generate.calls"] == 1
    assert metrics["cli.dispatch.self_s"] > 0


def test_inputs_repeat_for_a_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for work, seed in ((a, 5), (b, 5), (c, 6)):
        work.mkdir()
        for name in ("dense-train", "sparse-energy"):
            wl.write_inputs(name, seed, work)
    assert wl.digests(a, ["trajectory.csv", "train.json"]) == wl.digests(b, ["trajectory.csv", "train.json"])
    assert wl.digests(a, ["trajectory.csv"]) != wl.digests(c, ["trajectory.csv"])
    assert wl.program_seed(5, 0) == 5 and wl.program_seed(5, 1) != wl.program_seed(6, 1)


def test_synthetic_states_span_dispersed_to_collapsed():
    _, states = wl.synthetic_states(0, n=400)
    eps = wl.CLUSTER_EPS_FRACTION * float(pdist(states[0]).max())
    counts = [wl.cluster_count(X, eps) for X in states]
    assert counts[1] > 0.9 * 400
    assert counts[2] == 1


@pytest.fixture(scope="module")
def energy_run(tmp_path_factory):
    """A real `grade energy` run on a small bundle and a synthetic trajectory."""
    root = tmp_path_factory.mktemp("energy")
    bundle, out = root / "bundle", root / "out"
    argv = ["generate", "--n", "60", "--p-intra", "0.3", "--p-inter", "0.05",
            "--seed", "1", "--out", str(bundle)]
    assert dispatch(argv) == 0
    times, states = wl.synthetic_states(1, n=60)
    wl.write_trajectory(root / "trajectory.csv", times, states)
    argv = ["energy", "--dataset", str(bundle), "--trajectory", str(root / "trajectory.csv"),
            "--out", str(out)]
    assert dispatch(argv) == 0
    return bundle, out, states


def _corrupt(out, tmp_path, edit):
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    rows = [line.split(",") for line in (copy / "energy.csv").read_text().splitlines()]
    edit(rows)
    (copy / "energy.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    return copy


def test_energy_check_passes_on_real_output(energy_run):
    bundle, out, states = energy_run
    problems, values = wl.check_energy(out, bundle, states)
    assert problems == []
    assert values["clusters_2"] == 1


def test_energy_check_catches_a_perturbed_energy(energy_run, tmp_path):
    bundle, out, states = energy_run

    def edit(rows):
        rows[2][1] = repr(float(rows[2][1]) * (1 + 1e-9))

    problems, _ = wl.check_energy(_corrupt(out, tmp_path, edit), bundle, states)
    assert any("energies" in p for p in problems)


def test_energy_check_catches_a_wrong_cluster_count(energy_run, tmp_path):
    bundle, out, states = energy_run

    def edit(rows):
        rows[1][3] = str(int(rows[1][3]) + 1)

    problems, _ = wl.check_energy(_corrupt(out, tmp_path, edit), bundle, states)
    assert any("cluster counts" in p for p in problems)


def test_max_deviation_is_relative_and_flags_missing_values():
    assert wl.max_deviation({"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 1.0}) == 1.0
    assert wl.max_deviation({}, {"a": 1.0}) == float("inf")
