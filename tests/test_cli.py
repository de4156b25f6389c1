"""End-to-end CLI runs: commands, config precedence, exit codes, manifests."""
import copy
import csv
import dataclasses
import json
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grade import (
    ActivationSpec,
    CsbmConfig,
    Dataset,
    DynamicsConfig,
    KernelSpec,
    ProjectionParams,
    SolverConfig,
    TrainConfig,
    Trajectory,
    __version__,
    from_edge_list,
)
from grade.cli import _merge, _resolve, _unread, build_parser, dispatch
from grade import io as gio

from _oracles import ref_write_trajectory_csv

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "ds"
    code = dispatch([
        "generate", "--n", "100", "--p-intra", "0.9", "--p-inter", "0.05",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    return out


def test_generate_writes_bundle_and_manifest(dataset_dir):
    for name in ("graph.txt", "features.csv", "labels.csv", "masks.csv", "manifest.json"):
        assert (dataset_dir / name).exists()
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 7
    assert manifest["config"]["p_intra"] == 0.9
    assert manifest["version"]
    assert manifest["duration_s"] >= 0


def test_generate_deterministic_replay(dataset_dir, tmp_path):
    out2 = tmp_path / "ds2"
    code = dispatch([
        "generate", "--n", "100", "--p-intra", "0.9", "--p-inter", "0.05",
        "--seed", "7", "--out", str(out2),
    ])
    assert code == 0
    for name in ("graph.txt", "features.csv", "labels.csv", "masks.csv"):
        assert (dataset_dir / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_record_count(dataset_dir, tmp_path):
    out = tmp_path / "run"
    code = dispatch([
        "simulate", "--dataset", str(dataset_dir), "--method", "euler",
        "--step", "1", "--horizon", "40", "--aggregation", "off",
        "--activation", "identity", "--out", str(out),
    ])
    assert code == 0
    traj = gio.read_trajectory_csv(out / "trajectory.csv")
    assert len(traj.times) == 41
    assert traj.times[-1] == 40.0


def test_simulate_replay_bit_for_bit(dataset_dir, tmp_path):
    args = [
        "simulate", "--dataset", str(dataset_dir), "--method", "euler",
        "--step", "0.5", "--horizon", "4", "--kernel", "gaussian",
    ]
    assert dispatch(args + ["--out", str(tmp_path / "a")]) == 0
    assert dispatch(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == \
        (tmp_path / "b" / "trajectory.csv").read_bytes()


def test_config_file_and_flag_precedence(dataset_dir, tmp_path):
    cfg = tmp_path / "dyn.json"
    cfg.write_text(json.dumps({
        "activation": "identity",
        "aggregation_on": False,
        "horizon": 2.0,
        "step": 1.0,
    }))
    out = tmp_path / "run"
    # flag --horizon 3 overrides config horizon 2; config step 1 overrides default
    code = dispatch([
        "simulate", "--dataset", str(dataset_dir), "--config", str(cfg),
        "--horizon", "3", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["horizon"] == 3.0
    assert manifest["config"]["step"] == 1.0
    assert manifest["config"]["activation"] == "identity"
    traj = gio.read_trajectory_csv(out / "trajectory.csv")
    assert traj.times[-1] == 3.0
    assert len(traj.times) == 4


def test_energy_outputs_and_verdict(dataset_dir, tmp_path):
    out = tmp_path / "energy"
    code = dispatch([
        "energy", "--dataset", str(dataset_dir), "--aggregation", "off",
        "--activation", "identity", "--method", "euler", "--step", "1",
        "--horizon", "40", "--out", str(out),
    ])
    assert code == 0
    with open(out / "energy.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "energy", "spread", "cluster_count"]
    assert len(rows) == 42
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] in ("oversmoothed", "mitigated")
    assert verdict["dwell_intervals"]
    first_energy = float(rows[1][1])
    last_energy = float(rows[-1][1])
    assert last_energy < first_energy


def test_energy_from_existing_trajectory(dataset_dir, tmp_path):
    run = tmp_path / "run"
    assert dispatch([
        "simulate", "--dataset", str(dataset_dir), "--method", "euler",
        "--step", "1", "--horizon", "5", "--out", str(run),
    ]) == 0
    out = tmp_path / "energy"
    code = dispatch([
        "energy", "--dataset", str(dataset_dir),
        "--trajectory", str(run / "trajectory.csv"), "--out", str(out),
    ])
    assert code == 0
    assert (out / "energy.csv").exists()


def test_energy_rejects_a_trajectory_without_feature_columns(dataset_dir, tmp_path, capsys):
    # the writer's own `time,node` file holds no coordinates: like a features.csv
    # without them it is refused, not read as a collapse to zero energy
    path = tmp_path / "t.csv"
    gio.write_trajectory_csv(Trajectory(np.array([0.0, 1.0]), np.zeros((2, 100, 0)), 1), path)
    capsys.readouterr()
    out = tmp_path / "energy"
    assert dispatch(["energy", "--dataset", str(dataset_dir), "--trajectory", str(path),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {path}: expected at least 1 feature column "
                                       "after the node id\n")
    assert not out.exists()


def test_energy_on_features_whose_distances_overflow_warns_nothing(tmp_path):
    # two groups about 2e154 apart: the squared distance of a pair across them,
    # and so the diameter and eps, overflow to inf; no arc joins the groups
    n = 20
    rng = np.random.default_rng(0)
    X = np.where(np.arange(n)[:, None] < n // 2, -1e154, 1e154) + 1e150 * rng.normal(size=(n, 2))
    edges = [(i, i + 1) for i in range(n - 1) if i != n // 2 - 1]
    none = np.zeros(n, dtype=bool)
    gio.write_dataset(Dataset(from_edge_list(n, edges), X, np.zeros(n, dtype=np.int64),
                              none, none, none), tmp_path / "ds")
    gio.write_trajectory_csv(Trajectory(np.array([0.0, 1.0]), np.stack([X, X / 2]), 1),
                             tmp_path / "t.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(["energy", "--dataset", str(tmp_path / "ds"), "--trajectory",
                         str(tmp_path / "t.csv"), "--out", str(tmp_path / "out")])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    verdict, manifest = _strict_json(tmp_path / "out")
    assert manifest["config"]["eps"] is None and verdict["eps"] is None


def test_energy_reports_overflowing_energy_and_spread_as_inf(dataset_dir, tmp_path, capsys):
    # features of random sign along the graph's arcs: the arc differences of
    # both records, their squares and the last record's coordinate range overflow
    shape = gio.read_dataset(dataset_dir).features.shape
    sign = np.random.default_rng(0).choice([-1.0, 1.0], size=shape)
    gio.write_trajectory_csv(Trajectory(np.array([0.0, 1.0]), np.stack([sign * 1e154,
                                                                        sign * 1e308]), 1),
                             tmp_path / "t.csv")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(["energy", "--dataset", str(dataset_dir), "--trajectory",
                         str(tmp_path / "t.csv"), "--out", str(tmp_path / "out")])
    assert code == 0
    assert not caught
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "out" / "energy.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["0", "inf", "2.0000000000000001e+154"],
                                                    ["1", "inf", "inf"]]
    verdict, manifest = _strict_json(tmp_path / "out")
    assert verdict["energy"] == [None, None]
    assert verdict["spread"] == [2.0000000000000001e+154, None]
    assert verdict["energy_floor"] is None
    assert manifest["config"]["eps"] is None


def _strict_json(out):
    """verdict.json and manifest.json in ``out``, read by a parser that rejects
    the ``Infinity`` and ``NaN`` that RFC 8259 does not allow."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return [json.loads((out / name).read_text(), parse_constant=reject)
            for name in ("verdict.json", "manifest.json")]


@pytest.mark.parametrize("command", [["simulate"], ["energy"], ["train", "--epochs", "1"]])
def test_node_only_features_exit_1_naming_the_file(dataset_dir, tmp_path, capsys, command):
    features = dataset_dir / "features.csv"
    features.write_text("".join(line.split(",")[0] + "\n"
                                for line in features.read_text().splitlines()))
    capsys.readouterr()
    code = dispatch([*command, "--dataset", str(dataset_dir), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "features.csv: expected at least 1 feature column" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["energy"], ["train", "--epochs", "1"]])
def test_a_bundle_of_no_nodes_exits_1_naming_graph_txt(tmp_path, capsys, command):
    # a graph of no nodes is a valid library value, but no command has a node to run on
    bundle, none = tmp_path / "ds", np.zeros(0, dtype=bool)
    gio.write_dataset(Dataset(from_edge_list(0, []), np.zeros((0, 2)), np.zeros(0, np.int64),
                              none, none, none), bundle)
    out = tmp_path / "out"
    assert dispatch([*command, "--dataset", str(bundle), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bundle / 'graph.txt'}: expected at least 1 node\n"
    assert not out.exists()


def test_energy_from_trajectory_rejects_dynamics_settings(dataset_dir, tmp_path, capsys):
    # a recorded trajectory is not simulated, so a config or a dynamics/solver
    # flag would be silently ignored; it is an error instead
    run = tmp_path / "run"
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--method", "euler",
                     "--step", "1", "--horizon", "2", "--out", str(run)]) == 0
    capsys.readouterr()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"horizn": 3}))
    out = tmp_path / "energy"
    code = dispatch(["energy", "--dataset", str(dataset_dir), "--trajectory",
                     str(run / "trajectory.csv"), "--config", str(config),
                     "--kernel", "nonsense", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --config, --kernel: ") and "do not apply" in err
    assert not out.exists()


def test_grad_check_passes(capsys):
    code = dispatch(["grad-check", "--seed", "1", "--instances", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max relative error" in out
    assert "PASS" in out


def test_grad_check_fails_and_exits_two_with_a_coarse_step(capsys):
    # a finite-difference step of 0.5 is far too coarse for the 1e-5 threshold
    code = dispatch(["grad-check", "--instances", "1", "--h", "0.5"])
    assert code == 2
    assert capsys.readouterr().out.splitlines()[-1] == "grad-check: FAIL"


def test_train_outputs(dataset_dir, tmp_path):
    out = tmp_path / "model"
    code = dispatch([
        "train", "--dataset", str(dataset_dir), "--epochs", "5",
        "--lr", "0.3", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "checkpoint.json").exists()
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss", "val_acc", "test_acc"]
    assert len(rows) == 6
    params, dyn, sol = gio.read_checkpoint(out / "checkpoint.json")
    assert params.enc_weight.shape == (2, 8)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 5


@pytest.mark.parametrize("dynamics, has_theta", [
    ({"adjacency_mode": "attention", "diffusion_on": False}, False),  # no term reads it
    ({"adjacency_mode": "attention"}, True),
    ({"kernel": {"kind": "attention"}}, True),
])
def test_train_draws_theta_only_when_the_dynamics_read_it(dataset_dir, tmp_path, dynamics,
                                                          has_theta):
    (tmp_path / "cfg.json").write_text(json.dumps({"dynamics": dynamics}))
    out = tmp_path / "model"
    assert dispatch(["train", "--dataset", str(dataset_dir), "--config", str(tmp_path / "cfg.json"),
                     "--epochs", "2", "--out", str(out)]) == 0
    model = json.loads((out / "checkpoint.json").read_text())["model"]
    assert ("theta" in model) == has_theta


def test_train_reports_the_test_acc_of_the_checkpoint(tmp_path, capsys):
    from grade import TrainConfig, forward
    from grade.training import accuracy

    ds_dir, out = tmp_path / "noisy", tmp_path / "model"
    assert dispatch(["generate", "--n", "60", "--p-intra", "0.5", "--p-inter", "0.2",
                     "--noise-std", "0.8", "--seed", "5", "--out", str(ds_dir)]) == 0
    assert dispatch(["train", "--dataset", str(ds_dir), "--epochs", "8", "--lr", "0.3",
                     "--seed", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    params, dyn, sol = gio.read_checkpoint(out / "checkpoint.json")
    ds = gio.read_dataset(ds_dir)
    logits, _ = forward(params, ds, TrainConfig(dynamics=dyn, solver=sol))
    assert f"test acc {accuracy(logits, ds.labels, ds.test_mask):.3f} after 8 epochs" in printed


def test_unknown_flag_exits_one(dataset_dir, tmp_path, capsys):
    assert dispatch(["simulate", "--dataset", str(dataset_dir),
                     "--frobnicate", "--out", str(tmp_path / "x")]) == 1


def test_unknown_command_exits_one(capsys):
    assert dispatch(["transmogrify"]) == 1


def test_missing_dataset_exits_one(tmp_path, capsys):
    assert dispatch(["simulate", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x")]) == 1


def test_invalid_config_json_exits_one(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert dispatch(["simulate", "--dataset", str(dataset_dir),
                     "--config", str(bad), "--out", str(tmp_path / "x")]) == 1


def test_blowup_exits_two(dataset_dir, tmp_path, capsys):
    # log kernel, huge Euler step: the aggregation term explodes
    code = dispatch([
        "simulate", "--dataset", str(dataset_dir), "--kernel", "log",
        "--method", "euler", "--step", "20", "--horizon", "400",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_train_unroll_blowup_exits_two_naming_the_step(tmp_path, capsys):
    # rk4 at the default step over a horizon of 4 steps over the unroll's blow-up
    assert dispatch(["generate", "--n", "100", "--seed", "1", "--out", str(tmp_path / "ds")]) == 0
    capsys.readouterr()
    code = dispatch(["train", "--dataset", str(tmp_path / "ds"), "--method", "rk4",
                     "--horizon", "4", "--epochs", "2", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "state blew up at unroll step 2 (t=1)" in capsys.readouterr().err


def test_dopri5_blowup_exits_two_with_only_the_failure_line(tmp_path, capsys):
    # the stage evaluations overflow before the non-finite state is caught; numpy's
    # warnings about it stay silent, as they do for the fixed-step methods
    assert dispatch(["generate", "--n", "100", "--seed", "0", "--out", str(tmp_path / "ds")]) == 0
    (tmp_path / "cfg.json").write_text('{"kernel": {"kind": "gaussian", "normalize_rows": true}}')
    capsys.readouterr()
    code = dispatch(["simulate", "--dataset", str(tmp_path / "ds"), "--method", "dopri5",
                     "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == "numerical failure: state became non-finite at t=0.25339\n"


@pytest.mark.parametrize("nodes", ["100000000000000000", "4611686018427387904"])
def test_a_node_count_too_large_to_allocate_exits_one_naming_the_file(dataset_dir, tmp_path,
                                                                      capsys, nodes):
    graph = dataset_dir / "graph.txt"
    _, edges = graph.read_text().split("\n", 1)
    graph.write_text(f"# nodes: {nodes}\n{edges}")
    assert dispatch(["energy", "--dataset", str(dataset_dir), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {graph}: {nodes} nodes do not fit in memory\n"


_HUGE = "100000000000000000"  # 10^17: every array it sizes exceeds 2^47 bytes


@pytest.mark.parametrize("command, label", [
    (["generate", "--n", _HUGE], None),
    (["generate", "--n", "100", "--feat-dim", _HUGE], None),
    (["train", "--epochs", "1", "--hidden", _HUGE], None),
    (["train", "--epochs", "1"], _HUGE),
], ids=["nodes", "features", "hidden", "label"])
def test_a_size_too_large_to_allocate_exits_one_with_one_error_line(dataset_dir, tmp_path,
                                                                    capsys, command, label):
    # no address space holds 2^47 bytes, so no overcommit setting lets the allocation through
    if label is not None:
        _rewrite_rows(dataset_dir / "labels.csv",
                      lambda rows: rows[:3] + [[rows[3][0], label]] + rows[4:])
    where = [] if command[0] == "generate" else ["--dataset", str(dataset_dir)]
    capsys.readouterr()
    assert dispatch([*command, *where, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_simulate_warns_when_euler_steps_over_the_dynamics(dataset_dir, tmp_path, capsys):
    # the README's default example: euler at step 1 steps over a finite-time blow-up
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--out", str(tmp_path / "a")]) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(r"warning: max_error_ratio 353 exceeds 1: .*\n", err), err
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["max_error_ratio"] > 1
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--aggregation", "off",
                     "--activation", "identity", "--step", "0.1",
                     "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert 0 < manifest["max_error_ratio"] < 1
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--method", "rk4",
                     "--horizon", "1", "--out", str(tmp_path / "c")]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["max_error_ratio"] is None


def test_simulate_writes_a_long_trajectory_without_a_child_process(dataset_dir, tmp_path,
                                                                   monkeypatch):
    # 401 records of 100 nodes; nothing reads GRADE_THREADS, so even a bad value runs
    def no_fork():
        raise AssertionError("simulate forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("GRADE_THREADS", "zero")
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--aggregation", "off",
                     "--activation", "identity", "--step", "0.01", "--horizon", "4",
                     "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert not {"threads", "writer_processes"} & manifest.keys()
    path = tmp_path / "run" / "trajectory.csv"
    traj = gio.read_trajectory_csv(path)
    assert traj.states.size > 2 ** 16
    ref_write_trajectory_csv(traj, tmp_path / "ref.csv")
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_energy_warns_like_simulate_when_it_integrates(dataset_dir, tmp_path, capsys):
    # energy without --trajectory integrates as simulate does, so it records
    # and warns the same way
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--out", str(tmp_path / "s")]) == 0
    warned = capsys.readouterr().err
    assert dispatch(["energy", "--dataset", str(dataset_dir), "--out", str(tmp_path / "e")]) == 0
    assert capsys.readouterr().err == warned
    assert re.fullmatch(r"warning: max_error_ratio \d+ exceeds 1: .*\n", warned), warned
    ratio = [json.loads((tmp_path / run / "manifest.json").read_text())["max_error_ratio"]
             for run in ("s", "e")]
    assert ratio[0] == ratio[1] > 1


def test_energy_is_silent_when_the_step_resolves_the_dynamics(dataset_dir, tmp_path, capsys):
    assert dispatch(["energy", "--dataset", str(dataset_dir), "--aggregation", "off",
                     "--activation", "identity", "--step", "0.1", "--horizon", "5",
                     "--out", str(tmp_path / "e")]) == 0
    assert capsys.readouterr().err == ""
    assert 0 < json.loads((tmp_path / "e" / "manifest.json").read_text())["max_error_ratio"] < 1
    # a recorded trajectory carries no step quality
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--method", "rk4",
                     "--horizon", "1", "--out", str(tmp_path / "s")]) == 0
    assert dispatch(["energy", "--dataset", str(dataset_dir), "--trajectory",
                     str(tmp_path / "s" / "trajectory.csv"), "--out", str(tmp_path / "r")]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "r" / "manifest.json").read_text())["max_error_ratio"] is None


def test_config_max_steps_is_honoured(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    # this run takes 17 accepted steps when the step budget is not applied
    cfg.write_text(json.dumps({"method": "dopri5", "max_steps": 3,
                               "aggregation_on": False, "horizon": 4.0}))
    code = dispatch(["simulate", "--dataset", str(dataset_dir), "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "max_steps=3" in capsys.readouterr().err


@pytest.mark.parametrize("flags, steps", [
    (["--step", "0.0003", "--horizon", "30", "--record-every", "100000"], 100_000),
    (["--method", "dopri5", "--horizon", "1e-15"], 1),
], ids=["max-steps-steps", "dopri5-tiny-horizon"])
def test_a_grid_that_reaches_the_horizon_exits_zero(tmp_path, capsys, flags, steps):
    # 30/0.0003 is just above max_steps=100000, yet the grid has exactly that many
    # steps; dopri5's one step to T=1e-15 leaves h below its underflow bound
    assert dispatch(["generate", "--n", "20", "--seed", "1", "--out", str(tmp_path / "ds")]) == 0
    out = tmp_path / "run"
    assert dispatch(["simulate", "--dataset", str(tmp_path / "ds"), "--aggregation", "off",
                     *flags, "--out", str(out)]) == 0
    assert f"with {steps} steps" in capsys.readouterr().out
    horizon = float(flags[flags.index("--horizon") + 1])
    assert gio.read_trajectory_csv(out / "trajectory.csv").times[-1] == horizon


def test_a_step_count_past_the_largest_float_exits_one_with_one_error_line(dataset_dir,
                                                                           tmp_path, capsys):
    capsys.readouterr()
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--horizon", "1e300",
                     "--step", "1e-300", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: horizon/step exceeds max_steps\n"


def test_generate_exits_one_before_writing_a_feature_that_overflows(tmp_path, capsys):
    out = tmp_path / "ds"
    assert dispatch(["generate", "--n", "4", "--noise-std", "1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: class_mean_separation 1 and noise_std 1e+308 overflow")
    assert err.count("\n") == 1 and not out.exists()


def test_a_node_in_two_masks_exits_one_naming_the_file_and_the_node(dataset_dir, tmp_path,
                                                                     capsys):
    _rewrite_rows(dataset_dir / "masks.csv",
                  lambda rows: rows[:7] + [[rows[7][0], "1", "1", "0"]] + rows[8:])
    assert dispatch(["train", "--dataset", str(dataset_dir), "--epochs", "1",
                     "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (f"error: {dataset_dir / 'masks.csv'}: masks must be "
                                       "disjoint: node 7 is in more than one\n")


@pytest.mark.parametrize("name, header", [
    ("labels.csv", "node,label,label2"), ("masks.csv", "node,train,val,test,extra")])
def test_a_table_wider_than_its_columns_exits_one_naming_the_file(dataset_dir, tmp_path,
                                                                  capsys, name, header):
    # each row carries the extra column its header names, so no row is malformed
    path = dataset_dir / name
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header.split(",")] + [row + ["0"] for row in rows[1:]])
    assert dispatch(["train", "--dataset", str(dataset_dir), "--epochs", "1",
                     "--out", str(tmp_path / "x")]) == 1
    expected = header.count(",") - 1  # one value column fewer than the header names
    assert capsys.readouterr().err == (f"error: {path}: expected {expected} value columns "
                                       "after the node id\n")


def _rewrite_rows(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:1] + edit(rows[1:]))


@pytest.mark.parametrize("name", ["features.csv", "labels.csv", "masks.csv"])
def test_bundle_missing_node_exits_one(dataset_dir, tmp_path, capsys, name):
    _rewrite_rows(dataset_dir / name, lambda rows: rows[:5] + rows[6:])
    assert dispatch(["simulate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert name in err and "node 5 is missing" in err


def test_bundle_duplicated_node_exits_one(dataset_dir, tmp_path, capsys):
    # node 4's row relabelled as node 3 used to overwrite node 3 silently
    _rewrite_rows(dataset_dir / "labels.csv",
                  lambda rows: rows[:4] + [["3"] + rows[4][1:]] + rows[5:])
    assert dispatch(["train", "--dataset", str(dataset_dir), "--epochs", "1",
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "labels.csv" in err and "node 3 appears more than once" in err


def test_bundle_node_out_of_range_exits_one(dataset_dir, tmp_path, capsys):
    _rewrite_rows(dataset_dir / "masks.csv", lambda rows: rows[:-1] + [["100"] + rows[-1][1:]])
    assert dispatch(["simulate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "masks.csv" in err and "node 100 is out of range" in err


@pytest.mark.parametrize("name, column, text", [
    ("labels.csv", 1, "1.5"), ("masks.csv", 2, "0.5"), ("features.csv", 0, "1e3"),
    ("features.csv", 1, "0.5#x")])
def test_bundle_malformed_field_exits_one(dataset_dir, tmp_path, capsys, name, column, text):
    # a non-integral id, label or mask must not be truncated, nor "#" start a comment
    def edit(rows):
        rows[3][column] = text
        return rows
    _rewrite_rows(dataset_dir / name, edit)
    assert dispatch(["simulate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    # rows[3] is the fifth line of the file, after the header
    assert f"{name}:5: could not convert string '{text}'" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["features.csv", "labels.csv", "trajectory.csv"])
def test_rows_wider_than_the_header_exit_one_naming_the_line(dataset_dir, tmp_path, capsys,
                                                             name):
    # the header fixes the column count: an unnamed last column is not read as one more value
    trajectory = tmp_path / "trajectory.csv"
    gio.write_trajectory_csv(Trajectory(np.zeros(1), np.zeros((1, 100, 2)), 0), trajectory)
    path = trajectory if name == "trajectory.csv" else dataset_dir / name
    _rewrite_rows(path, lambda rows: [row + ["1"] for row in rows])
    capsys.readouterr()
    assert dispatch(["energy", "--dataset", str(dataset_dir), "--trajectory", str(trajectory),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:2: the dtype passed requires ")


def test_trajectory_of_another_node_count_exits_one_naming_the_file(dataset_dir, tmp_path,
                                                                     capsys):
    path = tmp_path / "t.csv"
    gio.write_trajectory_csv(Trajectory(np.array([0.0, 1.0]), np.zeros((2, 20, 3)), 1), path)
    code = dispatch(["energy", "--dataset", str(dataset_dir), "--trajectory", str(path),
                     "--out", str(tmp_path / "e")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {path}: the trajectory has 20 nodes, "
                                       "the dataset 100\n")


def test_trajectory_missing_node_exits_one(dataset_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--method", "euler",
                     "--step", "1", "--horizon", "2", "--out", str(run)]) == 0
    # drop node 7 from the second record (rows 100..199)
    _rewrite_rows(run / "trajectory.csv", lambda rows: rows[:107] + rows[108:])
    code = dispatch(["energy", "--dataset", str(dataset_dir),
                     "--trajectory", str(run / "trajectory.csv"), "--out", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err
    assert "trajectory.csv at t=1" in err and "node 7 is missing" in err


def test_trajectory_non_finite_feature_exits_one(dataset_dir, tmp_path, capsys):
    # a nan feature used to pass through to nan energy and a "mitigated" verdict
    run = tmp_path / "run"
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--method", "euler",
                     "--step", "1", "--horizon", "2", "--out", str(run)]) == 0
    _rewrite_rows(run / "trajectory.csv",
                  lambda rows: rows[:142] + [rows[142][:2] + ["nan"] + rows[142][3:]] + rows[143:])
    code = dispatch(["energy", "--dataset", str(dataset_dir),
                     "--trajectory", str(run / "trajectory.csv"), "--out", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err
    assert "trajectory.csv at t=1" in err and "node 42 has a non-finite feature" in err


@pytest.mark.parametrize("weight", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "energy"])
def test_bundle_non_finite_edge_weight_exits_one(dataset_dir, tmp_path, capsys, weight, command):
    # a nan weight used to give nan energies with a "mitigated" verdict, or a
    # simulate that exited 2 with "state became non-finite"
    run = tmp_path / "run"
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--method", "euler",
                     "--step", "1", "--horizon", "2", "--out", str(run)]) == 0
    graph = dataset_dir / "graph.txt"
    lines = graph.read_text().splitlines(keepends=True)
    u, v, _ = lines[1].split()
    graph.write_text("".join([lines[0], f"{u} {v} {weight}\n"] + lines[2:]))
    flags = ["--trajectory", str(run / "trajectory.csv")] if command == "energy" else []
    assert dispatch([command, "--dataset", str(dataset_dir), *flags,
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"non-finite weight on edge ({u}, {v})" in err and "Traceback" not in err


def test_bundle_total_edge_weight_overflow_exits_one(dataset_dir, tmp_path, capsys):
    # finite weights whose sum overflows used to give the node a zero diffusion row
    graph = dataset_dir / "graph.txt"
    lines = graph.read_text().splitlines(keepends=True)
    edges = [line.split()[:2] for line in lines[1:]]
    graph.write_text("".join([lines[0]] + [f"{u} {v} 1e308\n" for u, v in edges]))
    assert dispatch(["simulate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "node 0 has non-finite total edge weight inf" in err and "Traceback" not in err


def _corrupt_line(path, lineno):
    """Put byte 0xe9, which no UTF-8 text holds alone, at the start of line ``lineno``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = b"\xe9" + lines[lineno - 1]
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("name, lineno", [("labels.csv", 5), ("graph.txt", 3)])
def test_bundle_not_utf8_exits_one_naming_the_line(dataset_dir, tmp_path, capsys, name, lineno):
    _corrupt_line(dataset_dir / name, lineno)
    assert dispatch(["simulate", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"{name}:{lineno}: byte 0xe9 is not valid utf-8 text" in err and "Traceback" not in err


def test_trajectory_not_utf8_exits_one_naming_the_line(dataset_dir, tmp_path, capsys):
    run = tmp_path / "run"
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--method", "euler",
                     "--step", "1", "--horizon", "2", "--out", str(run)]) == 0
    _corrupt_line(run / "trajectory.csv", 250)  # past the first 8 KiB the reader decodes
    code = dispatch(["energy", "--dataset", str(dataset_dir),
                     "--trajectory", str(run / "trajectory.csv"), "--out", str(tmp_path / "e")])
    assert code == 1
    assert "trajectory.csv:250: byte 0xe9 is not valid utf-8 text" in capsys.readouterr().err


def test_config_not_utf8_exits_one_naming_the_line(dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"horizon": 2,\n "method": "caf\xe9"}\n')
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert f"error: {config}:2: byte 0xe9 is not valid utf-8 text" in err and "Traceback" not in err


def test_config_json_syntax_error_names_file_line_and_column(dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"horizon": 2,\n "step" 1}\n')
    assert dispatch(["simulate", "--dataset", str(dataset_dir), "--config", str(config),
                     "--out", str(tmp_path / "x")]) == 1
    assert f"error: {config}:2:9: Expecting ':' delimiter" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    (b'{"model": \xe9}', ":1: byte 0xe9 is not valid utf-8 text"),
    (b'{"model": {}\n\n,}', ":3:2: Expecting property name enclosed in double quotes"),
])
def test_checkpoint_that_does_not_parse_names_the_line(tmp_path, text, named):
    path = tmp_path / "checkpoint.json"
    path.write_bytes(text)
    with pytest.raises(ValueError) as info:
        gio.read_checkpoint(path)
    assert str(info.value) == f"{path}{named}"


@pytest.mark.parametrize("kernel, named", [
    ({"kind": "attention"}, "attention"),
    ({"kind": "gaussian", "normalize_rows": True}, "row-normalized gaussian kernel"),
    ({"kind": "power", "normalize_rows": True}, "row-normalized power kernel"),
])
def test_softmax_kernel_on_a_node_without_neighbors_exits_one(tmp_path, capsys, kernel, named):
    ds = Dataset(from_edge_list(4, [(0, 1), (1, 2)]), np.arange(8.0).reshape(4, 2),
                 np.array([0, 0, 1, 1]), *np.eye(3, 4, dtype=bool))
    gio.write_dataset(ds, tmp_path / "ds")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kernel": kernel, "attention": {"theta": [[1.0, 0.0]]}}))
    assert dispatch(["simulate", "--dataset", str(tmp_path / "ds"), "--config", str(config),
                     "--diffusion", "off", "--out", str(tmp_path / "x")]) == 1
    assert f"{named} undefined: node 3 has no neighbors" in capsys.readouterr().err


# ------------------------------------------------------------ config input


def _with_config(tmp_path, command, dataset_dir, config, *flags):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    return dispatch([command, "--dataset", str(dataset_dir), "--config", str(path),
                     *flags, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command, config, named", [
    ("simulate", "[1, 2]", "must be a JSON object, got list"),
    ("simulate", {"kernel": 5}, "kernel: expected a JSON object, got int"),
    ("train", {"dynamics": "x"}, "dynamics: expected a JSON object, got str"),
    ("train", {"epochs": [1]}, "epochs: expected an integer, got list"),
    ("simulate", {"diffusion_on": "false"}, "diffusion_on: expected true or false, got str"),
    ("simulate", '{"step": 1' + "0" * 400 + "}", "step: the number is out of range"),
    ("simulate", '{"step": NaN}', "step must be > 0"),
    ("simulate", {"horizn": 3}, "unknown config key: horizn"),
    ("simulate", {"kernel": {"kind": "gaussian", "bandwith": 2.0}},
     "unknown config key: kernel.bandwith"),
    ("train", {"dynamics": {"kernel": {"kind": "log", "bandwith": 2.0}}},
     "unknown config key: dynamics.kernel.bandwith"),
    ("simulate", {"attention": {"theta": [[1, "a"]]}}, "attention.theta: expected a number, got str"),
    ("simulate", {"attention": {"theta": [[1, 0], [0]]}}, "attention.theta: expected a matrix"),
    ("train", {"dynamics": {"attention": {"theta": [[1, 0], [0]]}}},
     "dynamics.attention.theta: expected a matrix"),
    # NaN fails every `x <= 0` check, so each range check is written `not x > 0`
    ("simulate", '{"kernel": {"kind": "power", "delta": NaN}}', "delta must be >= 0"),
    ("simulate", '{"kernel": {"kind": "gaussian", "bandwidth": NaN}}', "bandwidth must be > 0"),
    ("simulate", '{"kernel": {"kind": "log", "singularity_floor": NaN}}',
     "singularity_floor must be > 0"),
    ("simulate", '{"method": "dopri5", "rel_tol": NaN}', "rel_tol and abs_tol must be >= 1e-12"),
    ("simulate", '{"method": "dopri5", "abs_tol": NaN}', "rel_tol and abs_tol must be >= 1e-12"),
    ("simulate", '{"attention": {"theta": [[1, 0], [0, 1]], "scale": NaN}}', "scale must be > 0"),
    ("train", '{"learning_rate": NaN, "epochs": 2}', "learning_rate and weight_decay must be >= 0"),
    ("train", '{"weight_decay": NaN, "epochs": 2}', "learning_rate and weight_decay must be >= 0"),
    ("simulate", {"attention": 5}, "attention: expected a JSON object, got int"),
    ("simulate", {"attention": {"scale": 2}}, "attention.theta: missing"),
    ("train", {"dynamics": {"attention": {"theta": [[1, 0], [0, 1]]}}},
     "dynamics.attention: training learns its projection (model.theta)"),
])
def test_malformed_config_exits_one_naming_the_key(dataset_dir, tmp_path, capsys,
                                                   command, config, named):
    assert _with_config(tmp_path, command, dataset_dir, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


_MISSING = ('attention: missing; set it to a projection {"theta": [[...]]} with one column per '
            "feature, for ")


@pytest.mark.parametrize("command, config, flags, named", [
    ("simulate", {"kernel": "attention"}, [], _MISSING + "kernel.kind 'attention' (--kernel)"),
    ("energy", {}, ["--adjacency-mode", "attention"],
     _MISSING + "adjacency_mode 'attention' (--adjacency-mode)"),
    ("simulate", {"adjacency_mode": "attention"}, ["--kernel", "attention"],
     _MISSING + "adjacency_mode 'attention' (--adjacency-mode) and kernel.kind 'attention' "
     "(--kernel)"),
    ("simulate", {"attention": {"theta": [[1, 0, 0, 0, 0]]}}, ["--kernel", "attention"],
     "attention.theta has 5 columns, the features 2"),
    ("energy", {"adjacency_mode": "attention", "attention": {"theta": [[1, 0, 0]]}}, [],
     "attention.theta has 3 columns, the features 2"),
])
def test_attention_without_a_fitting_projection_exits_one_naming_the_key(
        dataset_dir, tmp_path, capsys, command, config, flags, named):
    assert _with_config(tmp_path, command, dataset_dir, config, *flags) == 1
    assert capsys.readouterr().err == f"error: {named}\n"


def test_a_projection_no_setting_reads_is_not_checked(dataset_dir, tmp_path):
    # diffusion off: the attention adjacency is never formed, so theta's width does not matter
    config = {"adjacency_mode": "attention", "attention": {"theta": [[1, 0, 0]]}}
    assert _with_config(tmp_path, "simulate", dataset_dir, config, "--diffusion", "off",
                        "--horizon", "1") == 0


_KERNEL = KernelSpec("power", delta=0.5, bandwidth=2.0, normalize_rows=True,
                     singularity_floor=1e-4)
_SOLVER = SolverConfig("rk4", step=0.25, horizon=2.0, rel_tol=1e-5, abs_tol=1e-8,
                       max_steps=500, record_every=2)
_PROJECTION = ProjectionParams(np.arange(6.0).reshape(2, 3), scale=2.5)


@pytest.mark.parametrize("config", [
    _KERNEL,
    _PROJECTION,
    DynamicsConfig(ActivationSpec("relu"), "attention", _KERNEL, diffusion_on=False,
                   attention=_PROJECTION),
    _SOLVER,
    TrainConfig(DynamicsConfig(kernel=_KERNEL, aggregation_on=False), _SOLVER,
                learning_rate=0.1, epochs=3, weight_decay=0.0, seed=5, hidden=4),
    CsbmConfig(n=6, p_intra=0.5, p_inter=0.25, feat_dim=3, class_mean_separation=2.0,
               noise_std=0.5),
], ids=lambda config: type(config).__name__)
def test_every_config_field_travels_through_json(config):
    # every field set: a field that to_json drops could be neither read back nor recorded
    obj = json.loads(json.dumps(config.to_json()))
    assert list(obj) == [f.name for f in dataclasses.fields(config)]
    assert type(config).from_json(obj).to_json() == obj


@pytest.mark.parametrize("command, flags, named", [
    ("generate", ["--separation", "nan"], "class_mean_separation must be finite"),
    ("generate", ["--noise-std", "nan"], "noise_std must be >= 0"),
    ("simulate", ["--method", "dopri5", "--rel-tol", "nan"], "rel_tol and abs_tol must be"),
    ("simulate", ["--method", "dopri5", "--abs-tol", "nan"], "rel_tol and abs_tol must be"),
    ("train", ["--epochs", "2", "--lr", "nan"], "learning_rate and weight_decay must be"),
    ("train", ["--epochs", "2", "--weight-decay", "nan"], "learning_rate and weight_decay must be"),
    ("energy", ["--eps", "nan"], "--eps must be a finite number > 0"),
    ("energy", ["--energy-floor", "nan"], "--energy-floor must be a finite number >= 0"),
    ("energy", ["--energy-floor", "inf"], "--energy-floor must be a finite number >= 0"),
    ("energy", ["--spread-floor", "nan"], "--spread-floor must be a finite number >= 0"),
    ("grad-check", ["--instances", "1", "--h", "nan"], "h must be > 0"),
    ("generate", ["--noise-std", "inf"], "noise_std must be >= 0 and finite"),
    ("simulate", ["--step", "inf"], "step must be > 0 and finite"),
    ("simulate", ["--horizon", "inf"], "horizon must be >= 0 and finite"),
    ("simulate", ["--method", "dopri5", "--horizon", "inf"], "horizon must be >= 0 and finite"),
    ("train", ["--epochs", "2", "--step", "inf"], "step must be > 0 and finite"),
    ("simulate", ["--method", "dopri5", "--step", "inf"], "step must be > 0 and finite"),
    ("grad-check", ["--instances", "0"], "instances must be >= 1, got 0"),
    ("grad-check", ["--instances", "1", "--h", "inf"], "h must be > 0 and finite, got inf"),
    ("grad-check", ["--instances", "1", "--h", "1e300", "--seed", "1"],
     "h=1e+300: no random instance keeps its edge distances 10h clear"),
    ("grad-check", ["--instances", "1", "--h", "1e300", "--seed", "0"],
     "h=1e+300: a parameter moved by h makes the forward fail"),
    ("train", ["--epochs", "2", "--lr", "inf"],
     "learning_rate and weight_decay must be >= 0 and finite"),
    ("train", ["--epochs", "2", "--weight-decay", "inf"],
     "learning_rate and weight_decay must be >= 0 and finite"),
    ("simulate", ["--method", "dopri5", "--rel-tol", "inf"],
     "rel_tol and abs_tol must be >= 1e-12 and finite"),
    ("simulate", ["--method", "dopri5", "--abs-tol", "inf"],
     "rel_tol and abs_tol must be >= 1e-12 and finite"),
])
def test_non_finite_flag_exits_one_naming_it(dataset_dir, tmp_path, capsys,
                                              command, flags, named):
    where = {"generate": ["--out", str(tmp_path / "out")], "grad-check": []}.get(
        command, ["--dataset", str(dataset_dir), "--out", str(tmp_path / "out")])
    assert dispatch([command, *flags, *where]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("config, named", [
    ('{"kernel": {"kind": "power", "delta": 1e400}}', "delta must be >= 0 and finite"),
    ('{"kernel": {"kind": "gaussian", "bandwidth": 1e400}}', "bandwidth must be > 0 and finite"),
    ('{"kernel": {"kind": "log", "singularity_floor": 1e400}}',
     "singularity_floor must be > 0 and finite"),
    ('{"attention": {"theta": [[1, 1e400]]}}', "attention.theta: expected finite numbers"),
    ('{"attention": {"theta": [[1, 0]], "scale": 1e400}}', "scale must be > 0 and finite"),
])
def test_non_finite_config_value_exits_one_naming_it(dataset_dir, tmp_path, capsys, config,
                                                     named):
    # JSON reads 1e400 as inf
    (tmp_path / "cfg.json").write_text(config)
    code = dispatch(["simulate", "--dataset", str(dataset_dir), "--config",
                     str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def _train_cfg(tmp_path, config, *flags):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(config))
    (cfg,), config = _resolve(build_parser().parse_args(
        ["train", "--dataset", "ds", "--config", str(path), *flags, "--out", "x"]), TrainConfig)
    return cfg, config


def test_train_kernel_shorthand(tmp_path):
    cfg, _ = _train_cfg(tmp_path, {"dynamics": {"kernel": "log"}})
    assert cfg.dynamics.kernel == KernelSpec("log", normalize_rows=True)


def test_train_nested_kernel_key_keeps_its_siblings(tmp_path):
    # the kernel sits two levels down: setting its kind keeps normalize_rows
    cfg, config = _train_cfg(tmp_path, {"dynamics": {"kernel": {"kind": "log"}}}, "--step", "0.25")
    assert cfg.dynamics.kernel == KernelSpec("log", normalize_rows=True)
    assert cfg.solver == SolverConfig("euler", step=0.25, horizon=1.0)
    assert config == cfg.to_json()


def test_readme_config_example_runs(dataset_dir, tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"A dynamics/solver config JSON looks like\s*```json\n(.*?)```", readme, re.S)
    example = json.loads(block[1])
    assert _with_config(tmp_path, "simulate", dataset_dir, example, "--horizon", "2") == 0
    config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert config == {**config, **example, "horizon": 2.0}
    assert len(gio.read_trajectory_csv(tmp_path / "out" / "trajectory.csv").times) == 3


def test_bench_train_config_is_accepted(dataset_dir, tmp_path):
    train_config = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["TRAIN_CONFIG"]
    assert _with_config(tmp_path, "train", dataset_dir, train_config, "--epochs", "2") == 0
    config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert config["dynamics"]["kernel"]["normalize_rows"] is True
    assert config["epochs"] == 2


def _replay(tmp_path, command, dataset_dir, flags, outputs):
    first, second = tmp_path / "first", tmp_path / "second"
    assert dispatch([command, "--dataset", str(dataset_dir), *flags, "--out", str(first)]) == 0
    config = tmp_path / "manifest_config.json"
    config.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
    assert dispatch([command, "--dataset", str(dataset_dir), "--config", str(config),
                     "--out", str(second)]) == 0
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_simulate_replays_from_its_manifest_config(dataset_dir, tmp_path):
    _replay(tmp_path, "simulate", dataset_dir,
            ["--kernel", "power", "--activation", "softplus", "--method", "rk4",
             "--step", "0.25", "--horizon", "1", "--record-every", "2"],
            ["trajectory.csv"])


def test_train_replays_from_its_manifest_config(dataset_dir, tmp_path):
    _replay(tmp_path, "train", dataset_dir,
            ["--epochs", "3", "--lr", "0.3", "--seed", "1", "--hidden", "6",
             "--method", "rk4", "--step", "0.5", "--horizon", "1"],
            ["checkpoint.json", "metrics.csv"])


# Every knob of the two config layouts gets a few valid values; steps,
# horizons and step budgets are chosen so that every combination is valid.
_KNOB_VALUES = {
    "learning_rate": st.sampled_from([0.0, 0.1, 1]),
    "epochs": st.integers(1, 5),
    "weight_decay": st.sampled_from([0.0, 1e-2]),
    "seed": st.integers(0, 9),
    "hidden": st.integers(1, 4),
    "activation": st.sampled_from(["identity", "tanh", "softplus", "relu"]),
    "adjacency_mode": st.sampled_from(["static_row_normalized", "attention"]),
    "diffusion_on": st.booleans(),
    "aggregation_on": st.booleans(),
    "kind": st.sampled_from(["log", "power", "gaussian", "attention"]),
    "delta": st.sampled_from([0.0, 0.5, 2]),
    "bandwidth": st.sampled_from([0.5, 1.0, 3]),
    "normalize_rows": st.booleans(),
    "singularity_floor": st.sampled_from([1e-6, 1e-3]),
    "method": st.sampled_from(["euler", "rk4"]),
    "step": st.sampled_from([0.25, 0.5, 1]),
    "horizon": st.sampled_from([0.0, 1.0, 2]),
    "rel_tol": st.sampled_from([1e-6, 1e-3]),
    "abs_tol": st.sampled_from([1e-9, 1e-4]),
    "max_steps": st.integers(160, 1000),
    "record_every": st.integers(1, 3),
}

_LAYOUTS = {
    "train": (TrainConfig().to_json(), lambda r: TrainConfig.from_json(r).to_json()),
    "simulate": (
        {**DynamicsConfig().to_json(), **SolverConfig().to_json()},
        lambda r: {**DynamicsConfig.from_json(r).to_json(), **SolverConfig.from_json(r).to_json()},
    ),
}


def _leaves(obj, path=()):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _nest(knobs: dict, shorthand: bool) -> dict:
    """The layer setting each (path, value) of ``knobs``; with ``shorthand``
    an object that sets only a kind is written as that kind."""
    out: dict = {}
    for path, value in knobs.items():
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value

    def short(obj):
        if isinstance(obj, dict) and shorthand and list(obj) == ["kind"]:
            return obj["kind"]
        return {k: short(v) for k, v in obj.items()} if isinstance(obj, dict) else obj

    return {k: short(v) for k, v in out.items()}


@settings(max_examples=200, deadline=None)
@given(layout=st.sampled_from(sorted(_LAYOUTS)), data=st.data())
def test_each_knob_is_set_at_any_depth_flags_over_file(layout, data):
    defaults, build = _LAYOUTS[layout]
    leaves = sorted(_leaves(defaults))

    def layer():
        chosen = data.draw(st.lists(st.sampled_from(leaves), unique=True))
        return {path: data.draw(_KNOB_VALUES[path[-1]]) for path in chosen}

    file, flags = layer(), layer()
    want = copy.deepcopy(defaults)
    for path, value in {**file, **flags}.items():
        node = want
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    dynamics = want.get("dynamics", want)
    assume(dynamics["diffusion_on"] or dynamics["aggregation_on"])

    resolved = _merge(defaults, _nest(file, data.draw(st.booleans())),
                      _nest(flags, data.draw(st.booleans())))
    got = build(resolved)
    assert got == want
    assert not list(_unread(resolved, got))


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--version"], 0, "stdout", f"{__version__}\n"),
    (["generate", "--n", "4"], 1, "stderr", "usage: grade generate "),
])
def test_the_cli_module_runs_as_the_grade_command(argv, code, stream, text):
    proc = subprocess.run([sys.executable, "-m", "grade.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert getattr(proc, stream).startswith(text)
