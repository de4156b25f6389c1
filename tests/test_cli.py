"""End-to-end CLI runs: commands, config precedence, exit codes, manifests."""
import csv
import json

import pytest

from grade.cli import dispatch
from grade import io as gio


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


def test_grad_check_passes(capsys):
    code = dispatch(["grad-check", "--seed", "1", "--instances", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max relative error" in out
    assert "PASS" in out


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


def test_bad_threads_env_exits_one(dataset_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRADE_THREADS", "zero")
    assert dispatch(["generate", "--n", "10", "--out", str(tmp_path / "d")]) == 1
    monkeypatch.setenv("GRADE_THREADS", "2")
    assert dispatch(["generate", "--n", "10", "--out", str(tmp_path / "d")]) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["threads"] == 2


def test_config_max_steps_is_honoured(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "solver.json"
    # this run takes 17 accepted steps when the step budget is not applied
    cfg.write_text(json.dumps({"method": "dopri5", "max_steps": 3,
                               "aggregation_on": False, "horizon": 4.0}))
    code = dispatch(["simulate", "--dataset", str(dataset_dir), "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    assert "max_steps=3" in capsys.readouterr().err


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
