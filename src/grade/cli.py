"""Command-line surface: generate, simulate, energy, grad-check, train.

Every command writes a manifest next to its outputs with the fully
resolved configuration, seed, paths, version, and wall-clock duration, so
fixed-step runs can be replayed bit for bit. Config precedence is
flags > config file > defaults. Exit codes: 0 success, 1 usage error,
2 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import io as gio
from .dynamics import DynamicsConfig, rhs
from .graph import CsbmConfig, csbm_generate
from .kernels import KernelSpec
from .solvers import NumericalError, SolverConfig, integrate
from .training import TrainConfig, gradient_check, train

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _threads() -> int | None:
    raw = os.environ.get("GRADE_THREADS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"GRADE_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise ValueError("GRADE_THREADS must be >= 1")
    return value


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _merge(*layers: dict) -> dict:
    """Resolve values by precedence, later layers over earlier ones.

    A dict value updates the dict it overrides key by key, one level deep,
    so a flag can set one solver or kernel knob and keep the others.
    """
    out: dict = {}
    for layer in layers:
        for key, value in layer.items():
            if isinstance(value, dict) and isinstance(out.get(key), dict):
                value = {**out[key], **{k: v for k, v in value.items() if v is not None}}
            if value is not None:
                out[key] = value
    return out


def _manifest(command: str, config: dict, seed, inputs, outputs, started: float) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "threads": _threads(),
        "duration_s": time.time() - started,
    }


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="dynamics/solver config JSON")
    p.add_argument("--activation", choices=("identity", "tanh", "softplus", "relu"))
    p.add_argument("--adjacency-mode", dest="adjacency_mode",
                   choices=("static_row_normalized", "attention"))
    p.add_argument("--kernel", help="kernel kind (log|power|gaussian|attention)")
    p.add_argument("--diffusion", dest="diffusion_on", choices=("on", "off"))
    p.add_argument("--aggregation", dest="aggregation_on", choices=("on", "off"))
    p.add_argument("--method", choices=("euler", "rk4", "dopri5"))
    p.add_argument("--step", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float)
    p.add_argument("--record-every", dest="record_every", type=int)


def _sim_flags(args) -> dict:
    flags = {
        "activation": args.activation,
        "adjacency_mode": args.adjacency_mode,
        "kernel": {"kind": args.kernel} if args.kernel else None,
        "method": args.method,
        "step": args.step,
        "horizon": args.horizon,
        "rel_tol": args.rel_tol,
        "abs_tol": args.abs_tol,
        "record_every": args.record_every,
    }
    for name in ("diffusion_on", "aggregation_on"):
        raw = getattr(args, name)
        if raw is not None:
            flags[name] = raw == "on"
    return flags


def _run_simulation(args):
    ds = gio.read_dataset(args.dataset)
    config = _load_config(args.config)
    if isinstance(config.get("kernel"), str):
        config["kernel"] = {"kind": config["kernel"]}
    defaults = {**DynamicsConfig().to_json(), **SolverConfig().to_json()}
    resolved = _merge(defaults, config, _sim_flags(args))
    dyn = DynamicsConfig.from_json(resolved)
    solver = SolverConfig.from_json(resolved)
    traj = integrate(lambda X, t: rhs(dyn, ds.graph, X, t), ds.features, solver)
    return ds, resolved, traj


def _cmd_generate(args) -> int:
    started = time.time()
    cfg = CsbmConfig(
        n=args.n,
        p_intra=args.p_intra,
        p_inter=args.p_inter,
        feat_dim=args.feat_dim,
        class_mean_separation=args.separation,
        noise_std=args.noise_std,
    )
    ds = csbm_generate(cfg, args.seed)
    gio.write_dataset(ds, args.out)
    resolved = {
        "n": cfg.n, "p_intra": cfg.p_intra, "p_inter": cfg.p_inter,
        "feat_dim": cfg.feat_dim, "separation": cfg.class_mean_separation,
        "noise_std": cfg.noise_std,
    }
    gio.write_manifest(args.out, _manifest(
        "generate", resolved, args.seed, [],
        ["graph.txt", "features.csv", "labels.csv", "masks.csv"], started,
    ))
    print(f"wrote dataset with {ds.graph.n} nodes, {ds.graph.num_edges} edges to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    started = time.time()
    ds, resolved, traj = _run_simulation(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gio.write_trajectory_csv(traj, out / "trajectory.csv")
    gio.write_manifest(out, _manifest(
        "simulate", resolved, None, [str(args.dataset)], ["trajectory.csv"], started,
    ))
    print(f"integrated to T={resolved['horizon']} with {traj.step_count} steps; "
          f"{len(traj.times)} records -> {out / 'trajectory.csv'}")
    return 0


def _cmd_energy(args) -> int:
    started = time.time()
    ds = gio.read_dataset(args.dataset)
    if args.trajectory:
        traj = gio.read_trajectory_csv(args.trajectory)
        resolved = {"trajectory": str(args.trajectory)}
        inputs = [str(args.dataset), str(args.trajectory)]
    else:
        ds, resolved, traj = _run_simulation(args)
        inputs = [str(args.dataset)]

    eps = args.eps if args.eps is not None else diag.default_cluster_eps(traj.states[0])
    energies = diag.energy_series(traj, ds.graph).values
    spreads = np.array([diag.feature_spread(s) for s in traj.states])
    profile = diag.metastability_profile(traj, eps)

    energy_floor = args.energy_floor * energies[0] if energies[0] > 0 else args.energy_floor
    verdict = diag.oversmoothing_verdict(traj, ds.graph, energy_floor, args.spread_floor)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "energy.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "energy", "spread", "cluster_count"])
        for t, e, s, c in zip(traj.times, energies, spreads, profile.counts):
            w.writerow([f"{t:.17g}", f"{e:.17g}", f"{s:.17g}", int(c)])

    summary = {
        "verdict": verdict,
        "eps": eps,
        "energy_floor": energy_floor,
        "spread_floor": args.spread_floor,
        "dwell_intervals": [
            {"count": c, "t_start": a, "t_end": b} for c, a, b in profile.dwell_intervals
        ],
    }
    gio.write_summary_json(out / "verdict.json", traj.times, energies, spreads,
                           profile.counts, extra=summary)
    resolved.update({"eps": eps, "energy_floor_rel": args.energy_floor,
                     "spread_floor": args.spread_floor})
    gio.write_manifest(out, _manifest(
        "energy", resolved, None, inputs, ["energy.csv", "verdict.json"], started,
    ))
    print(f"verdict: {verdict} (final energy {energies[-1]:.3e}, spread {spreads[-1]:.3e})")
    return 0


def _cmd_grad_check(args) -> int:
    worst, errors = gradient_check(args.seed, instances=args.instances, h=args.h)
    for i, err in enumerate(errors):
        print(f"instance {i}: max relative error {err:.3e}")
    print(f"max relative error: {worst:.3e} (threshold 1e-05)")
    if worst <= 1e-5:
        print("grad-check: PASS")
        return 0
    print("grad-check: FAIL")
    return NUMERICAL_ERROR


def _cmd_train(args) -> int:
    started = time.time()
    ds = gio.read_dataset(args.dataset)
    # the command's own default kernel is row-normalized
    base = TrainConfig(dynamics=DynamicsConfig(kernel=KernelSpec("gaussian", normalize_rows=True)))
    scalars = {f.name: getattr(base, f.name) for f in fields(base)
               if f.name not in ("dynamics", "solver")}
    defaults = {"dynamics": base.dynamics.to_json(), "solver": base.solver.to_json(), **scalars}
    flags = {
        "learning_rate": args.lr, "epochs": args.epochs,
        "weight_decay": args.weight_decay, "seed": args.seed, "hidden": args.hidden,
        "solver": {"method": args.method, "step": args.step, "horizon": args.horizon},
    }
    resolved = _merge(defaults, _load_config(args.config), flags)
    cfg = TrainConfig(
        dynamics=DynamicsConfig.from_json(resolved["dynamics"]),
        solver=SolverConfig.from_json(resolved["solver"]),
        **{name: type(value)(resolved[name]) for name, value in scalars.items()},
    )
    params, metrics = train(ds, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gio.write_checkpoint(out / "checkpoint.json", params, cfg.dynamics, cfg.solver)
    gio.write_metrics_csv(out / "metrics.csv", metrics)
    gio.write_manifest(out, _manifest(
        "train", resolved, cfg.seed, [str(args.dataset)],
        ["checkpoint.json", "metrics.csv"], started,
    ))
    # train keeps the parameters of the first epoch with the best val acc
    best = max(metrics, key=lambda m: m.val_acc)
    print(f"best val acc {best.val_acc:.3f}, test acc {best.test_acc:.3f} "
          f"after {cfg.epochs} epochs")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="grade", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[], help="sample a two-block dataset bundle")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--p-intra", dest="p_intra", type=float, default=0.9)
    p.add_argument("--p-inter", dest="p_inter", type=float, default=0.05)
    p.add_argument("--feat-dim", dest="feat_dim", type=int, default=2)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--noise-std", dest="noise_std", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="integrate the dynamics on a dataset")
    p.add_argument("--dataset", required=True)
    _add_sim_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("energy", help="energy/spread/cluster diagnostics and verdict")
    p.add_argument("--dataset", required=True)
    p.add_argument("--trajectory", help="existing trajectory CSV; otherwise simulate")
    _add_sim_flags(p)
    p.add_argument("--eps", type=float, help="cluster eps (default: 5%% of initial diameter)")
    p.add_argument("--energy-floor", dest="energy_floor", type=float, default=1e-8,
                   help="over-smoothing energy floor, relative to E(X(0))")
    p.add_argument("--spread-floor", dest="spread_floor", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("grad-check", help="reverse-sweep vs finite-difference gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--h", type=float, default=1e-5)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("train", help="train the classifier on a dataset bundle")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="train config JSON")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--method", choices=("euler", "rk4"))
    p.add_argument("--step", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _threads()
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
