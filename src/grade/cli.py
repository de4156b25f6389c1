"""Command-line surface: generate, simulate, energy, grad-check, train.

Every command writes a manifest next to its outputs with the
configuration it built, seed, paths, version, and wall-clock duration, so
fixed-step runs can be replayed bit for bit. Config precedence, at every
depth, is flags > config file > the config dataclasses' defaults. Exit
codes: 0 success, 1 usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as diag
from . import io as gio
from .codec import key_path
from .dynamics import ACTIVATION_KINDS, ADJACENCY_MODES, DynamicsConfig, rhs
from .graph import CsbmConfig, csbm_generate
from .kernels import KERNEL_KINDS
from .solvers import FIXED_STEP_METHODS, METHODS, NumericalError, SolverConfig, integrate
from .training import TrainConfig, gradient_check, train

USAGE_ERROR = 1
NUMERICAL_ERROR = 2
STEP_QUALITY_BOUND = 1.0  # an integrating command warns when max_error_ratio exceeds it
GRAD_CHECK_TOLERANCE = 1e-5  # grad-check passes when the max relative error is at most this
_ON_OFF = {"on": True, "off": False}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _load_config(path) -> dict:
    if path is None:
        return {}
    config = gio.read_json(path)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: a config must be a JSON object, got {type(config).__name__}")
    return config


def _merge(*layers: dict, path: str = "") -> dict:
    """Resolve values by precedence, later layers over earlier ones.

    An object updates the object it overrides key by key, at every depth,
    so a flag or file key sets one knob and its siblings keep their values.
    A string in place of an object with a ``kind`` sets that kind (the
    kernel shorthand ``"kernel": "log"``). ``None`` means "not set".
    """
    out: dict = {}
    for layer in layers:
        for key, value in layer.items():
            old, where = out.get(key), key_path(path, key)
            if isinstance(old, dict) and isinstance(value, str) and "kind" in old:
                value = {"kind": value}
            if isinstance(value, dict):
                value = _merge(old if isinstance(old, dict) else {}, value, path=where)
            elif isinstance(old, dict) and value is not None:
                raise ValueError(f"{where}: expected a JSON object, got {type(value).__name__}")
            if value is not None:
                out[key] = value
    return out


def _flags(args, defaults: dict) -> dict:
    """The command's flag for each key of ``defaults``, at every depth: None
    where it has no such flag or the flag was not given; on/off as a boolean."""
    return {key: _flags(args, value) if isinstance(value, dict)
            else _ON_OFF.get(getattr(args, key, None), getattr(args, key, None))
            for key, value in defaults.items()}


def _unread(resolved: dict, config: dict, path: str = ""):
    """Dotted keys of ``resolved`` missing from ``config``, the JSON of what was built from it."""
    for key, value in resolved.items():
        if key not in config:
            yield key_path(path, key)
        elif isinstance(value, dict):
            yield from _unread(value, config[key], key_path(path, key))


def _resolve(args, *classes) -> tuple[list, dict]:
    """The configs of ``classes``, read from one JSON object and built.

    The object is the classes' defaults, then the config file if the command
    takes one, then the flags, merged at every depth. Returns the configs and
    the JSON of what was built, which must hold every key of the object.
    """
    defaults = {key: value for cls in classes for key, value in cls().to_json().items()}
    resolved = _merge(defaults, _load_config(getattr(args, "config", None)),
                      _flags(args, defaults))
    built = [cls.from_json(resolved) for cls in classes]
    config = {key: value for cfg in built for key, value in cfg.to_json().items()}
    unknown = list(_unread(resolved, config))
    if unknown:
        raise ValueError(f"unknown config key: {', '.join(unknown)}")
    return built, config


def _manifest(command: str, config: dict, seed, inputs, outputs, started: float) -> dict:
    return {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "duration_s": time.time() - started,
    }


def _add_sim_flags(p: argparse.ArgumentParser) -> dict[str, str]:
    """Add the dynamics/solver flags; returns each one's option string by its dest."""
    actions = [
        p.add_argument("--config", help="dynamics/solver config JSON"),
        p.add_argument("--activation", choices=ACTIVATION_KINDS),
        p.add_argument("--adjacency-mode", dest="adjacency_mode", choices=ADJACENCY_MODES),
        p.add_argument("--kernel", dest="kind", help=f"kernel kind ({'|'.join(KERNEL_KINDS)})"),
        p.add_argument("--diffusion", dest="diffusion_on", choices=("on", "off")),
        p.add_argument("--aggregation", dest="aggregation_on", choices=("on", "off")),
        p.add_argument("--method", choices=METHODS),
        p.add_argument("--step", type=float),
        p.add_argument("--horizon", type=float),
        p.add_argument("--rel-tol", dest="rel_tol", type=float),
        p.add_argument("--abs-tol", dest="abs_tol", type=float),
        p.add_argument("--record-every", dest="record_every", type=int),
    ]
    return {a.dest: a.option_strings[0] for a in actions}


def _check_projection(dyn: DynamicsConfig, d: int, sim_flags: dict[str, str]) -> None:
    """Reject a missing or misfit ``attention`` projection before integrating,
    naming the config key, the settings that read it and their ``sim_flags``."""
    keys = dyn.projection_keys()
    if keys and dyn.attention is None:
        asks = " and ".join(f"{key} 'attention' ({sim_flags[key.rsplit('.', 1)[-1]]})"
                            for key in keys)
        raise ValueError('attention: missing; set it to a projection {"theta": [[...]]} '
                         f"with one column per feature, for {asks}")
    if keys and dyn.attention.theta.shape[1] != d:
        raise ValueError(f"attention.theta has {dyn.attention.theta.shape[1]} columns, "
                         f"the features {d}")


def _run_simulation(args):
    (dyn, solver), config = _resolve(args, DynamicsConfig, SolverConfig)
    ds = gio.read_dataset(args.dataset)
    _check_projection(dyn, ds.features.shape[1], args.sim_flags)
    traj = integrate(lambda X, t: rhs(dyn, ds.graph, X, t), ds.features, solver)
    return ds, config, traj


def _step_quality(traj) -> dict:
    """The manifest's step-quality key, null for a recorded trajectory; warns above the bound."""
    ratio = traj.max_error_ratio
    if ratio is not None and ratio > STEP_QUALITY_BOUND:
        print(f"warning: max_error_ratio {ratio:.3g} exceeds {STEP_QUALITY_BOUND:g}: the "
              "step does not resolve the dynamics, so the trajectory may not solve the ODE "
              "(try a smaller --step)", file=sys.stderr)
    return {"max_error_ratio": ratio}


def _cmd_generate(args) -> int:
    started = time.time()
    (cfg,), config = _resolve(args, CsbmConfig)
    ds = csbm_generate(cfg, args.seed)
    gio.write_dataset(ds, args.out)
    gio.write_manifest(args.out, _manifest(
        "generate", config, args.seed, [],
        ["graph.txt", "features.csv", "labels.csv", "masks.csv"], started,
    ))
    print(f"wrote dataset with {ds.graph.n} nodes, {ds.graph.num_edges} edges to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    started = time.time()
    ds, config, traj = _run_simulation(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gio.write_trajectory_csv(traj, out / "trajectory.csv")
    gio.write_manifest(out, {**_manifest(
        "simulate", config, None, [str(args.dataset)], ["trajectory.csv"], started,
    ), **_step_quality(traj)})
    print(f"integrated to T={config['horizon']} with {traj.step_count} steps; "
          f"{len(traj.times)} records -> {out / 'trajectory.csv'}")
    return 0


def _cmd_energy(args) -> int:
    started = time.time()
    if args.eps is not None and not 0 < args.eps < np.inf:
        raise ValueError(f"--eps must be a finite number > 0, got {args.eps}")
    for flag, x in (("--energy-floor", args.energy_floor), ("--spread-floor", args.spread_floor)):
        if not 0 <= x < np.inf:
            raise ValueError(f"{flag} must be a finite number >= 0, got {x}")
    if args.trajectory:
        given = [flag for dest, flag in args.sim_flags.items() if getattr(args, dest) is not None]
        if given:
            raise ValueError(f"{', '.join(given)}: dynamics and solver settings do not apply "
                             "to a recorded --trajectory")
        ds, traj = gio.read_dataset(args.dataset), gio.read_trajectory_csv(args.trajectory)
        if traj.states.shape[1] != ds.graph.n:
            raise ValueError(f"{args.trajectory}: the trajectory has {traj.states.shape[1]} "
                             f"nodes, the dataset {ds.graph.n}")
        config = {"trajectory": str(args.trajectory)}
        inputs = [str(args.dataset), str(args.trajectory)]
    else:
        ds, config, traj = _run_simulation(args)
        inputs = [str(args.dataset)]

    eps = args.eps if args.eps is not None else diag.default_cluster_eps(traj.states[0])
    energies = diag.energy_series(traj, ds.graph).values
    spreads = np.array([diag.feature_spread(s) for s in traj.states])
    profile = diag.metastability_profile(traj, eps)

    energy_floor = args.energy_floor * energies[0] if energies[0] > 0 else args.energy_floor
    verdict = diag.oversmoothing_verdict(traj, ds.graph, energy_floor, args.spread_floor)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gio.write_energy_csv(out / "energy.csv", traj.times, energies, spreads, profile.counts)

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
    config.update({"eps": eps, "energy_floor_rel": args.energy_floor,
                   "spread_floor": args.spread_floor})
    gio.write_manifest(out, {**_manifest(
        "energy", config, None, inputs, ["energy.csv", "verdict.json"], started,
    ), **_step_quality(traj)})
    print(f"verdict: {verdict} (final energy {energies[-1]:.3e}, spread {spreads[-1]:.3e})")
    return 0


def _cmd_grad_check(args) -> int:
    worst, errors = gradient_check(args.seed, instances=args.instances, h=args.h)
    for i, err in enumerate(errors):
        print(f"instance {i}: max relative error {err:.3e}")
    print(f"max relative error: {worst:.3e} (threshold {GRAD_CHECK_TOLERANCE:g})")
    if worst <= GRAD_CHECK_TOLERANCE:
        print("grad-check: PASS")
        return 0
    print("grad-check: FAIL")
    return NUMERICAL_ERROR


def _cmd_train(args) -> int:
    started = time.time()
    (cfg,), config = _resolve(args, TrainConfig)
    ds = gio.read_dataset(args.dataset)
    params, metrics = train(ds, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gio.write_checkpoint(out / "checkpoint.json", params, cfg.dynamics, cfg.solver)
    gio.write_metrics_csv(out / "metrics.csv", metrics)
    gio.write_manifest(out, _manifest(
        "train", config, cfg.seed, [str(args.dataset)],
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
    p.add_argument("--n", type=int)
    p.add_argument("--p-intra", dest="p_intra", type=float)
    p.add_argument("--p-inter", dest="p_inter", type=float)
    p.add_argument("--feat-dim", dest="feat_dim", type=int)
    p.add_argument("--separation", dest="class_mean_separation", type=float)
    p.add_argument("--noise-std", dest="noise_std", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="integrate the dynamics on a dataset")
    p.add_argument("--dataset", required=True)
    sim_flags = _add_sim_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate, sim_flags=sim_flags)

    p = sub.add_parser("energy", help="energy/spread/cluster diagnostics and verdict")
    p.add_argument("--dataset", required=True)
    p.add_argument("--trajectory", help="existing trajectory CSV; otherwise simulate")
    sim_flags = _add_sim_flags(p)
    p.add_argument("--eps", type=float, help="cluster eps (default: 5%% of initial diameter)")
    p.add_argument("--energy-floor", dest="energy_floor", type=float, default=1e-8,
                   help="over-smoothing energy floor, relative to E(X(0))")
    p.add_argument("--spread-floor", dest="spread_floor", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_energy, sim_flags=sim_flags)

    p = sub.add_parser("grad-check", help="reverse-sweep vs finite-difference gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--h", type=float, default=1e-5)
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("train", help="train the classifier on a dataset bundle")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="train config JSON")
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--method", choices=FIXED_STEP_METHODS)
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
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
