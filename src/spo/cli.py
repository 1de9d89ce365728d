"""Command-line entry point.

Subcommands:

* ``run``          - one (kind, env, seed) episode on the virtual clock, JSON output
* ``compare``      - all four kinds over a seed list, CSV + JSON + report
* ``sweep``        - a ``compare`` at each point of a one-parameter grid, one CSV
* ``calibrate``    - write an inverse-variance weight file
* ``serve``        - start the TCP cloud endpoint (socket mode)
* ``edge-connect`` - one episode in real time against a ``serve`` endpoint

Flag values override config-file values; the effective config and the world
model are echoed into every output JSON (by ``edge-connect``, only the config
fields the edge applies). The base seed is ``--seed``, else ``$SPO_SEED``,
else the config file's ``rng_seed``, else 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness, sockets
from .cloud import DRIFT_BIAS, DRIFT_NOISE, make_model
from .environments import get_spec, load_environment
from .harness import BaselineKind
from .types import ConfigError, SpoConfig, load_config, validate_config

NET_FLAGS = {
    "rtt": "rtt_base",
    "jitter": "jitter_half_width",
    "kmin": "k_min",
    "kmax": "k_max",
    "beta": "beta",
    "epsilon": "epsilon_base",
}

# The config fields an edge-connect run applies itself; the server applies the rest,
# so its run JSON echoes only these.
EDGE_CONFIG_FIELDS = ("control_interval", "epsilon_base", "rng_seed")


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer of at least ``low`` and, if given, at most ``high``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


# The flags that several subcommands share; build_parser lists the ones each reads.
FLAGS = {
    "config": dict(help="flat key=value config file"),
    "env": dict(default="free_space", help="canonical name or spec file path"),
    "kind": dict(default="spo", choices=[k.value for k in BaselineKind]),
    **{flag: dict(type=type(getattr(SpoConfig, field))) for flag, field in NET_FLAGS.items()},
    "seed": dict(help="base seed (default $SPO_SEED, else the config's rng_seed, else 0)"),
    "out": dict(default="out", help="output directory"),
    "model": dict(default="oracle", choices=["oracle", "drifted"]),
    "drift-bias": dict(type=float, help=f"drifted model's per-step bias (default {DRIFT_BIAS})"),
    "drift-noise": dict(type=float, help=f"drifted model's noise std (default {DRIFT_NOISE})"),
    "weights": dict(help="precomputed weight file (default: calibrate)"),
}


def _effective_config(args) -> SpoConfig:
    """The config file (or the defaults) under the flags; ``$SPO_SEED`` stands in for --seed."""
    overrides = {field: getattr(args, flag, None) for flag, field in NET_FLAGS.items()}
    seed = os.environ.get("SPO_SEED") if args.seed is None else args.seed
    if seed is not None:
        try:
            overrides["rng_seed"] = int(seed)
        except ValueError:
            raise ConfigError([f"base seed {seed!r} is not an integer"]) from None
    return load_config(args.config, overrides)


def _world_model(args, spec) -> dict:
    """An episode's world-model arguments, defaults filled in, checked by building its model."""
    if args.model != "drifted" and (args.drift_bias, args.drift_noise) != (None, None):
        raise ConfigError(
            [f"--drift-bias and --drift-noise need --model drifted, not {args.model}"])
    world = {"model_kind": args.model,
             "drift_bias": DRIFT_BIAS if args.drift_bias is None else args.drift_bias,
             "drift_noise": DRIFT_NOISE if args.drift_noise is None else args.drift_noise}
    make_model(spec, **world)
    return world


def _config_echo(cfg: SpoConfig, world: dict) -> dict:
    """The run JSON's ``config``: the effective config and the world model of the run."""
    return {**dataclasses.asdict(cfg), "model": world["model_kind"],
            "drift_bias": world["drift_bias"], "drift_noise": world["drift_noise"]}


def _spec(args):
    if os.path.exists(args.env) and not os.path.isdir(args.env):  # a run's --out dir is no spec
        return load_environment(args.env)
    try:
        return get_spec(args.env)
    except KeyError as exc:
        raise ConfigError([f"no spec file at {args.env!r}, and {exc.args[0]}"]) from None


def _weights(args, spec, cfg):
    if not args.weights:
        return harness.calibrate_weights(spec, seed=cfg.rng_seed)
    weights = harness.load_weights(args.weights)
    if weights.dim != spec.d_s:
        raise ConfigError([f"{args.weights}: {weights.dim} weights, expected d_s = {spec.d_s}"])
    return weights


def cmd_run(args, cfg: SpoConfig, spec) -> int:
    """One episode: ``run`` on the virtual clock, ``edge-connect`` against a remote cloud."""
    kind = BaselineKind(args.kind)
    world = _world_model(args, spec) if args.command == "run" else None
    weights = _weights(args, spec, cfg)
    if args.command == "edge-connect":
        mode, echo = "socket", {field: getattr(cfg, field) for field in EDGE_CONFIG_FIELDS}
        host, _, port = args.addr.rpartition(":")
        if not (port.isdecimal() and int(port) <= 0xFFFF):
            raise ConfigError([f"--addr {args.addr!r} is not host:port with a port in 0..65535"])
        result = sockets.edge_connect_run(
            (host or "127.0.0.1", int(port)), spec, cfg, kind, cfg.rng_seed, weights
        )
    else:
        mode, echo = "virtual", _config_echo(cfg, world)
        result = harness.run_single(kind, spec, cfg, cfg.rng_seed, weights, **world)
    late = {} if result.lateness is None else {"lateness": result.lateness}
    print(harness.write_run_json(args.out, result.metrics, mode, echo, **late), end="")
    return 0


def _grid(args, cfg: SpoConfig, spec) -> list:
    """The sweep's (grid value, config) points, every one checked before the first episode."""
    if args.param not in {f.name for f in dataclasses.fields(SpoConfig)}:
        raise ConfigError([f"unknown sweep parameter {args.param!r}"])
    field_type = type(getattr(cfg, args.param))
    span = args.to - args.from_
    grid = []
    for i in range(args.steps):
        value = args.from_ + span * i / max(1, args.steps - 1)
        if field_type is int and not value.is_integer():
            raise ConfigError([f"{args.param} is an integer field; grid point {value!r} is not"])
        point = dataclasses.replace(cfg, **{args.param: field_type(value)})
        grid.append((value, validate_config(point, spec)))
    if args.steps == 1 and args.to != args.from_:
        raise ConfigError([f"--steps 1 runs only --from {args.from_!r}, not --to {args.to!r}"])
    return grid


def cmd_experiment(args, cfg: SpoConfig, spec) -> int:
    """All four kinds over the seeds at each grid point; ``compare``'s one point is the config."""
    seeds = list(range(cfg.rng_seed, cfg.rng_seed + args.seeds))
    sweep = args.command == "sweep"
    grid = _grid(args, cfg, spec) if sweep else [(None, cfg)]
    world = _world_model(args, spec)
    weights = _weights(args, spec, cfg)
    echo = _config_echo(cfg, world)
    lines = [("param_value," if sweep else "") + harness.CSV_HEADER]
    for value, point in grid:
        report = harness.compare_report({kind: harness.run_experiment(
            kind, spec, point, seeds, **world, weights=weights) for kind in BaselineKind})
        lines += [(f"{value!r}," if sweep else "") + harness.metrics_csv_line(m)
                  for m in report.rows]
        if sweep:  # a sweep writes no run JSONs
            print(f"{args.param} = {value!r}")
        else:
            for m in report.rows:
                harness.write_run_json(args.out, m, "virtual", echo)
        print(report.to_text())
    name = f"sweep_{args.param}" if sweep else "compare"
    harness.write_atomic(os.path.join(args.out, f"{name}_{spec.name}.csv"), "\n".join(lines) + "\n")
    return 0


def cmd_calibrate(args, cfg: SpoConfig, spec) -> int:
    weights = harness.calibrate_weights(spec, episodes=args.episodes, seed=cfg.rng_seed)
    path = args.weights_out or os.path.join(args.out, f"weights_{spec.name}.txt")
    harness.save_weights(path, weights)
    print(f"wrote {path}")
    return 0


def cmd_serve(args, cfg: SpoConfig, spec) -> int:
    world = _world_model(args, spec)
    server = sockets.CloudServer(args.port, spec, cfg, BaselineKind(args.kind), **world)
    print(f"serving on port {server.port}", flush=True)
    server.serve_forever()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spo")
    sub = parser.add_subparsers(dest="command", required=True)
    net, drift = " ".join(NET_FLAGS), "model drift-bias drift-noise"

    def subcommand(name, func, help, flags):
        # Exact flag names only: with abbreviations a subcommand would accept a
        # flag it does not have as a prefix of one it does (--mode for --model).
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    subcommand("run", cmd_run, "run one episode on the virtual clock",
               f"config env kind {net} seed out {drift} weights")

    p = subcommand("compare", cmd_experiment, "run all baselines over a seed list",
                   f"config env {net} seed out {drift} weights")
    p.add_argument("--seeds", type=_int_in(1), default=5, help="number of seeds from the base seed")

    p = subcommand("sweep", cmd_experiment, "run all baselines at each point of a config grid",
                   f"config env {net} seed out {drift} weights")
    p.add_argument("--param", required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", dest="to", type=float, required=True)
    p.add_argument("--steps", type=_int_in(1), required=True)
    p.add_argument("--seeds", type=_int_in(1), default=1)

    p = subcommand("calibrate", cmd_calibrate, "write a weight calibration file",
                   "config env seed out")
    p.add_argument("--episodes", type=_int_in(1), default=3)
    p.add_argument("--weights-out", help="output path (default <out>/weights_<env>.txt)")

    p = subcommand("serve", cmd_serve, "start the TCP cloud endpoint",
                   f"config env kind {net} seed {drift}")
    p.add_argument("--port", type=_int_in(0, 0xFFFF), default=0)

    p = subcommand("edge-connect", cmd_run, "run the edge loop against a remote endpoint",
                   "config env kind epsilon seed out weights")
    p.add_argument("--addr", required=True, help="cloud endpoint, host:port")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)  # config errors before spec errors
        return args.func(args, cfg, _spec(args))
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is not None:  # reads are ConfigErrors, so a named path is an output
            print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
        print(f"network error: {exc}", file=sys.stderr)  # sockets name no path
        return 3


if __name__ == "__main__":
    sys.exit(main())
