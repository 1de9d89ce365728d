"""Command-line entry point.

Subcommands:

* ``run``          - one (kind, env, seed) episode on the virtual clock, JSON output
* ``compare``      - all four kinds over a seed list, CSV + JSON + report
* ``sweep``        - vary one config parameter, CSV curve
* ``calibrate``    - write an inverse-variance weight file
* ``serve``        - start the TCP cloud endpoint (socket mode)
* ``edge-connect`` - one episode in real time against a ``serve`` endpoint

Flag values override config-file values; the effective config is echoed into
every output JSON. ``SPO_SEED`` supplies the default base seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import harness, sockets
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


def _add_common(parser, *, kind=False, model=False, out=False, weights=False, jobs=False) -> None:
    """The environment, config and seed flags, plus the groups the subcommand reads."""
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--env", default="free_space", help="canonical name or spec file path")
    parser.add_argument("--disturbances", help="CSV disturbance schedule for a spec file")
    if kind:
        parser.add_argument(
            "--kind", default="spo", choices=[k.value for k in BaselineKind]
        )
    parser.add_argument("--rtt", type=float, default=None)
    parser.add_argument("--jitter", type=float, default=None)
    parser.add_argument("--kmin", type=int, default=None)
    parser.add_argument("--kmax", type=int, default=None)
    parser.add_argument("--beta", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None, help="base seed (default $SPO_SEED or 0)")
    if out:
        parser.add_argument("--out", default="out", help="output directory")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1)
    if model:
        parser.add_argument("--model", default="oracle", choices=["oracle", "drifted"])
        parser.add_argument("--drift-bias", type=float, default=8e-4)
        parser.add_argument("--drift-noise", type=float, default=2e-4)
    if weights:
        parser.add_argument("--weights", help="precomputed weight file (default: calibrate)")


def _base_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("SPO_SEED", "0"))


def _effective_config(args) -> SpoConfig:
    overrides = {field: getattr(args, flag) for flag, field in NET_FLAGS.items()}
    overrides["rng_seed"] = _base_seed(args)
    if args.config:
        return load_config(args.config, overrides)
    values = {k: v for k, v in overrides.items() if v is not None}
    return validate_config(SpoConfig(**values))


def _spec(args):
    if os.path.exists(args.env):
        return load_environment(args.env, disturbances_csv=args.disturbances)
    if args.disturbances:
        raise ConfigError([f"--disturbances needs a spec file, not environment {args.env!r}"])
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


def _seed_list(args) -> list[int]:
    base = _base_seed(args)
    return list(range(base, base + args.seeds))


def cmd_run(args) -> int:
    """One episode: ``run`` on the virtual clock, ``edge-connect`` against a remote cloud."""
    cfg = _effective_config(args)
    spec = _spec(args)
    kind = BaselineKind(args.kind)
    seed = _base_seed(args)
    weights = _weights(args, spec, cfg)
    if args.command == "edge-connect":
        mode = "socket"
        host, _, port = args.addr.rpartition(":")
        if not (port.isdecimal() and int(port) <= 0xFFFF):
            raise ConfigError([f"--addr {args.addr!r} is not host:port with a port in 0..65535"])
        result = sockets.edge_connect_run(
            (host or "127.0.0.1", int(port)), spec, cfg, kind, seed, weights
        )
    else:
        mode = "virtual"
        result = harness.run_single(
            kind, spec, cfg, seed, weights,
            model_kind=args.model, drift_bias=args.drift_bias, drift_noise=args.drift_noise,
        )
    path = os.path.join(args.out, f"run_{kind.value}_{spec.name}_{seed}.json")
    harness.write_run_json(path, result.metrics, cfg, {"env": spec.name, "mode": mode})
    print(harness.run_json_document(result.metrics, cfg, {"env": spec.name}))
    return 0


def cmd_compare(args) -> int:
    cfg = _effective_config(args)
    spec = _spec(args)
    seeds = _seed_list(args)
    weights = _weights(args, spec, cfg)
    results = {}
    for kind in BaselineKind:
        metrics = harness.run_experiment(
            kind, spec, cfg, seeds,
            model_kind=args.model, drift_bias=args.drift_bias,
            drift_noise=args.drift_noise, weights=weights, jobs=args.jobs,
        )
        results[kind] = metrics
        for m in metrics:
            harness.write_run_json(
                os.path.join(args.out, f"run_{kind.value}_{spec.name}_{m.seed}.json"),
                m, cfg, {"env": spec.name, "mode": "virtual"},
            )
    report = harness.compare_report(results)
    harness.write_metrics_csv(
        os.path.join(args.out, f"compare_{spec.name}.csv"), report.rows
    )
    print(report.to_text())
    return 0


def cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    spec = _spec(args)
    seeds = _seed_list(args)
    weights = _weights(args, spec, cfg)
    kind = BaselineKind(args.kind)
    if args.param not in {f.name for f in dataclasses.fields(SpoConfig)}:
        raise ConfigError([f"unknown sweep parameter {args.param!r}"])
    lines = ["param_value," + harness.CSV_HEADER]
    span = args.to - args.from_
    for i in range(args.steps):
        value = args.from_ + span * i / max(1, args.steps - 1)
        field_type = type(getattr(cfg, args.param))
        swept = validate_config(cfg.replace(**{args.param: field_type(value)}))
        metrics = harness.run_experiment(
            kind, spec, swept, seeds,
            model_kind=args.model, drift_bias=args.drift_bias,
            drift_noise=args.drift_noise, weights=weights, jobs=args.jobs,
        )
        for m in metrics:
            lines.append(f"{value!r},{harness.metrics_csv_line(m)}")
    path = os.path.join(args.out, f"sweep_{args.param}_{kind.value}_{spec.name}.csv")
    harness.write_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _effective_config(args)
    spec = _spec(args)
    weights = harness.calibrate_weights(spec, episodes=args.episodes, seed=cfg.rng_seed)
    path = args.weights_out or os.path.join(args.out, f"weights_{spec.name}.txt")
    harness.save_weights(path, weights)
    print(f"wrote {path}")
    return 0


def cmd_serve(args) -> int:
    cfg = _effective_config(args)
    spec = _spec(args)
    server = sockets.CloudServer(
        args.port, spec, cfg, BaselineKind(args.kind),
        model_kind=args.model, drift_bias=args.drift_bias, drift_noise=args.drift_noise,
    )
    print(f"serving on port {server.port}", flush=True)
    server.serve_forever()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spo")
    sub = parser.add_subparsers(dest="command", required=True)

    # Exact flag names only: with abbreviations a subcommand would accept a
    # flag it does not have as a prefix of one it does (--mode for --model).
    p = sub.add_parser("run", help="run one episode on the virtual clock", allow_abbrev=False)
    _add_common(p, kind=True, model=True, out=True, weights=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run all baselines over a seed list", allow_abbrev=False)
    _add_common(p, model=True, out=True, weights=True, jobs=True)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds from the base seed")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="vary one config parameter", allow_abbrev=False)
    _add_common(p, kind=True, model=True, out=True, weights=True, jobs=True)
    p.add_argument("--param", required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", dest="to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="write a weight calibration file", allow_abbrev=False)
    _add_common(p, out=True)
    p.add_argument("--episodes", type=int, default=3)
    p.add_argument("--weights-out", help="output path (default <out>/weights_<env>.txt)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("serve", help="start the TCP cloud endpoint", allow_abbrev=False)
    _add_common(p, kind=True, model=True)
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "edge-connect", help="run the edge loop against a remote endpoint", allow_abbrev=False
    )
    _add_common(p, kind=True, out=True, weights=True)
    p.add_argument("--addr", required=True, help="cloud endpoint, host:port")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
