"""Experiment runner: the episode loop, weight calibration, metrics,
baseline comparison, and result serialization.

One episode couples an :class:`~spo.edge.EdgeSession`, through a link to a
cloud, to a synthetic environment: on the virtual clock a :class:`~spo.transport.VirtualChannel`,
one deterministic message slot in front of a :class:`~spo.cloud.CloudSession`, in socket
mode a TCP peer whose link's ``due`` sleeps until each tick's wall-clock time. All
randomness (start jitter, channel jitter, model noise) derives from one seed
through :func:`episode_seeds`, so a virtual run is bitwise reproducible, and a
socket run of the same seed draws the same start, delays and model noise.

The virtual clock is event-driven. After a tick that leaves the edge awaiting a refill,
:func:`run_episode` records the held ticks up to the next delivery to the edge, the next
disturbance or ``max_steps`` in one go; the link answers a request that reaches the cloud
meanwhile. This is exact: such a tick delivers nothing to the edge, holds the zero action
and is not disturbed. A refill tick holds still too, unless disturbed, and checks the goal
only at tick 0; a stepped tick on an empty channel does not touch it, one with nothing due
does no channel work, and a tick that only receives does not poll the cloud side again.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .cloud import CloudSession, Policy, make_model, make_policy
from .edge import EdgeSession, Outcome, StepRecord
from .environments import EnvironmentSpec, is_success, start_state, true_step
from .transport import LatencyModel, VirtualChannel
from .types import (ConfigError, SpoConfig, StateVector, WeightMatrix, parse_config_file,
                    parse_vector, validate_config)


class CalibrationError(ConfigError):
    """Calibration rollout produced no usable per-dimension variance: the spec is at fault."""


class BaselineKind(enum.Enum):
    BLOCKING = "blocking"
    T1SC = "t1sc"
    NFTC = "nftc"
    SPO = "spo"


# Fixed speculative depth per baseline; None = adaptive. NFTC's is the config's k_max.
FIXED_HORIZON = {
    BaselineKind.BLOCKING: 0,
    BaselineKind.T1SC: 1,
    BaselineKind.SPO: None,
}


def fixed_horizon(kind: BaselineKind, cfg: SpoConfig) -> int | None:
    """The speculative depth ``kind`` runs at under ``cfg``; None = adaptive."""
    return cfg.k_max if kind is BaselineKind.NFTC else FIXED_HORIZON[kind]


SCHEMA_VERSION = 1
WEIGHT_CAP = 1e9
VARIANCE_FLOOR = 1e-12

CSV_HEADER = "kind,seed,success,steps,idle_s,hit_rate,mean_k,wasted,generated"


@dataclass(frozen=True)
class RunMetrics:
    kind: str
    env: str
    seed: int
    success: bool
    steps_taken: int
    sim_wall_time: float
    idle_time: float
    hits: int
    misses: int
    holds: int
    awaiting: int
    direct: int
    hit_rate: float
    mean_horizon: float
    wasted_predictions: int
    generated_predictions: int
    diagnostic: str | None = None


@dataclass
class RunResult:
    metrics: RunMetrics
    records: list[StepRecord]
    horizons: list[int]


def calibrate_weights(
    spec: EnvironmentSpec,
    policy: Policy | None = None,
    episodes: int = 3,
    seed: int = 0,
) -> WeightMatrix:
    """Inverse variance of one-step state deltas over disturbance-free rollouts.

    Dimensions whose delta variance falls below the floor get the capped
    weight and a warning; if every dimension is degenerate the calibration
    fails outright.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    policy = policy or make_policy(spec)
    clean = dataclasses.replace(spec, disturbance_schedule=())
    rng = np.random.default_rng([seed, 0xCA11])
    deltas = []
    for _ in range(episodes):
        s = start_state(clean, rng)
        for t in range(clean.max_steps):
            a = policy.act(s)
            nxt = true_step(clean, s, a, t)
            deltas.append([x - y for x, y in zip(nxt.values, s.values)])
            s = nxt
            if is_success(clean, s):
                break
    var = np.var(np.asarray(deltas), axis=0)
    degenerate = np.flatnonzero(var < VARIANCE_FLOOR)
    if degenerate.size == var.size:
        raise CalibrationError([f"{spec.name}: all state dimensions constant during "
                                f"calibration: {degenerate.tolist()}"])
    if degenerate.size:
        warnings.warn(
            f"calibration: constant dimensions {degenerate.tolist()} clamped to "
            f"weight cap {WEIGHT_CAP:g}",
            stacklevel=2,
        )
    weights = np.where(var < VARIANCE_FLOOR, WEIGHT_CAP, 1.0 / np.maximum(var, VARIANCE_FLOOR))
    return WeightMatrix(np.minimum(weights, WEIGHT_CAP))


def episode_seeds(cfg: SpoConfig, seed: int):
    """Start rng, one-way delay model and drift seed of episode ``seed``, in both modes.

    The delay model halves the round trip's base and jitter; each request draws
    its uplink leg, then its downlink leg.
    """
    start, channel, drift = np.random.SeedSequence([cfg.rng_seed, seed]).spawn(3)
    channel_rng = np.random.default_rng(channel)
    latency = LatencyModel(cfg.rtt_base / 2.0, cfg.jitter_half_width / 2.0, channel_rng)
    return np.random.default_rng(start), latency, int(drift.generate_state(1)[0])


def run_single(
    kind: BaselineKind,
    spec: EnvironmentSpec,
    cfg: SpoConfig,
    seed: int,
    weights: WeightMatrix,
    **world,
) -> RunResult:
    """One deterministic virtual-clock episode; ``world`` is :func:`~spo.cloud.make_model`'s."""
    start_rng, latency, drift_seed = episode_seeds(cfg, seed)
    model = make_model(spec, seed=drift_seed, **world)
    cloud = CloudSession(cfg, make_policy(spec), model, fixed_horizon=fixed_horizon(kind, cfg))
    link = VirtualChannel(latency, cloud)
    return run_episode(kind, spec, cfg, seed, weights, link, start_state(spec, start_rng))


def run_episode(
    kind: BaselineKind, spec: EnvironmentSpec, cfg: SpoConfig, seed: int,
    weights: WeightMatrix, link, start: StateVector,
) -> RunResult:
    """The control loop of both modes; ``link`` hides the clock and the transport."""
    validate_config(cfg, spec)
    edge = EdgeSession(cfg, weights, spec.d_a, blocking=(kind is BaselineKind.BLOCKING))
    state = start
    records: list[StepRecord] = []
    success = False
    diagnostic = None
    disturbed = {t for t, _ in spec.disturbance_schedule}

    tick = 0
    while tick < spec.max_steps:
        now = tick * cfg.control_interval
        for rid, resp in link.due(now):
            edge.install_response(rid, resp)
        rec, refill = edge.edge_tick(state, tick)
        records.append(rec)
        if refill is not None:
            link.send_request(refill, now)
        moved = refill is None or tick in disturbed  # a tick that sends a refill holds still
        if moved:
            try:
                state = true_step(spec, state, rec.action_executed, tick)
            except ValueError as exc:
                diagnostic = f"environment diverged at tick {tick}: {exc}"
                break
        # A held tick keeps the state checked when it last moved; only tick 0's start is new.
        if (moved or not tick) and is_success(spec, state):
            success = True
            break
        if link.dead and edge.in_flight_id is not None:
            diagnostic = "connection lost while awaiting refill"
            break
        tick += 1
        if edge.in_flight_id is not None and not edge.cache:
            # Until a delivery to the edge or a disturbance, each awaiting tick holds still.
            stop = min([t for t in disturbed if t >= tick] + [spec.max_steps])
            arrives = -math.inf  # so the first held tick asks the link
            while tick < stop:
                now = tick * cfg.control_interval
                if now >= arrives and (arrives := link.answer(now)) <= now:
                    break  # a response is due at the edge: this tick is run
                records.append(edge.awaiting_record(tick))
                tick += 1

    metrics = compile_metrics(
        kind, spec, cfg, seed, records, edge.horizons, edge.generated, len(edge.cache),
        success, diagnostic,
    )
    return RunResult(metrics=metrics, records=records, horizons=edge.horizons)


def compile_metrics(
    kind: BaselineKind,
    spec: EnvironmentSpec,
    cfg: SpoConfig,
    seed: int,
    records: list[StepRecord],
    horizons: list[int],
    generated: int,
    remaining_in_cache: int,
    success: bool,
    diagnostic: str | None = None,
) -> RunMetrics:
    """Reduce a step-record trace to RunMetrics (shared by virtual and socket modes)."""
    # list.count compares by identity first; counting in a dict would hash each Enum in Python.
    outcomes = [rec.outcome for rec in records]
    hits = outcomes.count(Outcome.HIT)
    misses = outcomes.count(Outcome.MISS)
    holds = outcomes.count(Outcome.STARVED_HOLD)
    awaiting = outcomes.count(Outcome.AWAITING_REFILL)
    direct = outcomes.count(Outcome.DIRECT)
    executed = hits + direct
    total_h = sum(horizons)
    dt = cfg.control_interval
    return RunMetrics(
        kind=kind.value,
        env=spec.name,
        seed=seed,
        success=success,
        steps_taken=len(records),
        sim_wall_time=len(records) * dt,
        idle_time=(holds + misses + awaiting) * dt,
        hits=hits,
        misses=misses,
        holds=holds,
        awaiting=awaiting,
        direct=direct,
        hit_rate=hits / max(1, hits + misses + holds),
        mean_horizon=(sum(h * h for h in horizons) / total_h) if total_h else 0.0,
        wasted_predictions=generated - executed - remaining_in_cache,
        generated_predictions=generated,
        diagnostic=diagnostic,
    )


def run_experiment(
    kind: BaselineKind,
    spec: EnvironmentSpec,
    cfg: SpoConfig,
    seeds: list[int],
    *,
    weights: WeightMatrix,
    jobs: int = 1,
    **world,
) -> list[RunMetrics]:
    """One RunMetrics per seed, ``world`` as in :func:`run_single`; seeds may run in parallel."""
    make_model(spec, seed=0, **world)  # as each episode builds it: a bad world fails with no seeds

    def one(seed: int) -> RunMetrics:
        return run_single(kind, spec, cfg, seed, weights, **world).metrics

    if jobs <= 1 or len(seeds) <= 1:
        return [one(s) for s in seeds]
    import concurrent.futures  # here, not at the top: a one-job run never pays for it
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        results = dict(zip(seeds, pool.map(one, seeds)))
    return [results[s] for s in seeds]


@dataclass
class ComparisonReport:
    """Per-kind aggregates and reductions. ``idle_per_action`` is idle ticks per executed
    action (hits + direct) over all seeds; unlike ``idle_s`` it does not grow with
    ``max_steps``. ``censored`` counts the runs that ended at ``max_steps`` unfinished."""

    rows: list[RunMetrics]
    aggregate: dict
    idle_reduction_vs_blocking_pct: dict
    wasted_reduction_vs_nftc_pct: dict
    idle_per_action_reduction_vs_blocking_pct: dict

    def to_text(self) -> str:
        lines = [f"{'kind':<10}{'idle_s':>14}{'hit_rate':>12}{'mean_k':>10}{'wasted':>12}"
                 f"{'success':>10}{'idle/act':>10}"]
        runs = len(self.rows) // max(1, len(self.aggregate))
        for kind, agg in self.aggregate.items():
            per_action = agg["idle_per_action"]
            lines.append(
                f"{kind:<10}{agg['idle_mean']:>9.3f}±{agg['idle_std']:<4.3f}"
                f"{agg['hit_rate_mean']:>12.3f}{agg['mean_k_mean']:>10.2f}"
                f"{agg['wasted_mean']:>12.1f}{agg['success_rate']:>10.2f}"
                + (f"{'n/a':>10}" if per_action is None else f"{per_action:>10.2f}")
                + (f"  censored {agg['censored']}/{runs}" if agg["censored"] else "")
            )
        for name, pcts in (("idle reduction vs blocking", self.idle_reduction_vs_blocking_pct),
                           ("idle per action reduction vs blocking",
                            self.idle_per_action_reduction_vs_blocking_pct),
                           ("wasted reduction vs nftc", self.wasted_reduction_vs_nftc_pct)):
            lines += [f"{name} [{kind}]: " + ("n/a" if pct is None else f"{pct:.1f}%")
                      for kind, pct in pcts.items()]
        return "\n".join(lines)


def _reduction_pct(baseline: float | None, value: float | None) -> float | None:
    """The reduction from ``baseline`` in percent; None (undefined) when ``baseline`` is 0
    or either is undefined."""
    if not baseline or value is None:
        return None
    return 100.0 * (1.0 - value / baseline)


def compare_report(results: dict[BaselineKind, list[RunMetrics]]) -> ComparisonReport:
    """Aggregate per-kind metrics and relative reductions across a shared seed set."""
    seed_sets = {kind: tuple(m.seed for m in ms) for kind, ms in results.items()}
    if len(set(seed_sets.values())) > 1:
        raise ValueError(f"mismatched seed sets across kinds: {seed_sets}")
    aggregate = {}
    for kind, ms in results.items():
        idle = np.array([m.idle_time for m in ms])
        executed = sum(m.hits + m.direct for m in ms)
        aggregate[kind.value] = {
            "idle_mean": float(np.mean(idle)),
            "idle_std": float(np.std(idle, ddof=1)) if len(ms) > 1 else 0.0,
            "hit_rate_mean": float(np.mean([m.hit_rate for m in ms])),
            "mean_k_mean": float(np.mean([m.mean_horizon for m in ms])),
            "wasted_mean": float(np.mean([m.wasted_predictions for m in ms])),
            "success_rate": float(np.mean([m.success for m in ms])),
            "idle_per_action": (sum(m.holds + m.misses + m.awaiting for m in ms) / executed
                                if executed else None),
            # Unfinished with no diagnostic: the loop ran out of max_steps.
            "censored": sum(not m.success and m.diagnostic is None for m in ms),
        }
    reductions = []  # in ComparisonReport's field order; empty without the base kind
    for base, key in ((BaselineKind.BLOCKING, "idle_mean"), (BaselineKind.NFTC, "wasted_mean"),
                      (BaselineKind.BLOCKING, "idle_per_action")):
        reductions.append({} if base not in results else {
            kind.value: _reduction_pct(aggregate[base.value][key], aggregate[kind.value][key])
            for kind in results if kind is not base})
    rows = [m for ms in results.values() for m in ms]
    rows.sort(key=lambda m: (m.kind, m.seed))
    return ComparisonReport(rows, aggregate, *reductions)


def metrics_csv_line(m: RunMetrics) -> str:
    return ",".join(
        [
            m.kind,
            str(m.seed),
            str(int(m.success)),
            str(m.steps_taken),
            repr(m.idle_time),
            repr(m.hit_rate),
            repr(m.mean_horizon),
            str(m.wasted_predictions),
            str(m.generated_predictions),
        ]
    )


def write_atomic(path, data: str) -> None:
    """Write via temp file + rename so readers never see a truncated file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_json_document(m: RunMetrics, fields: dict) -> str:
    """``m`` under ``metrics`` beside ``fields`` (the run's ``config``, ``env`` and ``mode``)."""
    import json  # here, not at the top: only a run's JSON document needs it
    doc = {"schema_version": SCHEMA_VERSION, "metrics": dataclasses.asdict(m), **fields}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_weights(path, weights: WeightMatrix) -> None:
    """Write ``weights = w1, ..., wd``, each inverse variance as its exact ``repr``."""
    write_atomic(path, f"weights = {', '.join(map(repr, weights.inverse_variances.tolist()))}\n")


def load_weights(path) -> WeightMatrix:
    """Read a file :func:`save_weights` wrote; any fault in it is a :class:`ConfigError`."""
    values = parse_config_file(path, {"weights": parse_vector}, required=("weights",))
    try:
        return WeightMatrix(values["weights"])
    except ValueError as exc:
        raise ConfigError([f"{path}: {exc}"]) from None
