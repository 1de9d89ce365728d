"""Experiment runner: the episode loop, weight calibration, metrics,
baseline comparison, and result serialization.

One episode couples an :class:`~spo.edge.EdgeSession`, through a link to a
cloud, to a synthetic environment: on the virtual clock a
:class:`~spo.cloud.CloudSession` behind a deterministic
:class:`~spo.transport.VirtualChannel`, in socket mode a TCP peer. All
randomness (start jitter, channel jitter, model noise) derives from one seed
through :func:`episode_seeds`, so a virtual run is bitwise reproducible.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import json
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .cloud import DRIFT_BIAS, DRIFT_NOISE, CloudSession, Policy, make_model, make_policy
from .edge import EdgeSession, Outcome, StepRecord
from .environments import EnvironmentSpec, is_success, start_state, true_step
from .transport import VirtualChannel, one_way_latency
from .types import ConfigError, SpoConfig, StateVector, WeightMatrix, read_text, validate_config


class CalibrationError(RuntimeError):
    """Calibration rollout produced no usable per-dimension variance."""


class BaselineKind(enum.Enum):
    BLOCKING = "blocking"
    T1SC = "t1sc"
    NFTC = "nftc"
    SPO = "spo"


# Fixed speculative depth per baseline; None = adaptive.
FIXED_HORIZON = {
    BaselineKind.BLOCKING: 0,
    BaselineKind.T1SC: 1,
    BaselineKind.NFTC: 10,
    BaselineKind.SPO: None,
}

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
            deltas.append(nxt.values - s.values)
            s = nxt
            if is_success(clean, s):
                break
    var = np.var(np.asarray(deltas), axis=0)
    degenerate = np.flatnonzero(var < VARIANCE_FLOOR)
    if degenerate.size == var.size:
        raise CalibrationError(
            f"all state dimensions constant during calibration: {degenerate.tolist()}"
        )
    if degenerate.size:
        warnings.warn(
            f"calibration: constant dimensions {degenerate.tolist()} clamped to "
            f"weight cap {WEIGHT_CAP:g}",
            stacklevel=2,
        )
    weights = np.where(var < VARIANCE_FLOOR, WEIGHT_CAP, 1.0 / np.maximum(var, VARIANCE_FLOOR))
    return WeightMatrix(np.minimum(weights, WEIGHT_CAP))


def episode_seeds(cfg: SpoConfig, seed: int):
    """Start rng, channel rng and drift seed of episode ``seed``: the one rule of both modes."""
    start, channel, drift = np.random.SeedSequence([cfg.rng_seed, seed]).spawn(3)
    drift_seed = int(drift.generate_state(1)[0])
    return np.random.default_rng(start), np.random.default_rng(channel), drift_seed


class VirtualLink:
    """The in-process cloud behind a :class:`VirtualChannel`, as a link of :func:`run_episode`.

    A link has ``wait``, ``due``, ``send``, ``dead``, ``horizons`` and ``generated``.
    """

    dead = False

    def __init__(self, cloud: CloudSession, channel: VirtualChannel):
        self.cloud = cloud
        self.channel = channel
        self.horizons: list[int] = []
        self.generated = 0

    def wait(self, now: float) -> None:
        pass

    def due(self, now: float) -> list:
        # Requests due at the cloud: respond from the arrival instant, not the
        # next edge tick, so the response leg is not tick-quantized.
        for arrived_at, (rid, req) in self.channel.cloud_inbox_timed(now):
            resp = self.cloud.handle(req)
            self.horizons.append(resp.horizon_used)
            self.generated += len(resp.tuples)
            self.channel.send_response((rid, resp), now=arrived_at)
        return self.channel.edge_inbox(now)

    def send(self, refill, now: float) -> None:
        self.channel.send_request((refill.request_id, refill.request), now)


def run_single(
    kind: BaselineKind,
    spec: EnvironmentSpec,
    cfg: SpoConfig,
    seed: int,
    weights: WeightMatrix,
    model_kind: str = "oracle",
    drift_bias: float = DRIFT_BIAS,
    drift_noise: float = DRIFT_NOISE,
) -> RunResult:
    """One deterministic virtual-clock episode."""
    validate_config(cfg)
    start_rng, channel_rng, drift_seed = episode_seeds(cfg, seed)
    policy = make_policy(spec)
    model = make_model(
        spec, model_kind, drift_bias=drift_bias, drift_noise=drift_noise, seed=drift_seed
    )
    cloud = CloudSession(cfg, policy, model, fixed_horizon=FIXED_HORIZON[kind])
    channel = VirtualChannel(one_way_latency(cfg.rtt_base, cfg.jitter_half_width, channel_rng))
    return run_episode(
        kind, spec, cfg, seed, weights, VirtualLink(cloud, channel), start_state(spec, start_rng)
    )


def run_episode(
    kind: BaselineKind, spec: EnvironmentSpec, cfg: SpoConfig, seed: int,
    weights: WeightMatrix, link, start: StateVector,
) -> RunResult:
    """The control loop of both modes; ``link`` hides the clock and the transport."""
    if spec.dt != cfg.control_interval:  # else the clock and the physics run apart
        raise ConfigError([f"control_interval {cfg.control_interval} != {spec.name} dt {spec.dt}"])
    edge = EdgeSession(cfg, weights, spec.d_a, blocking=(kind is BaselineKind.BLOCKING))
    state = start
    records: list[StepRecord] = []
    success = False
    diagnostic = None

    for tick in range(spec.max_steps):
        now = tick * cfg.control_interval
        link.wait(now)
        for rid, resp in link.due(now):
            edge.install_response(rid, resp)
        rec, refill = edge.edge_tick(state, tick, now)
        records.append(rec)
        if refill is not None:
            link.send(refill, now)
        try:
            state = true_step(spec, state, rec.action_executed, tick)
        except ValueError as exc:
            diagnostic = f"environment diverged at tick {tick}: {exc}"
            break
        if is_success(spec, state):
            success = True
            break
        if link.dead and edge.in_flight_id is not None:
            diagnostic = "connection lost while awaiting refill"
            break

    # One copy: a socket link's reader thread may still be appending.
    horizons = list(link.horizons)
    metrics = compile_metrics(
        kind, spec, cfg, seed, records, horizons, link.generated, len(edge.cache),
        success, diagnostic,
    )
    return RunResult(metrics=metrics, records=records, horizons=horizons)


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
    counts = {outcome: 0 for outcome in Outcome}
    for rec in records:
        counts[rec.outcome] += 1
    hits = counts[Outcome.HIT]
    misses = counts[Outcome.MISS]
    holds = counts[Outcome.STARVED_HOLD]
    awaiting = counts[Outcome.AWAITING_REFILL]
    direct = counts[Outcome.DIRECT]
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
    model_kind: str = "oracle",
    drift_bias: float = DRIFT_BIAS,
    drift_noise: float = DRIFT_NOISE,
    *,
    weights: WeightMatrix,
    jobs: int = 1,
) -> list[RunMetrics]:
    """One RunMetrics per seed; seeds may run in parallel, merged by seed order."""

    def one(seed: int) -> RunMetrics:
        return run_single(
            kind, spec, cfg, seed, weights,
            model_kind=model_kind, drift_bias=drift_bias, drift_noise=drift_noise,
        ).metrics

    if jobs <= 1 or len(seeds) <= 1:
        return [one(s) for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        results = dict(zip(seeds, pool.map(one, seeds)))
    return [results[s] for s in seeds]


@dataclass
class ComparisonReport:
    rows: list[RunMetrics]
    aggregate: dict
    idle_reduction_vs_blocking_pct: dict
    wasted_reduction_vs_nftc_pct: dict

    def to_text(self) -> str:
        lines = [f"{'kind':<10}{'idle_s':>14}{'hit_rate':>12}{'mean_k':>10}{'wasted':>12}"]
        for kind, agg in self.aggregate.items():
            lines.append(
                f"{kind:<10}{agg['idle_mean']:>9.3f}±{agg['idle_std']:<4.3f}"
                f"{agg['hit_rate_mean']:>12.3f}{agg['mean_k_mean']:>10.2f}"
                f"{agg['wasted_mean']:>12.1f}"
            )
        for kind, pct in self.idle_reduction_vs_blocking_pct.items():
            lines.append(f"idle reduction vs blocking [{kind}]: {pct:.1f}%")
        for kind, pct in self.wasted_reduction_vs_nftc_pct.items():
            lines.append(f"wasted reduction vs nftc [{kind}]: {pct:.1f}%")
        return "\n".join(lines)


def _reduction_pct(baseline: float, value: float) -> float:
    if baseline == 0:
        return 0.0
    return 100.0 * (1.0 - value / baseline)


def compare_report(results: dict[BaselineKind, list[RunMetrics]]) -> ComparisonReport:
    """Aggregate per-kind metrics and relative reductions across a shared seed set."""
    seed_sets = {kind: tuple(m.seed for m in ms) for kind, ms in results.items()}
    if len(set(seed_sets.values())) > 1:
        raise ValueError(f"mismatched seed sets across kinds: {seed_sets}")
    aggregate = {}
    for kind, ms in results.items():
        idle = np.array([m.idle_time for m in ms])
        aggregate[kind.value] = {
            "idle_mean": float(np.mean(idle)),
            "idle_std": float(np.std(idle, ddof=1)) if len(ms) > 1 else 0.0,
            "hit_rate_mean": float(np.mean([m.hit_rate for m in ms])),
            "mean_k_mean": float(np.mean([m.mean_horizon for m in ms])),
            "wasted_mean": float(np.mean([m.wasted_predictions for m in ms])),
            "success_rate": float(np.mean([m.success for m in ms])),
        }
    idle_red = {}
    if BaselineKind.BLOCKING in results:
        base = aggregate[BaselineKind.BLOCKING.value]["idle_mean"]
        for kind in results:
            if kind is not BaselineKind.BLOCKING:
                idle_red[kind.value] = _reduction_pct(base, aggregate[kind.value]["idle_mean"])
    wasted_red = {}
    if BaselineKind.NFTC in results:
        base = aggregate[BaselineKind.NFTC.value]["wasted_mean"]
        for kind in results:
            if kind is not BaselineKind.NFTC:
                wasted_red[kind.value] = _reduction_pct(base, aggregate[kind.value]["wasted_mean"])
    rows = [m for ms in results.values() for m in ms]
    rows.sort(key=lambda m: (m.kind, m.seed))
    return ComparisonReport(rows, aggregate, idle_red, wasted_red)


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


def write_metrics_csv(path, rows: list[RunMetrics]) -> None:
    lines = [CSV_HEADER] + [metrics_csv_line(m) for m in rows]
    write_atomic(path, "\n".join(lines) + "\n")


def run_json_document(m: RunMetrics, cfg: SpoConfig, extra: dict | None = None) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": dataclasses.asdict(cfg),
        "metrics": dataclasses.asdict(m),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_run_json(path, m: RunMetrics, cfg: SpoConfig, extra: dict | None = None) -> None:
    write_atomic(path, run_json_document(m, cfg, extra))


def save_weights(path, weights: WeightMatrix) -> None:
    lines = ["# inverse-variance weights, one per state dimension"]
    lines += [repr(float(w)) for w in weights.inverse_variances]
    write_atomic(path, "\n".join(lines) + "\n")


def load_weights(path) -> WeightMatrix:
    """Read a weights file, one number per line; any fault in it is a :class:`ConfigError`."""
    values = []
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ConfigError([f"{path}:{lineno}: expected a number, got {raw!r}"]) from None
    try:
        return WeightMatrix(np.asarray(values))
    except ValueError as exc:
        raise ConfigError([f"{path}: {exc}"]) from None
