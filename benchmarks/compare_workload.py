"""The ``compare`` workload: the episodes of ``spo compare --model drifted
--seed S --seeds N`` on every canonical environment, on the virtual clock.

One pass runs all four kinds over the seeds ``S .. S+N-1`` on each
environment, one timed ``harness.run_single`` call per episode, then one
timed ``harness.compare_report`` per environment. Passes repeat with the same
inputs until the run's time is used. Each call's time is scaled to the
reference host speed (``hostspeed``), and a call counts with its median
scaled time over the passes.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

import checks
import hostspeed
import tracing
from metrics import Result, median, per_call_us, weighted_quantile

from spo import harness
from spo.environments import canonical_specs
from spo.harness import BaselineKind
from spo.types import SpoConfig, validate_config

SEEDS_PER_ENV = 8
# The CLI's default drift for ``--model drifted``.
DRIFT = {"model_kind": "drifted", "drift_bias": 8e-4, "drift_noise": 2e-4}
SPECULATIVE = ("spo", "nftc")
SETUP_SAMPLES = 7
HERE = os.path.dirname(os.path.abspath(__file__))


def measure_setup(seed: int, scaler: hostspeed.Scaler) -> list[float]:
    """Fresh-interpreter import plus calibration of every canonical env, timed
    from spawn to exit and scaled to the reference host speed."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), str(seed)],
            check=True, timeout=120, stdin=subprocess.DEVNULL,
        )
        samples.append(scaler.scale(time.perf_counter() - t0))
    return samples


class Compare:
    def __init__(self, seed: int, scaler: hostspeed.Scaler):
        self.scaler = scaler
        self.cfg = validate_config(SpoConfig(rng_seed=seed))
        self.seeds = list(range(seed, seed + SEEDS_PER_ENV))
        self.specs = canonical_specs()
        t0 = time.perf_counter()
        self.weights = {
            name: harness.calibrate_weights(spec, seed=self.cfg.rng_seed)
            for name, spec in self.specs.items()
        }
        self.calibrate_s = time.perf_counter() - t0
        self.first_digest: str | None = None

    def one_pass(self) -> dict:
        """Run every episode once; return timings, check failures and SPO rows."""
        cfg, scale = self.cfg, self.scaler.scale
        episodes = []  # (kind, ticks, scaled seconds)
        raw_s = 0.0
        failures = []
        attempted = 0
        reports = []  # seconds per environment
        rows = {}
        digest = hashlib.sha256()
        for env, spec in self.specs.items():
            results = {}
            for kind in BaselineKind:
                results[kind] = []
                for seed in self.seeds:
                    t0 = time.perf_counter()
                    run = harness.run_single(kind, spec, cfg, seed, self.weights[env], **DRIFT)
                    elapsed = time.perf_counter() - t0
                    raw_s += elapsed
                    m = run.metrics
                    episodes.append((kind.value, m.steps_taken, scale(elapsed)))
                    results[kind].append(m)
                    attempted += 1
                    errors = checks.episode_errors(
                        m, cfg.control_interval, cfg.epsilon_base, run.records
                    )
                    if errors:
                        failures.append("; ".join(errors[:3]))
            t0 = time.perf_counter()
            report = harness.compare_report(results)
            elapsed = time.perf_counter() - t0
            raw_s += elapsed
            reports.append(scale(elapsed))
            attempted += 1
            errors = checks.claim_errors(env, {k.value: v for k, v in results.items()})
            if errors:
                failures.append("; ".join(errors))
            for m in report.rows:
                digest.update(f"{env},{harness.metrics_csv_line(m)}\n".encode())
            for kind, ms in results.items():
                rows.setdefault(kind.value, []).extend(ms)
        digest = digest.hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        else:
            attempted += 1
            if digest != self.first_digest:
                failures.append(f"compare rows digest {digest} != first pass {self.first_digest}")
        return {
            "episodes": episodes, "reports": reports, "raw_s": raw_s,
            "failures": failures, "attempted": attempted, "rows": rows,
        }


def median_of(passes: list[dict]) -> dict:
    """Per call, its median scaled time over the passes: ``episodes`` as
    (kind, ticks, seconds), and ``seconds`` for the whole pass."""
    episodes = [
        (kind, ticks, median(p["episodes"][i][2] for p in passes))
        for i, (kind, ticks, _) in enumerate(passes[0]["episodes"])
    ]
    reports = [median(times) for times in zip(*(p["reports"] for p in passes))]
    return {"episodes": episodes, "seconds": sum(e[2] for e in episodes) + sum(reports)}


def tick_us(episodes, kinds) -> float:
    sel = [e for e in episodes if e[0] in kinds]
    return 1e6 * sum(e[2] for e in sel) / sum(e[1] for e in sel)


def _passes(work: Compare, deadline: float) -> list[dict]:
    """At least one pass; another only if it should end before ``deadline``."""
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(work.one_pass())
        if 2 * time.perf_counter() - t0 > deadline:
            return passes


def _jobs_ratio(work: Compare) -> float:
    """Wall time of ``run_experiment`` at ``jobs`` = nproc over ``jobs`` = 1, on one env."""
    spec = work.specs["free_space"]
    args = (BaselineKind.SPO, spec, work.cfg, work.seeds)
    kwargs = dict(DRIFT, weights=work.weights["free_space"])
    walls = {}
    for jobs in (1, os.cpu_count() or 1):
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            harness.run_experiment(*args, jobs=jobs, **kwargs)
            samples.append(time.perf_counter() - t0)
        walls[jobs] = median(samples)
    return walls[os.cpu_count() or 1] / walls[1]


def run(seed: int, seconds: float, trace: bool) -> Result:
    cpus = hostspeed.pin_to_one_cpu()
    scaler = hostspeed.Scaler()
    setup = measure_setup(seed, scaler)
    work = Compare(seed, scaler)
    start = time.perf_counter()
    if not trace:
        passes = _passes(work, start + seconds)
        return _result(work, setup, passes, passes)

    os.sched_setaffinity(0, cpus)
    jobs_ratio = _jobs_ratio(work)
    hostspeed.pin_to_one_cpu()
    untraced = _passes(work, start + seconds / 2)
    # One traced pass: a pass records about two million spans.
    tracer = tracing.Tracer()
    probe = tracing.install_layer_wrappers(tracer)
    try:
        traced = work.one_pass()
    finally:
        tracer.restore()
    result = _result(work, setup, untraced, untraced + [traced])
    spans = tracer.spans()
    del tracer
    tracing.save_spans(os.path.join(tracing.TRACE_DIR, "compare.npz"), spans)
    result.metrics = _layer_metrics(work, untraced, traced, tracing.span_stats(spans), probe)
    result.metrics["harness.run_experiment.jobs_ratio"] = jobs_ratio
    return result


def _result(work: Compare, setup: list[float], timed: list[dict], checked: list[dict]) -> Result:
    typical = median_of(timed)
    episodes = typical["episodes"]
    per_tick = [(1e6 * e[2] / e[1], e[1]) for e in episodes]
    spo = checks.pooled(timed[0]["rows"]["spo"])
    metrics = {
        "setup_s": median(setup),
        "pass_s": typical["seconds"],
        "op_us_p50": weighted_quantile(per_tick, 0.50),
        # A tick's time is its episode's mean, so the tail percentile is the
        # highest one with about ten episodes beyond it.
        "op_us_tail": weighted_quantile(per_tick, 0.90),
    }
    metrics.update({f"spo.{k}": v for k, v in spo.items()})
    failures = [f for p in checked for f in p["failures"]]
    info = {
        "passes": len(timed),
        "episodes_per_pass": len(timed[0]["episodes"]),
        "ticks_per_pass": sum(e[1] for e in timed[0]["episodes"]),
        "pass_s_unscaled_median": median(p["raw_s"] for p in timed),
        "host_speed": work.scaler.speed(),
        "compare_rows_sha256": work.first_digest,
        "tick_us.speculative": tick_us(episodes, SPECULATIVE),
        "tick_us.baseline": tick_us(episodes, ("blocking", "t1sc")),
        "setup_samples_s": setup,
    }
    return Result(metrics, sum(p["attempted"] for p in checked), failures, info)


def _layer_metrics(work, untraced, traced, stats, probe) -> dict[str, float]:
    """Per-layer metrics of the one traced pass; times per call or per tick."""
    rows = [m for ms in traced["rows"].values() for m in ms]
    ticks = sum(m.steps_taken for m in rows)
    typical = median_of(untraced)
    sessions = probe.edge_sessions.values()

    def calls(name):
        return stats.get(name, {"calls": 0})["calls"]

    def self_us(name, per):
        return stats[name]["self_ns"] / 1e3 / per if per else 0.0

    generated = sum(m.generated_predictions for m in rows)
    return {
        "types.vectors_built": calls("types.vector_build"),
        "types.vector_build.self_s": stats["types.vector_build"]["self_ns"] / 1e9,
        "cloud.handle.calls": calls("cloud.handle"),
        "cloud.handle.us_per_call": per_call_us(stats, "cloud.handle"),
        "cloud.policy_act.us_per_call": per_call_us(stats, "cloud.policy_act"),
        "cloud.model_step.us_per_call": per_call_us(stats, "cloud.model_step"),
        "cloud.tuples_generated": probe.tuples_generated,
        "cloud.tuple_yield": sum(m.hits + m.direct for m in rows) / generated,
        "ahs.update_horizon.calls": calls("ahs.update_horizon"),
        "ahs.contractions": probe.contractions,
        "ahs.mean_horizon": sum(probe.horizons) / max(1, len(probe.horizons)),
        "edge.edge_tick.calls": calls("edge.edge_tick"),
        "edge.edge_tick.self_us_per_call": self_us("edge.edge_tick", stats["edge.edge_tick"]["calls"]),
        "edge.install_response.us_per_call": per_call_us(stats, "edge.install_response"),
        "edge.hits": sum(m.hits for m in rows),
        "edge.misses": sum(m.misses for m in rows),
        "edge.hold_ticks": sum(m.holds + m.awaiting for m in rows),
        "edge.flushed": sum(e.flushed for e in sessions),
        "edge.stale_dropped": sum(e.stale_dropped for e in sessions),
        "edge.superseded_dropped": sum(e.superseded_dropped for e in sessions),
        "verifier.verify.calls": calls("verifier.verify"),
        "verifier.verify.us_per_call": per_call_us(stats, "verifier.verify"),
        "environments.true_step.us_per_call": per_call_us(stats, "environments.true_step"),
        "environments.is_success.us_per_call": per_call_us(stats, "environments.is_success"),
        "transport.virtual.us_per_tick": stats["transport.virtual"]["total_ns"] / 1e3 / ticks,
        "harness.calibrate_weights.s": work.calibrate_s,
        "harness.run_single.self_us_per_tick": self_us("harness.run_single", ticks),
        "harness.compile_metrics.us_per_call": per_call_us(stats, "harness.compile_metrics"),
        "harness.compare_report.ms": per_call_us(stats, "harness.compare_report") / 1e3,
        "tick_us.speculative": tick_us(typical["episodes"], SPECULATIVE),
        "tick_us.baseline": tick_us(typical["episodes"], ("blocking", "t1sc")),
        "trace.overhead_ratio": median_of([traced])["seconds"] / median_of(untraced[-1:])["seconds"],
    }
