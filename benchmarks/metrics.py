"""Metric names, units and the statistics the workloads report.

``END_TO_END`` and ``PER_LAYER`` must list the same names and units as
``BENCHMARK.json`` (a test checks this).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_us_p50": "us",
    "op_us_tail": "us",
    "spo.idle_frac": "ratio",
    "spo.hit_rate": "ratio",
    "spo.wasted_frac": "ratio",
    "spo.success_rate": "ratio",
}

PER_LAYER = {
    "types.vectors_built": "count",
    "types.vector_build.self_s": "s",
    "cloud.handle.calls": "count",
    "cloud.handle.us_per_call": "us",
    "cloud.policy_act.us_per_call": "us",
    "cloud.model_step.us_per_call": "us",
    "cloud.tuples_generated": "count",
    "cloud.tuple_yield": "ratio",
    "ahs.update_horizon.calls": "count",
    "ahs.contractions": "count",
    "ahs.mean_horizon": "tuples",
    "edge.edge_tick.calls": "count",
    "edge.edge_tick.self_us_per_call": "us",
    "edge.install_response.us_per_call": "us",
    "edge.hits": "count",
    "edge.misses": "count",
    "edge.hold_ticks": "count",
    "edge.flushed": "count",
    "edge.stale_dropped": "count",
    "edge.superseded_dropped": "count",
    "verifier.verify.calls": "count",
    "verifier.verify.us_per_call": "us",
    "environments.true_step.us_per_call": "us",
    "environments.is_success.us_per_call": "us",
    "transport.virtual.us_per_tick": "us",
    "transport.encode_request.us_per_call": "us",
    "transport.decode_response.us_per_call": "us",
    "transport.decode_response.ns_per_tuple": "ns",
    "transport.response_bytes_mean": "bytes",
    "transport.decode_request.us_per_call": "us",
    "transport.encode_response.us_per_call": "us",
    "sockets.service_us_p50": "us",
    "sockets.overhead_us_p50": "us",
    "sockets.delay_shim_us_per_request": "us",
    "harness.calibrate_weights.s": "s",
    "harness.run_single.self_us_per_tick": "us",
    "harness.compile_metrics.us_per_call": "us",
    "harness.compare_report.ms": "ms",
    "harness.run_experiment.jobs_ratio": "ratio",
    "tick_us.speculative": "us",
    "tick_us.baseline": "us",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Result:
    """What one workload run measured and how many of its operations failed."""

    metrics: dict[str, float]
    attempted: int
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (``statistics.quantiles`` inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def weighted_quantile(pairs, q: float) -> float:
    """Quantile of ``(value, weight)`` pairs: the value at which the cumulative
    weight first reaches ``q`` of the total."""
    ordered = sorted(pairs)
    total = sum(w for _, w in ordered)
    cumulative = 0.0
    for value, weight in ordered:
        cumulative += weight
        if cumulative >= q * total:
            return float(value)
    return float(ordered[-1][0])


def median(values) -> float:
    return float(statistics.median(values))


def per_call_us(stats: dict, name: str) -> float:
    s = stats.get(name)
    return s["total_ns"] / s["calls"] / 1e3 if s and s["calls"] else 0.0
