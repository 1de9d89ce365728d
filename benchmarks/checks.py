"""Output checks. Each returns a list of violations; an empty list means the
output is correct. The benchmark counts an operation with any violation as
failed.
"""

from __future__ import annotations

from spo.edge import Outcome

IDLE_OUTCOMES = (Outcome.MISS, Outcome.STARVED_HOLD, Outcome.AWAITING_REFILL)


def episode_errors(m, control_interval: float, epsilon_base: float, records=None) -> list[str]:
    """Accounting identities of one episode's ``RunMetrics``, plus the safety
    invariant over its ``StepRecord`` trace when ``records`` is given."""
    tag = f"{m.env}/{m.kind}/seed {m.seed}"
    errors = []
    ticks = m.hits + m.misses + m.holds + m.awaiting + m.direct
    if ticks != m.steps_taken:
        errors.append(f"{tag}: hits+misses+holds+awaiting+direct = {ticks} != steps {m.steps_taken}")
    idle = (m.holds + m.misses + m.awaiting) * control_interval
    if m.idle_time != idle:
        errors.append(f"{tag}: idle_time {m.idle_time!r} != (holds+misses+awaiting) x dt {idle!r}")
    if not 0 <= m.wasted_predictions <= m.generated_predictions:
        errors.append(
            f"{tag}: wasted {m.wasted_predictions} outside [0, generated {m.generated_predictions}]"
        )
    if m.diagnostic is not None:
        errors.append(f"{tag}: diagnostic {m.diagnostic!r}")
    for rec in records or ():
        if rec.outcome in IDLE_OUTCOMES and not rec.action_executed.is_zero():
            errors.append(f"{tag}: tick {rec.step_index} {rec.outcome.value} executed a nonzero action")
        if rec.outcome is Outcome.HIT and not rec.error <= epsilon_base:
            errors.append(f"{tag}: tick {rec.step_index} HIT with error {rec.error!r} > {epsilon_base!r}")
    return errors


def pooled(rows) -> dict[str, float]:
    """Pooled ratios over a list of ``RunMetrics`` of one kind."""
    steps = sum(m.steps_taken for m in rows)
    idle = sum(m.holds + m.misses + m.awaiting for m in rows)
    hits = sum(m.hits for m in rows)
    verified = sum(m.hits + m.misses + m.holds for m in rows)
    generated = sum(m.generated_predictions for m in rows)
    return {
        "idle_frac": idle / steps,
        "hit_rate": hits / max(1, verified),
        "wasted_frac": sum(m.wasted_predictions for m in rows) / max(1, generated),
        "success_rate": sum(m.success for m in rows) / len(rows),
    }


def claim_errors(env: str, results: dict) -> list[str]:
    """The paper's claims on one environment, from ``{kind value: [RunMetrics]}``:
    SPO idles less than blocking, and wastes less than NFTC."""
    spo, blocking, nftc = results["spo"], results["blocking"], results["nftc"]
    errors = []
    spo_idle, blocking_idle = pooled(spo)["idle_frac"], pooled(blocking)["idle_frac"]
    if not spo_idle < blocking_idle:
        errors.append(f"{env}: SPO idle fraction {spo_idle:.4f} >= blocking {blocking_idle:.4f}")
    spo_wasted = sum(m.wasted_predictions for m in spo)
    nftc_wasted = sum(m.wasted_predictions for m in nftc)
    if not spo_wasted < nftc_wasted:
        errors.append(f"{env}: SPO wasted {spo_wasted} >= NFTC wasted {nftc_wasted}")
    return errors


def response_errors(
    request_id: int, step_index: int, decoded, blocking: bool, k_min: int, k_max: int
) -> list[str]:
    """One decoded refill response ``(request_id, RolloutResponse)`` against
    the request it answers."""
    rid, resp = decoded
    errors = []
    if rid != request_id:
        errors.append(f"request {request_id}: response carries id {rid}")
    count = len(resp.tuples)
    if blocking and count != 1:
        errors.append(f"request {request_id}: blocking response has {count} tuples, not 1")
    if not blocking and not k_min <= count <= k_max:
        errors.append(f"request {request_id}: {count} tuples outside [{k_min}, {k_max}]")
    indices = [t.step_index for t in resp.tuples]
    expected = list(range(step_index + 1, step_index + 1 + count))
    if indices != expected:
        errors.append(f"request {request_id}: step indices {indices} != {expected}")
    return errors
