"""Edge control loop: cache, verification, holds, flush, refill bookkeeping."""

import numpy as np
import pytest

from spo.cloud import RolloutResponse
from spo.edge import EdgeSession, Outcome
from spo.types import (
    ActionVector,
    DimensionError,
    SpeculativeTuple,
    SpoConfig,
    StateVector,
    WeightMatrix,
)

D = 3


def _tuple(predicted, step, action=None):
    act = ActionVector(np.full(D, 0.5) if action is None else action)
    return SpeculativeTuple(StateVector(predicted), act, step)


def _session(blocking=False, **cfg_kwargs):
    cfg = SpoConfig(**cfg_kwargs)
    return EdgeSession(cfg, WeightMatrix(np.ones(D)), d_a=D, blocking=blocking)


def _install(edge, tuples, observed=None):
    """Issue a starvation request and install `tuples` as its response."""
    observed = StateVector(np.zeros(D)) if observed is None else observed
    rec, refill = edge.edge_tick(observed, 0)
    assert refill is not None
    rid, _ = refill
    edge.install_response(rid, RolloutResponse(tuple(tuples), len(tuples)))


def test_hit_executes_cached_action_without_request():
    edge = _session()
    observed = StateVector([0.1, 0.2, 0.3])
    _install(edge, [_tuple(observed.values, 1)])
    rec, refill = edge.edge_tick(observed, 1)
    assert rec.outcome is Outcome.HIT
    assert rec.error == 0.0
    assert rec.action_executed == ActionVector(np.full(D, 0.5))
    assert refill is None  # the next request waits for starvation
    assert len(edge.cache) == 0
    assert edge.progress == 1


def test_miss_flushes_and_requests_with_violation_error():
    edge = _session()
    _install(edge, [_tuple([25.0, 0.0, 0.0], 1), _tuple([25.0, 0.0, 0.0], 2)])
    observed = StateVector(np.zeros(D))
    rec, refill = edge.edge_tick(observed, 1)
    assert rec.outcome is Outcome.MISS
    assert rec.error == 25.0
    assert rec.action_executed.is_zero()
    assert len(edge.cache) == 0  # flushed atomically
    assert edge.flushed == 2  # the missed tuple plus the remainder
    assert refill is not None
    _, req = refill
    assert req.violation_error == 25.0
    assert edge.progress == 0  # a missed step is not progress


def test_starved_hold_issues_request_once():
    edge = _session()
    observed = StateVector(np.zeros(D))
    rec1, refill1 = edge.edge_tick(observed, 0)
    assert rec1.outcome is Outcome.STARVED_HOLD
    assert rec1.action_executed.is_zero()
    assert refill1 is not None
    rec2, refill2 = edge.edge_tick(observed, 1)
    assert rec2.outcome is Outcome.AWAITING_REFILL
    assert rec2.action_executed.is_zero()
    assert refill2 is None  # at most one request in flight


def test_request_ids_increase_monotonically():
    edge = _session()
    observed = StateVector(np.zeros(D))
    _, (rid1, _) = edge.edge_tick(observed, 0)
    edge.install_response(rid1, RolloutResponse((_tuple([25.0, 0, 0], 1),), 1))
    _, (rid2, _) = edge.edge_tick(observed, 1)  # miss -> new request
    assert rid2 > rid1


def test_install_fresh_response_installs_all():
    edge = _session()
    _install(edge, [_tuple(np.zeros(D), s) for s in range(1, 6)])
    assert edge.stale_dropped == 0
    assert edge.superseded_dropped == 0
    assert len(edge.cache) == 5


def test_install_drops_already_passed_steps():
    edge = _session()
    edge.progress = 13
    observed = StateVector(np.zeros(D))
    _, refill = edge.edge_tick(observed, 0)
    rid, _ = refill
    edge.install_response(
        rid,
        RolloutResponse(tuple(_tuple(np.zeros(D), s) for s in range(11, 16)), 5),
    )
    assert len(edge.cache) == 2  # steps 14, 15
    assert edge.stale_dropped == 3


def test_superseded_response_fully_discarded():
    edge = _session()
    observed = StateVector(np.zeros(D))
    _, (old_rid, _) = edge.edge_tick(observed, 0)
    # The old response never arrived; the miss path would reissue. Simulate a
    # newer request by filling and missing.
    edge.install_response(old_rid, RolloutResponse((_tuple([25.0, 0, 0], 1),), 1))
    _, (newer_rid, _) = edge.edge_tick(observed, 1)
    late = RolloutResponse(tuple(_tuple(np.zeros(D), s) for s in (1, 2, 3)), 3)
    edge.install_response(old_rid, late)
    assert edge.superseded_dropped == 3
    assert len(edge.cache) == 0
    # The in-flight marker still belongs to the newer request.
    assert edge.in_flight_id == newer_rid


def test_install_counts_every_reply_it_takes_and_each_horizon():
    """``generated`` counts a reply's tuples whether they are cached, stale or superseded;
    ``horizons`` gets its tuple count, or 0 for a blocking reply."""
    edge = _session()
    _install(edge, [_tuple(np.zeros(D), s) for s in (1, 2)])
    assert (edge.generated, edge.horizons, len(edge.cache)) == (2, [2], 2)
    edge.cache.clear()
    edge.progress = 4
    _install(edge, [_tuple(np.zeros(D), s) for s in (4, 5, 6)])  # step 4 is stale
    assert (edge.generated, edge.horizons, edge.stale_dropped) == (5, [2, 3], 1)
    edge.install_response(99, RolloutResponse((_tuple(np.zeros(D), 7),), 1))
    assert (edge.generated, edge.horizons, edge.superseded_dropped) == (6, [2, 3, 1], 1)
    blocking = _session(blocking=True)
    _install(blocking, [_tuple(np.zeros(D), 1)])
    assert (blocking.generated, blocking.horizons) == (1, [0])


def test_blocking_session_executes_direct_without_verification():
    edge = _session(blocking=True)
    # Prediction far outside any tube: blocking mode must not verify it.
    _install(edge, [_tuple([500.0, 0.0, 0.0], 1)])
    rec, refill = edge.edge_tick(StateVector(np.zeros(D)), 1)
    assert rec.outcome is Outcome.DIRECT
    assert rec.error is None
    assert not rec.action_executed.is_zero()
    assert edge.progress == 1


def test_dimension_mismatch_is_fatal():
    edge = _session()
    with pytest.raises(DimensionError, match=r"^observed dimension 4 != calibrated d_s 3$"):
        edge.edge_tick(StateVector(np.zeros(D + 1)), 0)


def test_conservation_of_outcomes_over_synthetic_run():
    """hits + misses + holds + awaiting (+ direct) equals total ticks."""
    edge = _session()
    rng = np.random.default_rng(5)
    counts = {o: 0 for o in Outcome}
    pending = None  # (request, arrival_tick)
    for tick in range(200):
        observed = StateVector(rng.normal(0.0, 0.1, D))
        if pending is not None and tick >= pending[1]:
            rid, base_step = pending[0]
            tuples = tuple(
                _tuple(rng.normal(0.0, 0.1, D), base_step + 1 + i) for i in range(4)
            )
            edge.install_response(rid, RolloutResponse(tuples, 4))
            pending = None
        rec, refill = edge.edge_tick(observed, tick)
        counts[rec.outcome] += 1
        if refill is not None:
            rid, req = refill
            pending = ((rid, req.step_index), tick + 4)
    assert sum(counts.values()) == 200
    assert counts[Outcome.HIT] > 0 and counts[Outcome.AWAITING_REFILL] > 0


def test_flush_atomicity_no_stale_source_executes_after_miss():
    edge = _session()
    observed = StateVector(np.zeros(D))
    # Install a batch where tuple 2 will miss.
    _install(edge, [
        _tuple(np.zeros(D), 1),
        _tuple([25.0, 0.0, 0.0], 2),
        _tuple(np.zeros(D), 3),
    ])
    rec1, _ = edge.edge_tick(observed, 1)
    assert rec1.outcome is Outcome.HIT
    rec2, refill = edge.edge_tick(observed, 2)
    assert rec2.outcome is Outcome.MISS
    old_source = rec2.source_request_id
    # Refill with a fresh batch; every executed tuple afterwards must come
    # from the newer request.
    rid, _ = refill
    edge.install_response(
        rid,
        RolloutResponse(tuple(_tuple(np.zeros(D), s) for s in (2, 3)), 2),
    )
    rec3, _ = edge.edge_tick(observed, 3)
    assert rec3.outcome is Outcome.HIT
    assert rec3.source_request_id > old_source
