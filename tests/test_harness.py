"""Harness: calibration, virtual-clock runs, metrics, comparison, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from spo import harness
from spo.edge import EdgeSession, Outcome
from spo.environments import (
    EnvironmentSpec,
    get_spec,
    is_success,
    start_state,
    true_step,
)
from spo.harness import (
    WEIGHT_CAP,
    BaselineKind,
    CalibrationError,
    calibrate_weights,
    compare_report,
    load_weights,
    metrics_csv_line,
    run_experiment,
    run_json_document,
    run_single,
    save_weights,
    write_atomic,
)
from spo.types import ActionVector, SpoConfig, StateVector, WeightMatrix

CFG = SpoConfig()  # Table-style defaults


class BangBangPolicy:
    """Deterministic +/-2 velocity toggled by position: delta variance exactly 4."""

    def __init__(self, d=1):
        self.d = d

    def act(self, state):
        v = 2.0 if state.values[0] < 1.0 else -2.0
        a = np.zeros(self.d)
        a[0] = v
        return ActionVector(a)


def test_calibration_variance_four_gives_weight_quarter():
    spec = EnvironmentSpec(name="bang", d_s=1, d_a=1, dt=1.0, max_steps=10)
    w = calibrate_weights(spec, policy=BangBangPolicy(), episodes=1, seed=0)
    # Deltas alternate +2, -2 -> variance 4 -> weight 1/4.
    assert w.inverse_variances[0] == pytest.approx(0.25, abs=1e-12)


def test_calibration_constant_dimension_clamped_with_warning():
    spec = EnvironmentSpec(name="half", d_s=2, d_a=2, dt=1.0, max_steps=10)
    with pytest.warns(UserWarning, match="constant dimensions"):
        w = calibrate_weights(spec, policy=BangBangPolicy(d=2), episodes=1, seed=0)
    assert w.inverse_variances[0] == pytest.approx(0.25, abs=1e-12)
    assert w.inverse_variances[1] == WEIGHT_CAP


def test_calibration_all_constant_fails():
    class FrozenPolicy:
        def act(self, state):
            return ActionVector(np.zeros(1))

    spec = EnvironmentSpec(name="frozen", d_s=1, d_a=1, max_steps=5)
    with pytest.raises(CalibrationError):
        calibrate_weights(spec, policy=FrozenPolicy(), episodes=1)


def test_calibration_matches_independent_replication():
    """Recompute the calibration rollout with an independent loop."""
    from spo.cloud import make_policy

    spec = get_spec("free_space")
    policy = make_policy(spec)
    w = calibrate_weights(spec, episodes=2, seed=7)

    rng = np.random.default_rng([7, 0xCA11])
    deltas = []
    for _ in range(2):
        s = start_state(spec, rng)
        for t in range(spec.max_steps):
            nxt = true_step(spec, s, policy.act(s), t)
            deltas.append(nxt.values - s.values)
            s = nxt
            if is_success(spec, s):
                break
    expected = 1.0 / np.var(np.asarray(deltas), axis=0)
    assert np.allclose(w.inverse_variances, expected, rtol=0, atol=1e-9)


def test_calibration_ignores_disturbance_schedule():
    clean = get_spec("multi_stage")
    w = calibrate_weights(clean, episodes=1, seed=3)
    # Disturbances happen at fixed ticks; a disturbance-free calibration must
    # give moderate weights (a contaminated one would crater the variance of
    # the bumped dimensions).
    assert np.all(w.inverse_variances < WEIGHT_CAP)


@pytest.fixture(scope="module")
def free_space_weights():
    return calibrate_weights(get_spec("free_space"), seed=CFG.rng_seed)


def test_spo_oracle_run_reaches_goal(free_space_weights):
    result = run_single(BaselineKind.SPO, get_spec("free_space"), CFG, 0, free_space_weights)
    m = result.metrics
    assert m.success
    assert m.misses == 0
    assert m.hits > 0
    assert m.diagnostic is None


def test_outcome_conservation_every_kind(free_space_weights):
    spec = get_spec("free_space")
    for kind in BaselineKind:
        m = run_single(kind, spec, CFG, 1, free_space_weights).metrics
        assert m.hits + m.misses + m.holds + m.awaiting + m.direct == m.steps_taken
        assert m.sim_wall_time == pytest.approx(m.steps_taken * CFG.control_interval)


def test_idle_time_formula_holds(free_space_weights):
    spec = get_spec("free_space")
    for kind in (BaselineKind.BLOCKING, BaselineKind.SPO):
        m = run_single(kind, spec, CFG, 2, free_space_weights).metrics
        assert m.idle_time == pytest.approx(
            (m.holds + m.misses + m.awaiting) * CFG.control_interval
        )


def test_blocking_schedule_closed_form(free_space_weights):
    """With zero jitter, Blocking follows an exact stop-and-wait schedule."""
    cfg = dataclasses.replace(CFG, jitter_half_width=0.0)
    spec = get_spec("free_space")
    m = run_single(BaselineKind.BLOCKING, spec, cfg, 0, free_space_weights).metrics
    # Request at tick t arrives back at t*dt + rtt; the first tick that can
    # execute it is t + ceil(rtt/dt); the next request goes out one tick later.
    period = math.ceil(cfg.rtt_base / cfg.control_interval) + 1
    first = math.ceil(cfg.rtt_base / cfg.control_interval)
    expected_direct = len(range(first, m.steps_taken, period))
    assert m.direct == expected_direct
    assert m.idle_time == pytest.approx((m.steps_taken - m.direct) * cfg.control_interval)
    assert m.hit_rate == 0.0
    assert m.mean_horizon == 0.0
    assert not m.success  # one action per 8 ticks cannot finish in max_steps


def test_wasted_prediction_accounting(free_space_weights):
    spec = get_spec("free_space")
    result = run_single(BaselineKind.NFTC, spec, CFG, 3, free_space_weights)
    m = result.metrics
    executed = m.hits + m.direct
    assert 0 <= m.wasted_predictions <= m.generated_predictions
    assert m.wasted_predictions >= m.generated_predictions - executed - 10  # cache tail bound
    assert m.generated_predictions == sum(result.horizons) or m.kind == "blocking"


def test_refills_are_stop_and_wait_and_wasted_is_flushed_plus_in_flight(monkeypatch):
    """Every install meets an empty cache and the request in flight, so nothing
    is dropped and wasted = flushed + (generated - installed tuples). Every
    message is sent on an empty channel, so each leg is delivered in send order."""
    sessions = []
    queued_at_send = []

    class RecordingChannel(harness.VirtualChannel):
        def send_request(self, item, now):
            queued_at_send.append(len(self.to_cloud) + len(self.to_edge))
            return super().send_request(item, now)

        def send_response(self, item, now):
            queued_at_send.append(len(self.to_cloud) + len(self.to_edge))
            return super().send_response(item, now)

    class Recording(EdgeSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.installs, self.installed = [], 0
            sessions.append(self)

        def install_response(self, request_id, resp):
            depth = len(self.cache)
            self.installs.append((depth, request_id == self.in_flight_id))
            super().install_response(request_id, resp)
            self.installed += len(self.cache) - depth

    monkeypatch.setattr(harness, "EdgeSession", Recording)
    monkeypatch.setattr(harness, "VirtualChannel", RecordingChannel)
    for env in ("free_space", "tight_tolerance", "multi_stage"):
        spec = get_spec(env)
        weights = calibrate_weights(spec, seed=0)
        for kind in BaselineKind:
            for seed in range(3):
                m = run_single(kind, spec, CFG, seed, weights, model_kind="drifted").metrics
                edge = sessions[-1]
                assert edge.installs and set(edge.installs) == {(0, True)}, (env, kind, seed)
                assert edge.stale_dropped == edge.superseded_dropped == 0
                in_flight = m.generated_predictions - edge.installed
                assert m.wasted_predictions == edge.flushed + in_flight, (env, kind, seed)
                assert queued_at_send and set(queued_at_send) == {0}, (env, kind, seed)
                queued_at_send.clear()


def _refill_waits(records):
    """Ticks from each refill's send to the first tick that acts on its response, by
    executing its first tuple or, if that leaves the tube, by missing it.

    Each MISS or STARVED_HOLD tick sends the next request id; a refill still in flight
    when the episode ends has no wait.
    """
    sent = [r.step_index for r in records if r.outcome in (Outcome.MISS, Outcome.STARVED_HOLD)]
    first_use = {}
    for r in records:
        if r.source_request_id is not None:
            first_use.setdefault(r.source_request_id, r.step_index)
    return [first_use[rid] - tick for rid, tick in enumerate(sent, start=1) if rid in first_use]


@pytest.mark.parametrize("rtt, jitter", [(0.15, 0.03), (0.06, 0.04), (0.15, 0.0), (0.0, 0.0)])
def test_stop_and_wait_refill_waits_lie_within_the_jittered_round_trip(rtt, jitter):
    """A response lands one jittered round trip after its request left; the edge
    executes from it on the first tick at or after that, and a request sent on a
    tick is answered no earlier than the next tick."""
    cfg = dataclasses.replace(CFG, rtt_base=rtt, jitter_half_width=jitter)
    dt = cfg.control_interval
    low = max(1, math.floor((rtt - jitter) / dt))
    high = math.ceil((rtt + jitter) / dt) + 1
    waits = []
    for env in ("free_space", "tight_tolerance", "multi_stage"):
        spec = get_spec(env)
        weights = calibrate_weights(spec, seed=0)
        for kind in BaselineKind:
            for seed in range(3):
                result = run_single(kind, spec, cfg, seed, weights, model_kind="drifted")
                waits += _refill_waits(result.records)
    assert waits
    assert low <= min(waits) and max(waits) <= high, (min(waits), max(waits), low, high)


def _idle_ticks_by_refill(records, steps_taken, cfg, seed):
    """Idle ticks as a sum over refills: a refill sent at tick i idles until the first tick j
    with j*dt >= (i*dt + up) + down, its legs redrawn in order, or until the episode ends."""
    dt = cfg.control_interval
    latency = harness.episode_seeds(cfg, seed)[1]
    total = 0
    for rec in records:
        if rec.outcome in (Outcome.MISS, Outcome.STARVED_HOLD):
            i = rec.step_index
            arrives = (i * dt + latency.sample()) + latency.sample()
            j = i + 1
            while j * dt < arrives:
                j += 1
            total += min(j, steps_taken) - i
    return total


def test_every_idle_tick_belongs_to_one_stop_and_wait_refill():
    for env in ("free_space", "tight_tolerance", "multi_stage"):
        spec = get_spec(env)
        weights = calibrate_weights(spec, seed=0)
        for kind in BaselineKind:
            for model in ("oracle", "drifted"):
                for seed in range(3):
                    result = run_single(kind, spec, CFG, seed, weights, model_kind=model)
                    m = result.metrics
                    idle = _idle_ticks_by_refill(result.records, m.steps_taken, CFG, seed)
                    assert m.holds + m.misses + m.awaiting == idle, (env, kind, model, seed)


class TickByTickChannel(harness.VirtualChannel):
    """Reports no next delivery, so ``run_episode`` steps every held tick."""

    def next_delivery(self):
        return -math.inf


def _fields(rec):
    """Every field of a record, the executed action as its bytes."""
    return (*dataclasses.astuple(dataclasses.replace(rec, action_executed=None)),
            rec.action_executed.values.tobytes())


def _assert_skipping_is_exact(monkeypatch, cfg, envs, models, seeds):
    """The event-driven loop writes what stepping every tick writes."""
    runs = {}
    for channel in (TickByTickChannel, harness.VirtualChannel):
        monkeypatch.setattr(harness, "VirtualChannel", channel)
        for env in envs:
            spec = get_spec(env)
            weights = calibrate_weights(spec, seed=0)
            for kind in BaselineKind:
                for model in models:
                    for seed in seeds:
                        result = run_single(kind, spec, cfg, seed, weights, model_kind=model)
                        runs.setdefault((env, kind, model, seed), []).append(result)
    for key, (stepped, skipped) in runs.items():
        assert list(map(_fields, skipped.records)) == list(map(_fields, stepped.records)), key
        assert skipped.horizons == stepped.horizons, key
        assert skipped.metrics == stepped.metrics, key


def test_skipping_held_ticks_changes_no_record_horizon_or_metric(monkeypatch):
    envs = ("free_space", "tight_tolerance", "multi_stage")
    # A sub-tick round trip: a request and its reply land inside one tick, and every
    # other tick has nothing due, so ``VirtualLink.due`` returns before the channel.
    sub_tick = dataclasses.replace(CFG, rtt_base=0.01, jitter_half_width=0.004)
    # No delay: the cloud answers on the send tick's instant and its reply is due on the
    # next tick, which must be stepped.
    instant = dataclasses.replace(CFG, rtt_base=0.0, jitter_half_width=0.0)
    for cfg in (CFG, sub_tick, instant):
        _assert_skipping_is_exact(monkeypatch, cfg, envs, ("oracle", "drifted"), range(3))


def test_skipping_stops_at_a_delivery_due_exactly_on_a_tick(monkeypatch):
    # Each 0.04 s leg ends exactly on a tick (2 x 0.02 s), where ``deliver_at <= now``.
    cfg = dataclasses.replace(CFG, rtt_base=0.08, jitter_half_width=0.0)
    _assert_skipping_is_exact(monkeypatch, cfg, ("free_space",), ("drifted",), (0,))


def _held_spec(**overrides):
    """A 2-d task whose every tick until the first refill arrives is held at the start."""
    goal = np.array([0.5, -0.5])
    fields = dict(
        name="held", d_s=2, d_a=2, max_steps=200, waypoints=(goal,), goal_center=goal,
        goal_radius=0.05, start=np.zeros(2),
    )
    return EnvironmentSpec(**{**fields, **overrides})


def test_a_disturbance_on_a_held_tick_ends_the_episode_on_that_tick():
    # Tick 0 starves and sends the first request, which reaches the cloud at
    # tick 3 at the earliest, so the skip from tick 1 must stop for tick 2.
    spec = _held_spec(disturbance_schedule=((2, np.array([0.5, -0.5])),))
    result = run_single(BaselineKind.SPO, spec, CFG, 0, WeightMatrix(np.ones(2)))
    assert result.metrics.success
    assert [r.outcome for r in result.records] == [Outcome.STARVED_HOLD] + [
        Outcome.AWAITING_REFILL
    ] * 2
    assert result.records[-1].step_index == 2


def test_max_steps_in_the_middle_of_a_wait_ends_on_a_held_tick():
    # The first request reaches the cloud at tick 3 at the earliest.
    spec = _held_spec(max_steps=2)
    result = run_single(BaselineKind.SPO, spec, CFG, 0, WeightMatrix(np.ones(2)))
    assert len(result.records) == result.metrics.steps_taken == 2
    assert result.records[-1].outcome is Outcome.AWAITING_REFILL
    assert not result.metrics.success


def test_a_virtual_edge_awaits_only_on_disturbance_ticks(monkeypatch):
    """The skip records every held tick but those it must stop at: the cloud answers a
    request on its arrival tick without an edge tick, so ``edge_tick`` itself returns
    ``AWAITING_REFILL`` only on a disturbance tick."""
    awaited = []
    edge_tick = EdgeSession.edge_tick

    def recording(self, observed, tick_index):
        rec, refill = edge_tick(self, observed, tick_index)
        if rec.outcome is Outcome.AWAITING_REFILL:
            awaited.append(tick_index)
        return rec, refill

    monkeypatch.setattr(EdgeSession, "edge_tick", recording)
    for env in ("free_space", "tight_tolerance", "multi_stage"):
        spec = get_spec(env)
        weights = calibrate_weights(spec, seed=0)
        disturbed = {t for t, _ in spec.disturbance_schedule}
        for kind in BaselineKind:
            for model in ("oracle", "drifted"):
                for seed in range(2):
                    m = run_single(kind, spec, CFG, seed, weights, model_kind=model).metrics
                    assert m.awaiting > 0, (env, kind, model, seed)
                    assert set(awaited) <= disturbed, (env, kind, model, seed, awaited)
                    awaited.clear()


@pytest.mark.parametrize("kind", list(BaselineKind))
def test_an_episode_that_starts_inside_the_goal_ends_at_tick_0(kind):
    spec = _held_spec(start=np.array([0.5, -0.5]))
    result = run_single(kind, spec, CFG, 0, WeightMatrix(np.ones(2)))
    assert [r.step_index for r in result.records] == [0]
    assert result.metrics.success and result.metrics.steps_taken == 1


def test_a_refill_tick_that_is_disturbed_is_stepped():
    # Tick 0 starves and sends a refill; its disturbance still moves the robot, into the goal.
    spec = _held_spec(disturbance_schedule=((0, np.array([0.5, -0.5])),))
    result = run_single(BaselineKind.SPO, spec, CFG, 0, WeightMatrix(np.ones(2)))
    assert [r.outcome for r in result.records] == [Outcome.STARVED_HOLD]
    assert result.metrics.success


def test_the_goal_is_checked_on_tick_0_and_then_only_when_the_state_moved(monkeypatch):
    """A held refill tick keeps a state that was checked when it last moved; only tick 0's
    start state has not been checked before."""
    calls = {"true_step": 0, "is_success": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    specs = {env: get_spec(env) for env in ("free_space", "tight_tolerance", "multi_stage")}
    weights = {env: calibrate_weights(spec, seed=0) for env, spec in specs.items()}
    monkeypatch.setattr(harness, "true_step", counting("true_step", true_step))
    monkeypatch.setattr(harness, "is_success", counting("is_success", is_success))
    for env, spec in specs.items():
        disturbed = {t for t, _ in spec.disturbance_schedule}
        for kind in BaselineKind:
            calls.update(true_step=0, is_success=0)
            result = run_single(kind, spec, CFG, 0, weights[env], model_kind="drifted")
            held = [r.step_index for r in result.records
                    if r.outcome in (Outcome.MISS, Outcome.STARVED_HOLD)
                    and r.step_index not in disturbed]
            assert len(held) > 1 and held[0] == 0, (env, kind)
            assert calls["is_success"] == calls["true_step"] + 1, (env, kind, calls)


def test_a_response_tick_polls_the_cloud_side_of_the_channel_at_most_once(monkeypatch):
    """Each refill's request is popped by one poll of the cloud side, and no tick
    polls the cloud side for nothing: every poll of an episode returns a request."""
    polls, delivered = [], []

    class CountingChannel(harness.VirtualChannel):
        def cloud_inbox_timed(self, now):
            due = super().cloud_inbox_timed(now)
            polls.append(len(due))
            return due

        def edge_inbox(self, now):
            due = super().edge_inbox(now)
            delivered.extend(due)
            return due

    monkeypatch.setattr(harness, "VirtualChannel", CountingChannel)
    instant = dataclasses.replace(CFG, rtt_base=0.0, jitter_half_width=0.0)
    for env in ("free_space", "tight_tolerance", "multi_stage"):
        spec = get_spec(env)
        weights = calibrate_weights(spec, seed=0)
        for cfg in (CFG, instant):
            for kind in BaselineKind:
                polls.clear()
                delivered.clear()
                result = run_single(kind, spec, cfg, 0, weights, model_kind="drifted")
                assert delivered, (env, kind)
                assert polls == [1] * len(result.horizons), (env, kind, cfg.rtt_base)


def test_a_tick_that_begins_with_an_empty_channel_makes_no_channel_call(monkeypatch):
    """``VirtualLink.due`` on an empty channel returns at once: it neither reads the next
    delivery time nor polls either side. A tick with a message in flight reads the channel."""
    calls = []
    calls_by_tick = {True: [], False: []}  # keyed by whether the tick began on an empty channel

    class CountingChannel(harness.VirtualChannel):
        def next_delivery(self):
            calls.append("next_delivery")
            return super().next_delivery()

        def cloud_inbox_timed(self, now):
            calls.append("cloud_inbox_timed")
            return super().cloud_inbox_timed(now)

        def edge_inbox(self, now):
            calls.append("edge_inbox")
            return super().edge_inbox(now)

    due = harness.VirtualLink.due

    def recording(self, now):
        empty = not (self.channel.to_cloud or self.channel.to_edge)
        before = len(calls)
        got = due(self, now)
        calls_by_tick[empty].append(len(calls) - before)
        return got

    monkeypatch.setattr(harness, "VirtualChannel", CountingChannel)
    monkeypatch.setattr(harness.VirtualLink, "due", recording)
    for env in ("free_space", "tight_tolerance", "multi_stage"):
        spec = get_spec(env)
        weights = calibrate_weights(spec, seed=0)
        for kind in BaselineKind:
            for model in ("oracle", "drifted"):
                run_single(kind, spec, CFG, 0, weights, model_kind=model)
                assert calls_by_tick[True] and set(calls_by_tick[True]) == {0}, (env, kind)
                assert calls_by_tick[False] and min(calls_by_tick[False]) >= 1, (env, kind)
                calls_by_tick[True].clear()
                calls_by_tick[False].clear()


def test_a_virtual_blocking_episode_skips_edge_ticks(free_space_weights, monkeypatch):
    calls = []
    edge_tick = EdgeSession.edge_tick

    def counting(self, observed, tick_index):
        calls.append(tick_index)
        return edge_tick(self, observed, tick_index)

    monkeypatch.setattr(EdgeSession, "edge_tick", counting)
    spec = get_spec("free_space")
    m = run_single(BaselineKind.BLOCKING, spec, CFG, 0, free_space_weights).metrics
    assert 0 < len(calls) < m.steps_taken


def test_mean_horizon_weighted_by_grant(free_space_weights):
    result = run_single(BaselineKind.SPO, get_spec("free_space"), CFG, 4, free_space_weights)
    hs = result.horizons
    expected = sum(h * h for h in hs) / sum(hs)
    assert result.metrics.mean_horizon == pytest.approx(expected)


def test_virtual_clock_determinism(free_space_weights):
    spec = get_spec("free_space")
    docs = []
    for _ in range(2):
        m = run_single(
            BaselineKind.SPO, spec, CFG, 5, free_space_weights,
            model_kind="drifted", drift_bias=8e-4, drift_noise=2e-4,
        ).metrics
        docs.append(run_json_document(m, CFG))
    assert docs[0] == docs[1]


def test_safety_every_non_hit_is_zero_action(free_space_weights):
    spec = get_spec("multi_stage")
    weights = calibrate_weights(spec, seed=CFG.rng_seed)
    result = run_single(BaselineKind.SPO, spec, CFG, 0, weights)
    assert any(r.outcome is Outcome.MISS for r in result.records)  # disturbances hit
    for rec in result.records:
        if rec.outcome not in (Outcome.HIT, Outcome.DIRECT):
            assert rec.action_executed.is_zero()


def test_run_experiment_parallel_matches_serial(free_space_weights):
    spec = get_spec("free_space")
    serial = run_experiment(BaselineKind.SPO, spec, CFG, [0, 1], weights=free_space_weights)
    parallel = run_experiment(
        BaselineKind.SPO, spec, CFG, [0, 1], weights=free_space_weights, jobs=2
    )
    assert [metrics_csv_line(m) for m in serial] == [metrics_csv_line(m) for m in parallel]


def test_compare_report_reduction_arithmetic():
    def fake(kind, seed, idle, wasted):
        from spo.harness import RunMetrics

        return RunMetrics(
            kind=kind.value, env="x", seed=seed, success=True, steps_taken=10,
            sim_wall_time=0.2, idle_time=idle, hits=5, misses=0, holds=5,
            awaiting=0, direct=0, hit_rate=0.5, mean_horizon=5.0,
            wasted_predictions=wasted, generated_predictions=wasted + 5,
        )

    results = {
        BaselineKind.BLOCKING: [fake(BaselineKind.BLOCKING, 0, 10.0, 0)],
        BaselineKind.NFTC: [fake(BaselineKind.NFTC, 0, 5.0, 50)],
        BaselineKind.SPO: [fake(BaselineKind.SPO, 0, 3.0, 20)],
    }
    report = compare_report(results)
    assert report.idle_reduction_vs_blocking_pct["spo"] == pytest.approx(70.0)
    assert report.wasted_reduction_vs_nftc_pct["spo"] == pytest.approx(60.0)
    # Equal idle -> 0% reduction.
    results[BaselineKind.SPO] = [fake(BaselineKind.SPO, 0, 10.0, 20)]
    assert compare_report(results).idle_reduction_vs_blocking_pct["spo"] == pytest.approx(0.0)
    # A zero baseline leaves the reduction undefined: None, printed n/a, not 0.0%.
    results[BaselineKind.NFTC] = [fake(BaselineKind.NFTC, 0, 5.0, 0)]
    report = compare_report(results)
    assert report.wasted_reduction_vs_nftc_pct == {"blocking": None, "spo": None}
    text = report.to_text().splitlines()
    assert "wasted reduction vs nftc [blocking]: n/a" in text
    assert "wasted reduction vs nftc [spo]: n/a" in text
    assert "idle reduction vs blocking [spo]: 0.0%" in text


@pytest.mark.parametrize("kinds, absent, present", [
    ((BaselineKind.SPO, BaselineKind.NFTC), "idle reduction vs blocking",
     "wasted reduction vs nftc"),
    ((BaselineKind.BLOCKING, BaselineKind.SPO), "wasted reduction vs nftc",
     "idle reduction vs blocking"),
])
def test_a_report_without_a_base_kind_has_no_reductions_against_it(kinds, absent, present):
    results = {kind: [harness.RunMetrics(
        kind=kind.value, env="x", seed=0, success=True, steps_taken=10, sim_wall_time=0.2,
        idle_time=3.0, hits=5, misses=0, holds=5, awaiting=0, direct=0, hit_rate=0.5,
        mean_horizon=5.0, wasted_predictions=20, generated_predictions=25)] for kind in kinds}
    report = compare_report(results)
    reductions = {"idle reduction vs blocking": report.idle_reduction_vs_blocking_pct,
                  "wasted reduction vs nftc": report.wasted_reduction_vs_nftc_pct}
    assert reductions[absent] == {}
    assert reductions[present] == {"spo": 0.0}
    text = report.to_text()
    assert absent not in text
    assert f"{present} [spo]: 0.0%" in text.splitlines()


def test_compare_report_rejects_mismatched_seeds(free_space_weights):
    spec = get_spec("free_space")
    a = run_experiment(BaselineKind.SPO, spec, CFG, [0], weights=free_space_weights)
    b = run_experiment(BaselineKind.NFTC, spec, CFG, [1], weights=free_space_weights)
    with pytest.raises(ValueError):
        compare_report({BaselineKind.SPO: a, BaselineKind.NFTC: b})


def test_json_document_echoes_config(free_space_weights):
    m = run_single(BaselineKind.T1SC, get_spec("free_space"), CFG, 0, free_space_weights).metrics
    doc = json.loads(run_json_document(m, CFG, {"env": "free_space"}))
    assert doc["schema_version"] == 1
    assert doc["config"] == dataclasses.asdict(CFG)
    assert doc["metrics"]["kind"] == "t1sc"
    assert doc["env"] == "free_space"


def test_write_atomic_creates_its_directory_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "nested" / "out.csv"
    write_atomic(path, "a,b\n1,2\n")
    assert path.read_text() == "a,b\n1,2\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.csv"]


def test_weights_roundtrip(tmp_path, free_space_weights):
    path = tmp_path / "w.txt"
    save_weights(path, free_space_weights)
    back = load_weights(path)
    assert np.array_equal(back.inverse_variances, free_space_weights.inverse_variances)
