"""Cloud-side rollout generation, drifted world model, and refill handling."""

import dataclasses
import math

import numpy as np
import pytest

import spo.cloud
import spo.environments
import spo.sockets
from spo.ahs import AhsState
from spo.cloud import (
    DRIFT_BIAS,
    DRIFT_NOISE,
    CloudSession,
    DriftedWorldModel,
    OracleWorldModel,
    RolloutError,
    RolloutRequest,
    RolloutResponse,
    ScriptedExpertPolicy,
    make_model,
    make_policy,
    speculative_rollout,
)
from spo.environments import (
    EnvironmentSpec,
    canonical_specs,
    get_spec,
    is_success,
    start_state,
    true_step,
)
from spo.harness import BaselineKind, run_experiment, run_single
from spo.sockets import CloudServer
from spo.transport import decode_response, encode_response
from spo.types import ActionVector, ConfigError, SpeculativeTuple, SpoConfig, StateVector, owned
from spo.verifier import tracking_error
from spo.types import WeightMatrix


def _bits(values):
    """Each float's exact bits, as hex: equal for equal bits only, -0.0 and 0.0 apart."""
    return tuple(map(float.hex, values))


class ConstantPolicy:
    def __init__(self, value, d_a=1):
        self._a = ActionVector(np.full(d_a, value))

    def act(self, state):
        return self._a


class ToyIntegrator:
    """s' = s + a * dt, elementwise."""

    def __init__(self, dt=0.02):
        self.dt = dt

    def step(self, state, action, step_index):
        return StateVector([s + a * self.dt for s, a in zip(state.values, action.values)])


def test_rollout_integrator_example():
    tuples = speculative_rollout(
        StateVector([0.0]), 3, ConstantPolicy(1.0), ToyIntegrator()
    )
    predicted = [float(t.predicted_state.values[0]) for t in tuples]
    actions = [float(t.action.values[0]) for t in tuples]
    assert predicted == pytest.approx([0.02, 0.04, 0.06], abs=1e-12)
    assert actions == [1.0, 1.0, 1.0]
    assert [t.step_index for t in tuples] == [1, 2, 3]


def test_rollout_base_case_k1():
    policy, model = ConstantPolicy(0.5), ToyIntegrator()
    s0 = StateVector([1.0])
    (t,) = speculative_rollout(s0, 1, policy, model)
    assert t.action == policy.act(s0)
    assert t.predicted_state == model.step(s0, policy.act(s0), 1)


def test_rollout_start_step_offsets_indices():
    tuples = speculative_rollout(
        StateVector([0.0]), 4, ConstantPolicy(1.0), ToyIntegrator(), start_step=40
    )
    assert [t.step_index for t in tuples] == [41, 42, 43, 44]


def _toy_spec(d=1):
    """A d-dimensional task whose dynamics are :class:`ToyIntegrator`'s, dt = 0.02."""
    return EnvironmentSpec(name="toy", d_s=d, d_a=d, dt=0.02)


def test_drifted_model_bias_compounds():
    drifted = DriftedWorldModel(_toy_spec(), bias=0.1)
    tuples = speculative_rollout(StateVector([0.0]), 3, ConstantPolicy(1.0), drifted)
    predicted = [float(t.predicted_state.values[0]) for t in tuples]
    assert predicted == pytest.approx([0.12, 0.24, 0.36], abs=1e-12)
    # Deviation from the bias-free path grows with depth: k * 0.1 exactly here.
    truth = [0.02, 0.04, 0.06]
    deviations = [p - t for p, t in zip(predicted, truth)]
    assert deviations == pytest.approx([0.1, 0.2, 0.3], abs=1e-12)


def test_drift_growth_is_nondecreasing():
    w = WeightMatrix([1.0])
    drifted = DriftedWorldModel(_toy_spec(), bias=0.05, noise_std=0.01, seed=3)
    spec_tuples = speculative_rollout(StateVector([0.0]), 8, ConstantPolicy(1.0), drifted)
    s = StateVector([0.0])
    errors = []
    for t in spec_tuples:
        s = ToyIntegrator().step(s, t.action, t.step_index)
        errors.append(tracking_error(s, t.predicted_state, w))
    assert all(b >= a - 1e-9 for a, b in zip(errors, errors[1:]))


def test_drifted_model_is_deterministic():
    a = DriftedWorldModel(_toy_spec(2), bias=0.0, noise_std=0.3, seed=42)
    b = DriftedWorldModel(_toy_spec(2), bias=0.0, noise_std=0.3, seed=42)
    s, act = StateVector([0.4, -0.2]), ActionVector([1.0, 1.0])
    assert np.array_equal(a.step(s, act, 1).values, b.step(s, act, 1).values)
    c = DriftedWorldModel(_toy_spec(2), bias=0.0, noise_std=0.3, seed=43)
    assert not np.array_equal(a.step(s, act, 1).values, c.step(s, act, 1).values)


def test_rollout_is_bitwise_deterministic():
    spec = get_spec("free_space")
    policy = make_policy(spec)
    model = make_model(spec, "drifted", drift_bias=1e-3, drift_noise=1e-3, seed=9)
    start = StateVector(np.zeros(spec.d_s))
    r1 = speculative_rollout(start, 10, policy, model)
    r2 = speculative_rollout(start, 10, policy, model)
    for t1, t2 in zip(r1, r2):
        assert np.array_equal(t1.predicted_state.values, t2.predicted_state.values)
        assert np.array_equal(t1.action.values, t2.action.values)


def test_make_model_drifts_by_default():
    spec = get_spec("free_space")
    start = StateVector(np.zeros(spec.d_s))

    def rollout(model):
        return [t.predicted_state.values for t in speculative_rollout(
            start, 10, make_policy(spec), model)]

    drifted = DriftedWorldModel(spec, DRIFT_BIAS, noise_std=DRIFT_NOISE, seed=0)
    default = rollout(make_model(spec, "drifted"))
    assert np.array_equal(default, rollout(drifted))
    assert not np.array_equal(default, rollout(make_model(spec, "oracle")))


def test_rollout_rejects_bad_horizon():
    with pytest.raises(RolloutError):
        speculative_rollout(StateVector([0.0]), 0, ConstantPolicy(1.0), ToyIntegrator())


def test_rollout_aborts_on_model_blowup():
    class Exploding:
        def step(self, state, action, step_index):
            return StateVector([x * math.inf for x in state.values])

    with pytest.raises(RolloutError):
        speculative_rollout(StateVector([1.0]), 3, ConstantPolicy(1.0), Exploding())


def test_rollout_aborts_on_dimension_change():
    class Widening:
        def step(self, state, action, step_index):
            return StateVector(np.append(state.values, 0.0))

    with pytest.raises(RolloutError):
        speculative_rollout(StateVector([1.0]), 2, ConstantPolicy(1.0), Widening())


def test_oracle_consistency_on_free_space():
    """Oracle rollout predictions match the true disturbance-free trajectory."""
    spec = get_spec("free_space")
    policy = make_policy(spec)
    model = OracleWorldModel(spec)
    s = StateVector(np.zeros(spec.d_s))
    tuples = speculative_rollout(s, 10, policy, model)
    w = WeightMatrix(np.ones(spec.d_s))
    for tick, t in enumerate(tuples):
        s = true_step(spec, s, t.action, tick)
        assert tracking_error(s, t.predicted_state, w) == pytest.approx(0.0, abs=1e-12)
        # And survives the 32-bit wire codec within the documented tolerance.
        frame = encode_response(1, RolloutResponse((t,), 1), step_index=t.step_index - 1)
        (wired,) = decode_response(frame, spec.d_s, spec.d_a)[1].tuples
        assert tracking_error(s, wired.predicted_state, w) < 1e-5


def test_oracle_is_true_step_without_disturbances():
    """The oracle steps like the environment, minus the scheduled bump."""
    spec = get_spec("multi_stage")
    bump_tick, bump = spec.disturbance_schedule[0]
    assert bump_tick == 220
    model = OracleWorldModel(spec)
    s = start_state(spec, np.random.default_rng(0))
    a = make_policy(spec).act(s)
    assert model.step(s, a, bump_tick) == true_step(spec, s, a, bump_tick - 1)
    np.testing.assert_allclose(
        model.step(s, a, bump_tick).values, true_step(spec, s, a, bump_tick).values - bump,
        rtol=0, atol=1e-12,
    )


def _noise_row(seed, p, d, std=DRIFT_NOISE, bias=0.0):
    """Row p of the drifted model's noise table, drawn around ``bias``, from its definition."""
    rows = DriftedWorldModel.BLOCK_ROWS
    return np.random.default_rng([seed, p // rows]).normal(bias, std, (rows, d))[p % rows]


@pytest.mark.parametrize("name", sorted(canonical_specs()))
def test_drifted_step_is_the_oracle_step_plus_drift_bit_for_bit(name):
    """A step landing on progress step p is the oracle step + row p of normal(bias, noise),
    to the bit: the bias sits in the noise table, so the drift is one add."""
    spec = get_spec(name)
    clean = dataclasses.replace(spec, disturbance_schedule=())
    model = DriftedWorldModel(spec, DRIFT_BIAS, noise_std=DRIFT_NOISE, seed=11)
    policy = make_policy(spec)
    s = start_state(spec, np.random.default_rng(5))
    for p in [*range(1, 50), 255, 256, 257, 1000, 3]:
        a = policy.act(s)
        expected = true_step(clean, s, a, 0).values + _noise_row(11, p, spec.d_s, bias=model.bias)
        nxt = model.step(s, a, p)
        assert _bits(nxt.values) == _bits(expected)
        s = nxt


def _drift_only(seed, d=3):
    """A zero-bias drifted model, with a state and an action it steps to its noise row alone."""
    model = DriftedWorldModel(_toy_spec(d), 0.0, noise_std=DRIFT_NOISE, seed=seed)
    return model, StateVector(np.zeros(d)), ActionVector(np.zeros(d))


def test_drifted_noise_row_does_not_depend_on_call_order():
    model, s, a = _drift_only(7)
    far = model.step(s, a, 5000).values
    near = model.step(s, a, 3).values
    fresh, _, _ = _drift_only(7)
    assert _bits(near) == _bits(fresh.step(s, a, 3).values)
    assert _bits(near) == _bits(_noise_row(7, 3, 3))
    assert _bits(far) == _bits(_noise_row(7, 5000, 3))


def test_drifted_noise_rows_follow_the_drift_seed():
    steps = [1, 2, 255, 256, 700]

    def rows(seed):
        model, s, a = _drift_only(seed)
        return [_bits(model.step(s, a, p).values) for p in steps]

    assert rows(7) == rows(7)
    assert all(mine != other for mine, other in zip(rows(7), rows(8)))
    assert len(set(rows(7))) == len(steps)


def test_a_drifted_step_near_the_uint32_limit_holds_at_most_its_block_bound():
    model, s, a = _drift_only(7)
    last = 2**32 - 1
    assert _bits(model.step(s, a, last).values) == _bits(_noise_row(7, last, 3))
    rows = DriftedWorldModel.BLOCK_ROWS
    for p in [*range(0, 20 * rows, rows // 2), last, 0, last - rows]:
        model.step(s, a, p)
        assert 1 <= len(model._blocks) <= DriftedWorldModel.BLOCKS_HELD


@pytest.mark.parametrize("model_kind", ["oracle", "drifted"])
@pytest.mark.parametrize("name", sorted(canonical_specs()))
def test_rollout_is_bit_identical_to_one_built_with_the_public_constructors(
    monkeypatch, name, model_kind
):
    """Wrapping fresh tuples without the constructor changes no state or action bit, no
    component type and no step index."""
    spec = get_spec(name)
    policy = make_policy(spec)
    model = make_model(spec, model_kind, seed=3)
    starts = _policy_probe_states(spec, np.random.default_rng(4), 12)

    def rollouts():
        return [speculative_rollout(s, 10, policy, model, start_step=5 * i)
                for i, s in enumerate(starts)]

    fast = rollouts()
    with monkeypatch.context() as m:
        for module in (spo.cloud, spo.environments):
            m.setattr(module, "owned", lambda cls, values: cls(values))
        reference = rollouts()
    assert len(fast) == len(reference) == 24
    for got, want in zip(fast, reference):
        assert [t.step_index for t in got] == [t.step_index for t in want]
        for g, w in zip(got, want, strict=True):
            assert type(g) is type(w) is SpeculativeTuple
            for got_vec, want_vec in ((g.predicted_state, w.predicted_state), (g.action, w.action)):
                assert _bits(got_vec.values) == _bits(want_vec.values)
                assert type(got_vec.values) is tuple
                assert all(type(x) is float for x in got_vec.values)


def _req(e_miss, step_index=0, d=1):
    return RolloutRequest(StateVector(np.zeros(d)), violation_error=e_miss, step_index=step_index)


@pytest.mark.parametrize("e_miss", [-1.0, float("nan")], ids=["negative", "nan"])
def test_request_rejects_a_violation_error_below_zero_or_nan(e_miss):
    with pytest.raises(ValueError, match="violation_error"):
        _req(e_miss)
    assert _req(float("inf")).violation_error == float("inf")


def _adaptive_session(horizon):
    session = CloudSession(SpoConfig(), ConstantPolicy(1.0), ToyIntegrator(), fixed_horizon=None)
    session.ahs = AhsState(horizon=horizon)
    return session


def test_handle_request_additive_case():
    session = _adaptive_session(4)
    resp = session.handle(_req(0.0))
    assert resp.horizon_used == 5
    assert len(resp.tuples) == 5
    assert session.ahs.horizon == 5


def test_handle_request_contraction_case():
    session = _adaptive_session(8)
    resp = session.handle(_req(40.0))
    assert resp.horizon_used == 4
    assert len(resp.tuples) == 4


def test_handle_request_saturated():
    session = _adaptive_session(10)
    resp = session.handle(_req(0.0))
    assert resp.horizon_used == 10


def test_response_step_indices_continue_from_request():
    session = _adaptive_session(2)
    resp = session.handle(_req(0.0, step_index=17))
    assert [t.step_index for t in resp.tuples] == [18, 19, 20]


def test_blocking_session_returns_single_direct_tuple():
    cfg = SpoConfig()
    session = CloudSession(cfg, ConstantPolicy(1.0), ToyIntegrator(), fixed_horizon=0)
    resp = session.handle(_req(0.0, step_index=5))
    assert resp.horizon_used == 0
    assert len(resp.tuples) == 1
    assert resp.tuples[0].step_index == 6


class SteppingForbidden:
    def step(self, state, action, step_index):
        raise AssertionError("a blocking reply stepped its world model")


class FailingPolicy:
    def act(self, state):
        raise ValueError("policy blew up")


def test_blocking_reply_is_the_direct_action_for_the_observed_state_without_a_model_step():
    policy = ConstantPolicy(0.5, d_a=2)
    session = CloudSession(SpoConfig(), policy, SteppingForbidden(), fixed_horizon=0)
    observed = StateVector([1.0, -2.0])
    resp = session.handle(RolloutRequest(observed, 0.0, step_index=5))
    (t,) = resp.tuples
    assert t.predicted_state == observed
    assert t.action == policy.act(observed)
    assert t.step_index == 6
    assert resp.horizon_used == 0
    assert speculative_rollout(observed, 1, policy, None, start_step=5) == [t]


def test_a_failing_policy_in_a_blocking_reply_is_a_rollout_error():
    session = CloudSession(SpoConfig(), FailingPolicy(), SteppingForbidden(), fixed_horizon=0)
    with pytest.raises(RolloutError, match="policy blew up"):
        session.handle(_req(0.0))


@pytest.mark.parametrize("horizon", [0, 1, 10, None], ids=["blocking", "t1sc", "nftc", "spo"])
@pytest.mark.parametrize("name", sorted(canonical_specs()))
def test_every_kind_refuses_a_state_of_another_dimension(name, horizon):
    """A blocking reply steps no model, so the expert itself refuses the state, rather than
    answer it with an action as short as the state."""
    spec = get_spec(name)
    session = CloudSession(SpoConfig(), make_policy(spec), make_model(spec), horizon)
    short = StateVector([0.1] * (spec.d_s - 4))
    with pytest.raises(RolloutError, match=f"state dimension {spec.d_s - 4} != d_s {spec.d_s}$"):
        session.handle(RolloutRequest(short, 0.0, 0))


def test_fixed_horizon_session_ignores_ahs():
    cfg = SpoConfig()
    session = CloudSession(cfg, ConstantPolicy(1.0), ToyIntegrator(), fixed_horizon=10)
    for e in (0.0, 500.0):
        resp = session.handle(_req(e))
        assert resp.horizon_used == 10


def test_adaptive_session_tracks_violations():
    cfg = SpoConfig()
    session = CloudSession(cfg, ConstantPolicy(1.0), ToyIntegrator(), fixed_horizon=None)
    grants = [session.handle(_req(0.0)).horizon_used for _ in range(3)]
    assert grants == [3, 4, 5]
    assert session.handle(_req(200.0)).horizon_used == 2  # floor(5 * 20 / 200) = 0 -> clamp


def test_expert_policy_respects_a_max_and_replans():
    spec = get_spec("multi_stage")
    policy = ScriptedExpertPolicy(spec)
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = StateVector(rng.uniform(-2.5, 2.5, spec.d_s))
        a = policy.act(s)
        assert a.dim == spec.d_a
        assert float(np.linalg.norm(a.values)) <= spec.a_max + 1e-9


class _ReferenceExpertPolicy:
    """The expert policy as first written, kept as the reference for the optimised one:
    segment vectors rebuilt per call, ``np.linalg.norm`` and a scalar ``np.clip``."""

    def __init__(self, spec):
        self.spec = spec
        anchor = np.zeros(spec.d_s)
        self._path = [anchor] + [np.asarray(w, dtype=np.float64) for w in spec.waypoints]

    def _target(self, pos):
        if len(self._path) < 2:
            return self._path[-1]
        best_k, best_d = 0, np.inf
        for k in range(len(self._path) - 1):
            a, b = self._path[k], self._path[k + 1]
            ab = b - a
            denom = float(np.dot(ab, ab))
            t = 0.0 if denom == 0 else float(np.clip(np.dot(pos - a, ab) / denom, 0.0, 1.0))
            d = float(np.linalg.norm(pos - (a + t * ab)))
            if d <= best_d + 1e-9:
                best_k, best_d = k, min(best_d, d)
        return self._path[best_k + 1]

    def act(self, state):
        pos = state.values[: self.spec.d_s]
        target = self._target(pos)
        v = self.spec.gain * (target - pos)
        speed = float(np.linalg.norm(v))
        if speed > self.spec.a_max:
            v = v * (self.spec.a_max / speed)
        dist = float(np.linalg.norm(target - pos))
        v = v * (0.7 + 0.3 * np.cos(4.0 * dist))
        return ActionVector(v)


def _waypoint_index(path, target):
    """The index of ``target`` in ``path``, by identity: a repeated waypoint is two entries."""
    return [p is target for p in path].index(True)


def _same_target(policy, reference, pos):
    """Whether the expert and the reference pick the same waypoint (by its index) at ``pos``."""
    return (_waypoint_index(policy._path, policy._target(tuple(pos)))
            == _waypoint_index(reference._path, reference._target(np.asarray(pos))))


def _square_path_spec():
    # Path (0,0) -> (1,0) -> (1,0) -> (1,1): the middle segment has zero length.
    corner, top = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    return EnvironmentSpec(
        name="square", d_s=2, d_a=2, waypoints=(corner, corner.copy(), top),
    )


def _policy_probe_states(spec, rng, n):
    """Random states around the path, plus the states of a closed-loop run along it."""
    states = [StateVector(rng.uniform(-3.0, 3.0, spec.d_s)) for _ in range(n)]
    policy, s = ScriptedExpertPolicy(spec), start_state(spec, rng)
    for t in range(n):
        states.append(s)
        s = true_step(spec, s, policy.act(s), t)
    return states


@pytest.mark.parametrize("name", sorted(canonical_specs()) + ["square"])
def test_expert_policy_is_bit_identical_to_the_reference(name):
    """The target is the reference's waypoint, and the action is the scalar formula bit for
    bit and the reference's to within (8 + 4·dist) ulps of its norm: the reference's BLAS
    norm and ``hypot`` may differ in the last place, and the cosine turns that into up to
    4·dist ulps of the speed factor."""
    spec = _square_path_spec() if name == "square" else get_spec(name)
    policy, reference = ScriptedExpertPolicy(spec), _ReferenceExpertPolicy(spec)
    states = _policy_probe_states(spec, np.random.default_rng(11), 200)
    if name == "square":
        # Exact ties: (1,0) is on all three segments, (0.5,0.5) and (2,-1) lie
        # as far from the first segment as from the last.
        states += [StateVector(p) for p in ([1.0, 0.0], [0.5, 0.5], [2.0, -1.0])]
    eps = np.finfo(np.float64).eps
    for s in states:
        pos = s.values
        target = policy._target(pos)
        assert _same_target(policy, reference, pos)
        got, want = policy.act(s).values, reference.act(s).values
        assert _bits(got) == _bits(_scalar_formula_act(policy, s))
        dist = math.dist(target, pos)
        bound = (8 + 4 * dist) * eps * math.hypot(*want)
        assert np.abs(np.subtract(got, want)).max() <= bound, (s, got, want)


def _bent_spec(d=8):
    """Three legs that turn at each waypoint; the last four coordinates are 0 on the path."""
    w1, w2, w3 = np.zeros(d), np.zeros(d), np.zeros(d)
    w1[:3], w2[:3], w3[:3] = [1.0, 0.5, -0.25], [1.5, 1.5, 0.5], [0.5, 2.0, 1.25]
    return EnvironmentSpec(name="bent", d_s=d, d_a=d, max_steps=3000, waypoints=(w1, w2, w3),
                           goal_center=w3, goal_radius=0.05)


def _target_probe_states(spec, rng):
    """Random states, states 1e-12..1 and 10..1e6 from each path point, points on the
    segments, states 1e-9..1e-1 off a segment's interior, square to it, and (for a path off
    the last coordinates) states as far from two adjacent legs exactly. The far states are
    where a projection from distances loses the most digits; the ones just off a segment
    take both sides of the expert's guard on the Pythagorean distance."""
    path = [np.zeros(spec.d_s)] + list(spec.waypoints)
    states = list(rng.uniform(-3.0, 3.0, (5400, spec.d_s)))
    for p in path:
        for scale in np.concatenate([np.logspace(-12, 0, 520), np.logspace(1, 6, 2000)]):
            step = rng.normal(size=spec.d_s)
            states.append(p + scale * step / math.sqrt(step.dot(step)))
    for a, b in zip(path, path[1:]):
        states += [a + t * (b - a) for t in np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0, 1, 900)])]
        ab = b - a
        if not ab.any():
            continue
        for off in np.logspace(-9, -1, 600):
            step = rng.normal(size=spec.d_s)
            step -= step.dot(ab) / ab.dot(ab) * ab
            states.append(a + rng.uniform(0.05, 0.95) * ab + off * step / math.sqrt(step.dot(step)))
    ties = []
    if not any(np.any(w[4:]) for w in spec.waypoints):
        for w in spec.waypoints[:-1]:
            for _ in range(150):
                off = np.zeros(spec.d_s)
                off[4:] = rng.uniform(-1.0, 1.0, spec.d_s - 4)
                ties.append(w + off)
    return states + ties, ties


def _repeat_spec():
    """The bent path's first two legs with the first waypoint repeated: a zero-length leg."""
    w1, w2, _ = _bent_spec().waypoints
    return dataclasses.replace(_bent_spec(), name="repeat", waypoints=(w1, w1.copy(), w2),
                               goal_center=w2)


@pytest.mark.parametrize("spec", [_bent_spec(), get_spec("multi_stage"), _repeat_spec()],
                         ids=["bent", "multi_stage", "repeat"])
def test_expert_target_is_the_per_segment_loop_on_every_probe_state(spec):
    policy, reference = ScriptedExpertPolicy(spec), _ReferenceExpertPolicy(spec)
    states, ties = _target_probe_states(spec, np.random.default_rng(31))
    assert len(states) >= 10_000
    for pos in states:
        assert _same_target(policy, reference, pos), pos
    # An exact tie between the legs meeting at waypoint k goes to the later leg, k+1
    # (at a repeated waypoint, the leg after its last copy).
    for pos in ties:
        k = max(i for i, w in enumerate(spec.waypoints, 1) if np.array_equal(w[:4], pos[:4]))
        assert policy._target(tuple(pos)) is policy._path[k + 1]


def test_an_expert_episode_on_a_bent_path_reaches_each_waypoint_in_order():
    spec = _bent_spec()
    policy, s = ScriptedExpertPolicy(spec), start_state(spec)
    visited, closest = [], [math.inf] * len(spec.waypoints)
    for t in range(spec.max_steps):
        k = [p is policy._target(s.values) for p in policy._path].index(True)
        if not visited or visited[-1] != k:
            visited.append(k)
        for i, w in enumerate(spec.waypoints):
            closest[i] = min(closest[i], float(np.linalg.norm(s.values - w)))
        if is_success(spec, s):
            break
        s = true_step(spec, s, policy.act(s), t)
    assert is_success(spec, s)
    assert visited == [1, 2, 3]
    assert max(closest[:-1]) < 1e-6 and closest[-1] <= spec.goal_radius


def test_expert_policy_later_segment_wins_a_tie():
    spec = _square_path_spec()
    policy = ScriptedExpertPolicy(spec)
    for point in ([1.0, 0.0], [0.5, 0.5], [2.0, -1.0]):
        assert policy._target(tuple(point)) is policy._path[3], point


def test_make_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_model(get_spec("free_space"), "learned")


def _no_listener(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a listener opened")

    monkeypatch.setattr(spo.sockets.socket, "create_server", never)


# Each layer that builds a world model, on a good spec and config, with the given ``world``.
WORLD_BUILDERS = {
    "make_model": make_model,
    "run_single": lambda spec, **world: run_single(
        BaselineKind.SPO, spec, SpoConfig(), 0, WeightMatrix(np.ones(spec.d_s)), **world),
    "run_experiment": lambda spec, **world: run_experiment(
        BaselineKind.SPO, spec, SpoConfig(), [0], weights=WeightMatrix(np.ones(spec.d_s)),
        **world),
    "run_experiment-no-seeds": lambda spec, **world: run_experiment(
        BaselineKind.SPO, spec, SpoConfig(), [], weights=WeightMatrix(np.ones(spec.d_s)),
        **world),
    "CloudServer": lambda spec, **world: CloudServer(0, spec, SpoConfig(), **world),
}


@pytest.mark.parametrize("builder", ["make_model", "run_single", "run_experiment-no-seeds",
                                     "CloudServer"])
@pytest.mark.parametrize("bias, noise, errors", [
    (math.nan, DRIFT_NOISE, ["drift_bias = nan is not finite"]),
    (math.inf, DRIFT_NOISE, ["drift_bias = inf is not finite"]),
    (DRIFT_BIAS, math.nan, ["drift_noise = nan is not finite"]),
    (DRIFT_BIAS, -1.0, ["drift_noise >= 0 violated"]),
    (math.nan, -1.0, ["drift_bias = nan is not finite", "drift_noise >= 0 violated"]),
], ids=["bias-nan", "bias-inf", "noise-nan", "noise-negative", "both"])
def test_every_layer_refuses_a_bad_drift_with_every_violation_listed(
    monkeypatch, builder, bias, noise, errors
):
    _no_listener(monkeypatch)
    with pytest.raises(ConfigError) as exc:
        WORLD_BUILDERS[builder](
            get_spec("free_space"), model_kind="drifted", drift_bias=bias, drift_noise=noise)
    assert exc.value.errors == errors


@pytest.mark.parametrize("builder", ["run_single", "run_experiment", "run_experiment-no-seeds",
                                     "CloudServer"])
def test_a_misspelled_world_keyword_is_a_type_error_not_ignored(monkeypatch, builder):
    _no_listener(monkeypatch)
    with pytest.raises(TypeError, match="drift_bais"):
        WORLD_BUILDERS[builder](get_spec("free_space"), model_kind="drifted", drift_bais=1e-3)


@pytest.mark.parametrize("violation_error, step_index", [
    (float("nan"), 0), (-1.0, 0), (-float("inf"), 0), (0.0, -1),
])
def test_rollout_request_refuses_bad_values(violation_error, step_index):
    with pytest.raises(ValueError):
        RolloutRequest(StateVector([0.0]), violation_error, step_index)
    with pytest.raises(ValueError):
        RolloutRequest(StateVector([0.0]), violation_error=violation_error, step_index=step_index)


def test_rollout_records_cannot_be_assigned_to():
    req = RolloutRequest(StateVector([1.0]), 0.5, step_index=3)
    resp = RolloutResponse((), horizon_used=0)
    assert (req.violation_error, req.step_index, resp.tuples, resp.horizon_used) == (0.5, 3, (), 0)
    for record, name in ((req, "observed_state"), (req, "violation_error"), (req, "step_index"),
                         (resp, "tuples"), (resp, "horizon_used")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    for record in (req, resp):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):  # a light record: no instance dict
            record.note = "extra"


def _scalar_formula_act(policy, state):
    """The expert's action as one numpy expression: one norm, one scale."""
    pos = state.values
    to_target = np.subtract(policy._target(pos), pos)
    dist = math.hypot(*to_target.tolist())
    gain, a_max = policy.spec.gain, policy.spec.a_max
    scale = gain if gain * dist <= a_max else a_max / dist
    return to_target * (scale * (0.7 + 0.3 * np.cos(4.0 * dist)))


@pytest.mark.parametrize("name", sorted(canonical_specs()))
def test_the_expert_action_is_the_numpy_scalar_formula_bit_for_bit(name):
    spec = get_spec(name)
    policy = make_policy(spec)
    goal = np.asarray(spec.waypoints[-1], dtype=np.float64)
    far = StateVector(goal + 50.0)  # the a_max clip fires
    at_target = StateVector(goal)  # dist 0: the action is zero
    states = _policy_probe_states(spec, np.random.default_rng(21), 100) + [far, at_target]
    clipped = []
    for s in states:
        want = _scalar_formula_act(policy, s)
        got = policy.act(s).values
        assert _bits(got) == _bits(want)
        assert type(got) is tuple
        clipped.append(spec.gain * math.dist(policy._target(s.values), s.values) > spec.a_max)
    assert clipped[-2] and not clipped[-1] and not all(clipped)
    assert policy._target(tuple(goal.tolist())) is policy._path[-1]
    assert not np.any(policy.act(at_target).values)


def _owned_act(policy, state):
    """The expert's action computed on floats as ``act`` does, then wrapped by ``owned``."""
    pos = state.values
    v = [t - p for t, p in zip(policy._target(pos), pos)]
    dist = math.hypot(*v)
    gain, a_max = policy.spec.gain, policy.spec.a_max
    c = (gain if gain * dist <= a_max else a_max / dist) * (0.7 + 0.3 * math.cos(4.0 * dist))
    return owned(ActionVector, tuple([x * c for x in v]))


def _act_outcome(act, state):
    """The action's type, the type of its values and their bits, or the error text."""
    try:
        a = act(state)
    except ValueError as exc:
        return str(exc)
    return type(a), type(a.values), _bits(a.values)


def _hot_probe_states():
    """States 1e-320..1e308 from the goal of a gain-1e300 spec. Moving out, the offset
    is absorbed into the goal (the zero action), then gain·dist overflows (the a_max scale
    still holds), then, past a distance of 4.5e307, the cosine's argument 4·dist does
    (``math.cos`` refuses it)."""
    goal = np.array([1.0, -1.0])
    spec = EnvironmentSpec(name="hot", d_s=2, d_a=2, waypoints=(goal,), gain=1e300)
    scales = [10.0**e for e in range(-320, 300, 5)] + [1e300, 1e307, 3.9e307, 5e307, 1e308]
    return spec, [StateVector(goal - m * np.array([1.0, 0.5])) for m in scales]


@pytest.mark.parametrize("name", sorted(canonical_specs()) + ["bent", "hot"])
def test_an_expert_action_has_the_outcome_of_the_owned_path(name):
    """Proved finite by its distance, an action is the one ``owned`` wrapped, at most a_max
    long; else the same error."""
    if name == "hot":
        spec, states = _hot_probe_states()
    else:
        spec = _bent_spec() if name == "bent" else get_spec(name)
        states = _policy_probe_states(spec, np.random.default_rng(41), 150)
    policy = make_policy(spec)
    outcomes = [_act_outcome(policy.act, s) for s in states]
    assert outcomes == [_act_outcome(lambda x: _owned_act(policy, x), s) for s in states]
    acted = [(s, o) for s, o in zip(states, outcomes) if not isinstance(o, str)]
    assert all(o[:2] == (ActionVector, tuple) for _, o in acted)
    eps = np.finfo(np.float64).eps
    for s, _ in acted:
        norm = math.hypot(*policy.act(s).values)
        assert math.isfinite(norm) and norm <= spec.a_max * (1 + 4 * eps), (s, norm)
    if name == "hot":
        # hypot does not overflow where a sum of squares did: only the two farthest
        # states, whose 4·dist is past the largest float, fail.
        assert (ActionVector, tuple, _bits([0.0, 0.0])) in outcomes
        failed = [i for i, o in enumerate(outcomes) if isinstance(o, str)]
        assert {outcomes[i] for i in failed} == {"math domain error"}
        assert failed == list(range(len(states) - 2, len(states)))
    else:
        assert len(acted) == len(states)


def test_a_negative_start_step_is_refused_before_the_policy_acts():
    calls = []

    class Recording(ConstantPolicy):
        def act(self, state):
            calls.append(state)
            return super().act(state)

    with pytest.raises(ValueError, match="step_index must be nonnegative"):
        speculative_rollout(StateVector([0.0]), 3, Recording(1.0), ToyIntegrator(), start_step=-1)
    assert calls == []
    tuples = speculative_rollout(StateVector([0.0]), 2, Recording(1.0), ToyIntegrator())
    assert [t.step_index for t in tuples] == [1, 2] and len(calls) == 2


@pytest.mark.parametrize("model_kind", ["oracle", "drifted"])
@pytest.mark.parametrize("name", sorted(canonical_specs()))
def test_a_world_model_step_leaves_its_inputs_and_returns_a_new_tuple(name, model_kind):
    spec = get_spec(name)
    policy, model = make_policy(spec), make_model(spec, model_kind, seed=2)
    s = start_state(spec, np.random.default_rng(6))
    for p in range(1, 21):
        a = policy.act(s)
        before = (s.values, _bits(s.values), a.values, _bits(a.values))
        nxt = model.step(s, a, p)
        assert (s.values, _bits(s.values), a.values, _bits(a.values)) == before
        assert type(nxt.values) is tuple and nxt.values is not s.values
        s = nxt
