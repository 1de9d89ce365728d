"""Cloud-side rollout generation, drifted world model, and refill handling."""

import numpy as np
import pytest

from spo.ahs import AhsState
from spo.cloud import (
    DRIFT_BIAS,
    DRIFT_NOISE,
    CloudSession,
    DriftedWorldModel,
    OracleWorldModel,
    RolloutError,
    RolloutRequest,
    ScriptedExpertPolicy,
    make_model,
    make_policy,
    speculative_rollout,
)
from spo.environments import (
    Dynamics,
    EnvironmentSpec,
    canonical_specs,
    get_spec,
    start_state,
    true_step,
)
from spo.transport import decode_tuple, encode_tuple
from spo.types import ActionVector, SpoConfig, StateVector
from spo.verifier import tracking_error
from spo.types import WeightMatrix


class ConstantPolicy:
    def __init__(self, value, d_a=1):
        self._a = ActionVector(np.full(d_a, value))

    def act(self, state):
        return self._a


class ToyIntegrator:
    """s' = s + a * dt, elementwise."""

    def __init__(self, dt=0.02):
        self.dt = dt

    def step(self, state, action):
        return StateVector(state.values + action.values * self.dt)


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
    assert t.predicted_state == model.step(s0, policy.act(s0))


def test_rollout_start_step_offsets_indices():
    tuples = speculative_rollout(
        StateVector([0.0]), 4, ConstantPolicy(1.0), ToyIntegrator(), start_step=40
    )
    assert [t.step_index for t in tuples] == [41, 42, 43, 44]


def test_drifted_model_bias_compounds():
    drifted = DriftedWorldModel(ToyIntegrator(), bias=0.1)
    tuples = speculative_rollout(StateVector([0.0]), 3, ConstantPolicy(1.0), drifted)
    predicted = [float(t.predicted_state.values[0]) for t in tuples]
    assert predicted == pytest.approx([0.12, 0.24, 0.36], abs=1e-12)
    # Deviation from the bias-free path grows with depth: k * 0.1 exactly here.
    truth = [0.02, 0.04, 0.06]
    deviations = [p - t for p, t in zip(predicted, truth)]
    assert deviations == pytest.approx([0.1, 0.2, 0.3], abs=1e-12)


def test_drift_growth_is_nondecreasing():
    w = WeightMatrix([1.0])
    drifted = DriftedWorldModel(ToyIntegrator(), bias=0.05, noise_std=0.01, seed=3)
    spec_tuples = speculative_rollout(StateVector([0.0]), 8, ConstantPolicy(1.0), drifted)
    s = StateVector([0.0])
    errors = []
    for t in spec_tuples:
        s = ToyIntegrator().step(s, t.action)
        errors.append(tracking_error(s, t.predicted_state, w))
    assert all(b >= a - 1e-9 for a, b in zip(errors, errors[1:]))


def test_drifted_model_is_deterministic():
    a = DriftedWorldModel(ToyIntegrator(), bias=0.0, noise_std=0.3, seed=42)
    b = DriftedWorldModel(ToyIntegrator(), bias=0.0, noise_std=0.3, seed=42)
    s, act = StateVector([0.4, -0.2]), ActionVector([1.0, 1.0])
    assert np.array_equal(a.step(s, act).values, b.step(s, act).values)
    c = DriftedWorldModel(ToyIntegrator(), bias=0.0, noise_std=0.3, seed=43)
    assert not np.array_equal(a.step(s, act).values, c.step(s, act).values)


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

    drifted = DriftedWorldModel(
        OracleWorldModel(spec), np.full(spec.d_s, DRIFT_BIAS), noise_std=DRIFT_NOISE, seed=0
    )
    default = rollout(make_model(spec, "drifted"))
    assert np.array_equal(default, rollout(drifted))
    assert not np.array_equal(default, rollout(make_model(spec, "oracle")))


def test_rollout_rejects_bad_horizon():
    with pytest.raises(RolloutError):
        speculative_rollout(StateVector([0.0]), 0, ConstantPolicy(1.0), ToyIntegrator())


def test_rollout_aborts_on_model_blowup():
    class Exploding:
        def step(self, state, action):
            return StateVector(state.values * np.inf)

    with pytest.raises(RolloutError):
        speculative_rollout(StateVector([1.0]), 3, ConstantPolicy(1.0), Exploding())


def test_rollout_aborts_on_dimension_change():
    class Widening:
        def step(self, state, action):
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
        wired = decode_tuple(encode_tuple(t), spec.d_s, spec.d_a, t.step_index)
        assert tracking_error(s, wired.predicted_state, w) < 1e-5


def test_oracle_is_true_step_without_disturbances():
    """The oracle steps like the environment, minus the scheduled bump."""
    spec = get_spec("multi_stage")
    bump_tick, bump = spec.disturbance_schedule[0]
    assert bump_tick == 220
    model = OracleWorldModel(spec)
    s = start_state(spec, np.random.default_rng(0))
    a = make_policy(spec).act(s)
    assert model.step(s, a) == true_step(spec, s, a, bump_tick - 1)
    np.testing.assert_allclose(
        model.step(s, a).values, true_step(spec, s, a, bump_tick).values - bump,
        rtol=0, atol=1e-12,
    )


def _req(e_miss, step_index=0, d=1):
    return RolloutRequest(StateVector(np.zeros(d)), violation_error=e_miss, step_index=step_index)


@pytest.mark.parametrize("e_miss", [-1.0, float("nan")], ids=["negative", "nan"])
def test_request_rejects_a_violation_error_below_zero_or_nan(e_miss):
    with pytest.raises(ValueError, match="violation_error"):
        _req(e_miss)
    assert _req(float("inf")).violation_error == float("inf")


def _adaptive_session(horizon):
    session = CloudSession(SpoConfig(), ConstantPolicy(1.0), ToyIntegrator(), fixed_horizon=None)
    session.ahs = AhsState(horizon=horizon, k_min=2, k_max=10, beta=1)
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
        anchor = np.zeros(spec.position_dims)
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
        pos = state.values[: self.spec.position_dims]
        target = self._target(pos)
        v = self.spec.gain * (target - pos)
        speed = float(np.linalg.norm(v))
        if speed > self.spec.a_max:
            v = v * (self.spec.a_max / speed)
        dist = float(np.linalg.norm(target - pos))
        v = v * (0.7 + 0.3 * np.cos(4.0 * dist))
        return ActionVector(v)


def _square_path_spec():
    # Path (0,0) -> (1,0) -> (1,0) -> (1,1): the middle segment has zero length.
    corner, top = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    return EnvironmentSpec(
        name="square", d_s=2, d_a=2, dynamics=Dynamics.WAYPOINT_TRACKER,
        waypoints=(corner, corner.copy(), top),
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
    spec = _square_path_spec() if name == "square" else get_spec(name)
    policy, reference = ScriptedExpertPolicy(spec), _ReferenceExpertPolicy(spec)
    states = _policy_probe_states(spec, np.random.default_rng(11), 200)
    if name == "square":
        # Exact ties: (1,0) is on all three segments, (0.5,0.5) and (2,-1) lie
        # as far from the first segment as from the last.
        states += [StateVector(p) for p in ([1.0, 0.0], [0.5, 0.5], [2.0, -1.0])]
    for s in states:
        pos = s.values[: spec.position_dims]
        assert policy._target(pos) is reference._target(pos)
        assert policy.act(s).values.tobytes() == reference.act(s).values.tobytes()


def test_expert_policy_later_segment_wins_a_tie():
    spec = _square_path_spec()
    policy = ScriptedExpertPolicy(spec)
    for point in ([1.0, 0.0], [0.5, 0.5], [2.0, -1.0]):
        assert policy._target(np.array(point)) is policy._path[3], point


def test_make_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_model(get_spec("free_space"), "learned")
