"""Synthetic environments: dynamics, goals, disturbances, loaders."""

import numpy as np
import pytest

from spo.cloud import make_policy
from spo.environments import (
    Dynamics,
    EnvironmentSpec,
    canonical_specs,
    get_spec,
    is_success,
    load_disturbances_csv,
    load_environment,
    start_state,
    true_step,
)
from spo.types import ActionVector, ConfigError, DimensionError, StateVector, zero_action


def _integrator_1d():
    return EnvironmentSpec(
        name="toy", d_s=2, d_a=1, dynamics=Dynamics.INTEGRATOR, dt=0.02, max_steps=10
    )


def test_integrator_step_example():
    spec = _integrator_1d()
    nxt = true_step(spec, StateVector([0.0, 0.0]), ActionVector([1.0]), 0)
    assert np.allclose(nxt.values, [0.02, 1.0], atol=1e-15)


def test_zero_action_freezes_position():
    spec = get_spec("free_space")
    s = StateVector(np.linspace(-1, 1, spec.d_s))
    nxt = true_step(spec, s, zero_action(spec.d_a), 3)
    assert np.array_equal(nxt.values, s.values)


def test_scheduled_disturbance_applied_at_its_tick():
    offset = np.zeros(2)
    offset[0] = 5.0
    spec = EnvironmentSpec(
        name="bumpy", d_s=2, d_a=2, dynamics=Dynamics.WAYPOINT_TRACKER,
        max_steps=200, disturbance_schedule=((100, offset),),
    )
    s = StateVector([0.0, 0.0])
    quiet = true_step(spec, s, zero_action(2), 99)
    assert np.array_equal(quiet.values, s.values)
    bumped = true_step(spec, s, zero_action(2), 100)
    assert bumped.values[0] == 5.0


def test_success_boundary_inclusive():
    spec = EnvironmentSpec(
        name="goal", d_s=2, d_a=2, dynamics=Dynamics.WAYPOINT_TRACKER,
        goal_center=np.array([1.0, 0.0]), goal_radius=0.5,
    )
    assert is_success(spec, StateVector([1.0, 0.0]))  # at center
    assert is_success(spec, StateVector([0.5, 0.0]))  # exactly on the boundary
    assert not is_success(spec, StateVector([0.49, 0.0]))
    assert not is_success(spec, StateVector([9.0, 9.0]))


def test_no_goal_means_never_successful():
    spec = _integrator_1d()
    assert not is_success(spec, StateVector([0.0, 0.0]))


def test_trajectory_determinism():
    spec = get_spec("multi_stage")
    actions = [ActionVector(np.full(spec.d_a, 0.1 * i)) for i in range(5)]

    def run():
        s = StateVector(np.zeros(spec.d_s))
        out = []
        for t, a in enumerate(actions):
            s = true_step(spec, s, a, t)
            out.append(s.values.copy())
        return np.array(out)

    assert np.array_equal(run(), run())


def test_start_state_jitter_is_seeded():
    spec = get_spec("free_space")
    a = start_state(spec, np.random.default_rng(5))
    b = start_state(spec, np.random.default_rng(5))
    c = start_state(spec, np.random.default_rng(6))
    assert a == b
    assert a != c
    assert np.max(np.abs(a.values)) <= spec.start_jitter + 1e-12


def test_dimension_validation():
    with pytest.raises(DimensionError):
        EnvironmentSpec(name="bad", d_s=3, d_a=2, dynamics=Dynamics.INTEGRATOR)
    with pytest.raises(DimensionError):
        EnvironmentSpec(name="bad", d_s=3, d_a=2, dynamics=Dynamics.WAYPOINT_TRACKER)
    spec = _integrator_1d()
    with pytest.raises(DimensionError):
        true_step(spec, StateVector([0.0]), ActionVector([1.0]), 0)
    with pytest.raises(DimensionError):
        true_step(spec, StateVector([0.0, 0.0]), ActionVector([1.0, 1.0]), 0)


def test_disturbance_schedule_must_be_increasing():
    with pytest.raises(ValueError):
        EnvironmentSpec(
            name="bad", d_s=1, d_a=1, dynamics=Dynamics.WAYPOINT_TRACKER,
            disturbance_schedule=((5, np.zeros(1)), (5, np.zeros(1))),
        )


def test_canonical_specs_cover_the_ladder():
    specs = canonical_specs()
    assert set(specs) == {"free_space", "tight_tolerance", "multi_stage"}
    assert specs["tight_tolerance"].goal_radius < specs["free_space"].goal_radius
    assert len(specs["multi_stage"].waypoints) == 3
    assert len(specs["multi_stage"].disturbance_schedule) == 2
    with pytest.raises(KeyError):
        get_spec("warehouse")


@pytest.mark.parametrize("name", ["free_space", "tight_tolerance", "multi_stage"])
def test_expert_reaches_goal_without_network(name):
    """Sanity precondition for every baseline comparison."""
    spec = get_spec(name)
    policy = make_policy(spec)
    s = start_state(spec, np.random.default_rng(0))
    for tick in range(spec.max_steps):
        s = true_step(spec, s, policy.act(s), tick)
        if is_success(spec, s):
            break
    assert is_success(spec, s)


def test_load_disturbances_csv(tmp_path):
    path = tmp_path / "bumps.csv"
    path.write_text("step_index,dim,offset\n# comment\n100,0,5.0\n100,1,-1.0\n200,0,2.5\n")
    schedule = load_disturbances_csv(path, d_s=3)
    assert [s for s, _ in schedule] == [100, 200]
    assert np.array_equal(schedule[0][1], [5.0, -1.0, 0.0])
    with pytest.raises(ConfigError, match="bumps.csv:4: disturbance dim 1 out of range"):
        load_disturbances_csv(path, d_s=1)


def test_load_environment_from_file(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text(
        "name = bench\n"
        "d_s = 4\nd_a = 4\n"
        "dynamics = waypoint_tracker\n"
        "max_steps = 300\n"
        "goal_radius = 0.2\n"
        "waypoints = 0.5,-0.5,0.5,-0.5\n"
        "gain = 3.0\n"
    )
    spec = load_environment(path)
    assert spec.name == "bench"
    assert spec.d_s == 4
    assert spec.max_steps == 300
    assert np.array_equal(spec.goal_center, [0.5, -0.5, 0.5, -0.5])
    assert spec.gain == 3.0


@pytest.mark.parametrize(
    "text, disturbances, message",
    [
        ("d_s = 4\nd_a = 4\ngoal_raduis = 0.2\n", None, "unknown config key 'goal_raduis'"),
        ("d_s = 4\nd_a = 4\ngoal_radius 0.2\n", None, "expected 'key = value'"),
        ("d_a = 4\n", None, "missing required key 'd_s'"),
        ("d_s = 4\n", None, "missing required key 'd_a'"),
        ("d_s = four\nd_a = 4\n", None, "bad value for d_s"),
        ("d_s = 4\nd_a = 4\nwaypoints = 0.5,x,0.5,0.5\n", None, "bad value for waypoints"),
        ("d_s = 4\nd_a = 4\ndynamics = contact_scripted\n", None, "bad value for dynamics"),
        ("d_s = 4\nd_a = 2\n", None, "tracker dynamics require d_s == d_a"),
        ("d_s = 4\nd_a = 4\nwaypoints = 0.5,0.5,0.5\n", None, "waypoint must have 4 components"),
        ("d_s = 4\nd_a = 4\ngoal_center = 1,2\n", None, "goal_center must have 4 components"),
        ("d_s = 4\nd_a = 4\nstart = 0,0,0,0,0\n", None, "start must have 4 components"),
        ("d_s = 4\nd_a = 4\n", "step_index,dim,offset\n10,1\n", "dist.csv:2: expected step_index"),
        ("d_s = 4\nd_a = 4\n", "# bumps\n10,zero,1.0\n", "dist.csv:2: expected step_index"),
        ("d_s = 4\nd_a = 4\n", "10,0,1.0\n20,4,1.0\n", "dist.csv:2: disturbance dim 4 out of range"),
    ],
    ids=[
        "unknown-key", "no-equals", "missing-d_s", "missing-d_a", "bad-int",
        "bad-vector", "bad-dynamics", "spec-invariant", "short-waypoint", "short-goal",
        "long-start", "short-row", "non-numeric-row", "dim-out-of-range",
    ],
)
def test_load_environment_rejects_bad_files(tmp_path, text, disturbances, message):
    path = tmp_path / "env.cfg"
    path.write_text(text)
    csv_path = None
    if disturbances is not None:
        csv_path = tmp_path / "dist.csv"
        csv_path.write_text(disturbances)
    with pytest.raises(ConfigError) as exc:
        load_environment(path, disturbances_csv=csv_path)
    assert any(message in err for err in exc.value.errors), exc.value.errors
