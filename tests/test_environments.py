"""Synthetic environments: dynamics, goals, disturbances, loaders."""

import numpy as np
import pytest

from spo.cloud import make_policy
from spo.environments import (
    EnvironmentSpec,
    canonical_specs,
    get_spec,
    is_success,
    load_environment,
    start_state,
    true_step,
)
from spo.types import ActionVector, ConfigError, DimensionError, StateVector, zero_action


def test_zero_action_freezes_position():
    spec = get_spec("free_space")
    s = StateVector(np.linspace(-1, 1, spec.d_s))
    nxt = true_step(spec, s, zero_action(spec.d_a), 3)
    assert np.array_equal(nxt.values, s.values)


def test_scheduled_disturbance_applied_at_its_tick():
    offset = np.zeros(2)
    offset[0] = 5.0
    spec = EnvironmentSpec(
        name="bumpy", d_s=2, d_a=2, max_steps=200, disturbance_schedule=((100, offset),),
    )
    s = StateVector([0.0, 0.0])
    quiet = true_step(spec, s, zero_action(2), 99)
    assert np.array_equal(quiet.values, s.values)
    bumped = true_step(spec, s, zero_action(2), 100)
    assert bumped.values[0] == 5.0


def test_success_boundary_inclusive():
    spec = EnvironmentSpec(
        name="goal", d_s=2, d_a=2, goal_center=np.array([1.0, 0.0]), goal_radius=0.5,
    )
    assert is_success(spec, StateVector([1.0, 0.0]))  # at center
    assert is_success(spec, StateVector([0.5, 0.0]))  # exactly on the boundary
    assert not is_success(spec, StateVector([0.49, 0.0]))
    assert not is_success(spec, StateVector([9.0, 9.0]))


def _toy_1d():
    return EnvironmentSpec(name="toy", d_s=1, d_a=1, dt=0.02, max_steps=10)


def test_no_goal_means_never_successful():
    spec = _toy_1d()
    assert not is_success(spec, StateVector([0.0]))


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
        EnvironmentSpec(name="bad", d_s=2, d_a=1)
    with pytest.raises(DimensionError):
        EnvironmentSpec(name="bad", d_s=3, d_a=2)
    spec = _toy_1d()
    with pytest.raises(DimensionError, match=r"^state dimension 2 != d_s 1$"):
        true_step(spec, StateVector([0.0, 0.0]), ActionVector([1.0]), 0)
    with pytest.raises(DimensionError, match=r"^action dimension 2 != d_a 1$"):
        true_step(spec, StateVector([0.0]), ActionVector([1.0, 1.0]), 0)


def test_disturbance_schedule_must_be_increasing():
    with pytest.raises(ValueError):
        EnvironmentSpec(
            name="bad", d_s=1, d_a=1,
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


def test_load_environment_reads_the_disturbance_schedule(tmp_path):
    path = tmp_path / "bumps.cfg"
    path.write_text(
        "d_s = 3\nd_a = 3\n"
        "# one full offset vector per step, steps in increasing order\n"
        "disturbance_schedule = 100: 5.0,-1.0,0.0; 200: 2.5, 0, -0.0\n"
    )
    schedule = load_environment(path).disturbance_schedule
    assert [s for s, _ in schedule] == [100, 200]
    assert np.array_equal(schedule[0][1], [5.0, -1.0, 0.0])
    assert np.array_equal(schedule[1][1], [2.5, 0.0, 0.0])
    assert np.signbit(schedule[1][1][2])  # -0.0 is read as written


def test_load_environment_from_file(tmp_path):
    path = tmp_path / "env.cfg"
    path.write_text(
        "name = bench\n"
        "d_s = 4\nd_a = 4\n"
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
    "text, message",
    [
        ("d_s = 4\nd_a = 4\ngoal_raduis = 0.2\n", "env.cfg:3: unknown config key 'goal_raduis'"),
        ("d_s = 4\nd_a = 4\ngoal_radius 0.2\n", "env.cfg:3: expected 'key = value'"),
        ("d_a = 4\n", "env.cfg: missing required key 'd_s'"),
        ("d_s = 4\n", "env.cfg: missing required key 'd_a'"),
        ("d_s = four\nd_a = 4\n", "env.cfg:1: bad value for d_s"),
        ("d_s = 4\nd_a = 4\nwaypoints = 0.5,x,0.5,0.5\n", "env.cfg:3: bad value for waypoints"),
        ("d_s = 4\nd_a = 4\ndynamics = integrator\n", "unknown config key 'dynamics'"),
        ("d_s = 4\nd_a = 2\n", "d_s must equal d_a"),
        ("d_s = 4\nd_a = 4\nwaypoints = 0.5,0.5,0.5\n", "waypoint must have 4 components"),
        ("d_s = 4\nd_a = 4\ngoal_center = 1,2\n", "goal_center must have 4 components"),
        ("d_s = 4\nd_a = 4\nstart = 0,0,0,0,0\n", "start must have 4 components"),
        ("d_s = 4\nd_a = 4\ndisturbance_schedule = 10: 0,1,0,0; 20\n",
         "env.cfg:3: bad value for disturbance_schedule"),
        ("d_s = 4\nd_a = 4\ndisturbance_schedule = 10: 0,zero,1.0,0\n",
         "env.cfg:3: bad value for disturbance_schedule"),
        ("d_s = 4\nd_a = 4\ndisturbance_schedule = 10: 0,0,0,0,1.0\n",
         "env.cfg: disturbance offset must have 4 components"),
        ("d_s = 4\nd_a = 4\ndisturbance_schedule = 20: 0,0,0,1; 10: 0,0,0,1\n",
         "env.cfg: disturbance step indices must be strictly increasing"),
        ("d_s = 2\nd_a = 2\nstart = nan,0\n", "env.cfg: start contains non-finite entries"),
        ("d_s = 2\nd_a = 2\ngain = inf\n", "env.cfg: gain = inf is not finite"),
        ("d_s = 2\nd_a = 2\ndt = nan\n", "env.cfg: dt = nan is not finite"),
        ("d_s = 2\nd_a = 2\ndt = 0\n", "env.cfg: dt > 0 violated"),
        ("d_s = 2\nd_a = 2\ngoal_radius = nan\n", "env.cfg: goal_radius = nan is not finite"),
        ("d_s = 2\nd_a = 2\ngoal_radius = -0.1\n", "env.cfg: goal_radius >= 0 violated"),
        ("d_s = 2\nd_a = 2\na_max = nan\n", "env.cfg: a_max = nan is not finite"),
        ("d_s = 2\nd_a = 2\ngain = 0\n", "env.cfg: gain > 0 violated"),
        ("d_s = 2\nd_a = 2\ngain = -2\n", "env.cfg: gain > 0 violated"),
        ("d_s = 2\nd_a = 2\na_max = -1\n", "env.cfg: a_max > 0 violated"),
        ("d_s = 2\nd_a = 2\nstart_jitter = -1\n", "env.cfg: start_jitter >= 0 violated"),
        ("d_s = 2\nd_a = 2\nwaypoints = 1,1; inf,1\n",
         "env.cfg: waypoint contains non-finite entries"),
        ("d_s = 2\nd_a = 2\ngoal_center = 1,nan\n",
         "env.cfg: goal_center contains non-finite entries"),
        ("d_s = 2\nd_a = 2\ndisturbance_schedule = 5: 0,-inf\n",
         "env.cfg: disturbance offset contains non-finite entries"),
    ],
    ids=[
        "unknown-key", "no-equals", "missing-d_s", "missing-d_a", "bad-int",
        "bad-vector", "bad-dynamics", "spec-invariant", "short-waypoint", "short-goal",
        "long-start", "short-row", "non-numeric-row", "dim-out-of-range", "unordered-schedule",
        "start-nan", "gain-inf", "dt-nan", "dt-zero", "goal-radius-nan", "goal-radius-negative",
        "a-max-nan", "gain-zero", "gain-negative", "a-max-negative", "start-jitter-negative",
        "waypoint-inf", "goal-center-nan", "offset-inf",
    ],
)
def test_load_environment_rejects_bad_files(tmp_path, text, message):
    path = tmp_path / "env.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_environment(path)
    assert any(message in err for err in exc.value.errors), exc.value.errors
    assert all(err.startswith(str(path)) for err in exc.value.errors), exc.value.errors


def test_spec_lists_every_fault():
    with pytest.raises(ConfigError) as exc:
        EnvironmentSpec(name="bad", d_s=2, d_a=2, dt=float("nan"), max_steps=0,
                        goal_radius=-1.0, waypoints=(np.zeros(3),), start=np.array([np.inf, 0]))
    assert exc.value.errors == [
        "dt = nan is not finite", "max_steps >= 1 violated", "goal_radius >= 0 violated",
        "waypoint must have 2 components", "start contains non-finite entries",
    ]
