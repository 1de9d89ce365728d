"""Deterministic synthetic MDPs used as desk-scale stand-ins for manipulation tasks.

Three canonical specs mirror an increasing-complexity ladder:

* ``free_space``      - single waypoint, no disturbances, generous goal radius
* ``tight_tolerance`` - same physics, small goal radius (insertion-like)
* ``multi_stage``     - one leg (three waypoints on one line) plus two contact disturbances

Physics are intentionally simple: positions integrate velocity actions, and a
zero action is a physical stop (state frozen). Scheduled disturbances add a
state offset at a fixed control tick, standing in for contact events.

A custom task is one ``key = value`` spec file (see :func:`load_environment`),
its disturbances included: ``disturbance_schedule = 220: 0.45,-0.35,0,0; 520: ...``
lists each step index with a full offset vector, in increasing step order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import (
    ActionVector, ConfigError, DimensionError, StateVector, owned, parse_config_file, parse_vector,
)


@dataclass(frozen=True)
class EnvironmentSpec:
    """Static description of one synthetic task.

    The state is a position and the action its velocity, so d_s = d_a.
    """

    name: str
    d_s: int
    d_a: int
    dt: float = 0.02
    max_steps: int = 600
    waypoints: tuple = ()
    goal_center: np.ndarray | None = None
    goal_radius: float = 0.1
    disturbance_schedule: tuple = ()
    start: np.ndarray | None = None
    start_jitter: float = 0.0
    gain: float = 2.0
    a_max: float = 1.0

    def __post_init__(self):
        if self.d_s < 1 or self.d_a < 1:
            raise DimensionError("d_s and d_a must be >= 1")
        if self.d_s != self.d_a:
            raise DimensionError("d_s must equal d_a: the action is the velocity of the state")
        errors = [f"{name} = {value} is not finite" for name, value in vars(self).items()
                  if isinstance(value, float) and not math.isfinite(value)]
        violated = {"max_steps >= 1": self.max_steps < 1, "dt > 0": self.dt <= 0,
                    "gain > 0": self.gain <= 0, "a_max > 0": self.a_max <= 0,
                    "goal_radius >= 0": self.goal_radius < 0,
                    "start_jitter >= 0": self.start_jitter < 0}
        errors += [f"{rule} violated" for rule, bad in violated.items() if bad]
        steps = [s for s, _ in self.disturbance_schedule]
        if steps != sorted(set(steps)):
            errors.append("disturbance step indices must be strictly increasing")
        sized = [("waypoint", w) for w in self.waypoints]
        sized += [("disturbance offset", o) for _, o in self.disturbance_schedule]
        sized += [("goal_center", self.goal_center), ("start", self.start)]
        for label, vector in sized:
            if vector is None:
                continue
            values = np.asarray(vector, dtype=np.float64)
            if values.size != self.d_s:
                errors.append(f"{label} must have {self.d_s} components")
            elif not np.isfinite(values).all():
                errors.append(f"{label} contains non-finite entries")
        if errors:
            raise ConfigError(errors)


def next_values(
    spec: EnvironmentSpec, state: StateVector, action: ActionVector, step_index: int
) -> np.ndarray:
    """The unchecked array of :func:`true_step`'s next state, for a caller that adds to it."""
    if state.values.size != spec.d_s:
        raise DimensionError(f"state dimension {state.dim} != d_s {spec.d_s}")
    if action.values.size != spec.d_a:
        raise DimensionError(f"action dimension {action.dim} != d_a {spec.d_a}")
    nxt = state.values + action.values * spec.dt
    for when, offset in spec.disturbance_schedule:
        if when == step_index:
            nxt = nxt + np.asarray(offset, dtype=np.float64)
    return nxt


def true_step(
    spec: EnvironmentSpec, state: StateVector, action: ActionVector, step_index: int
) -> StateVector:
    """Ground-truth transition, including any scheduled disturbance at this tick."""
    return owned(StateVector, next_values(spec, state, action, step_index))


def is_success(spec: EnvironmentSpec, state: StateVector) -> bool:
    """True iff the state lies within the goal radius (boundary inclusive)."""
    if spec.goal_center is None:
        return False
    off = state.values - spec.goal_center
    return math.sqrt(off.dot(off)) <= spec.goal_radius


def start_state(spec: EnvironmentSpec, rng: np.random.Generator | None = None) -> StateVector:
    """Initial state; per-seed jitter perturbs the start positions."""
    base = np.zeros(spec.d_s) if spec.start is None else np.asarray(spec.start, dtype=np.float64).copy()
    if rng is not None and spec.start_jitter > 0:
        base += rng.uniform(-spec.start_jitter, spec.start_jitter, spec.d_s)
    return StateVector(base)


def _spread(scale: float, d: int) -> np.ndarray:
    # Deterministic, all-dims-active target so weight calibration never degenerates.
    ramp = np.linspace(1.0, 0.35, d)
    ramp[1::2] *= -1.0
    return scale * ramp


def canonical_specs() -> dict[str, EnvironmentSpec]:
    d = 8
    wp_free = _spread(1.2, d)
    free_space = EnvironmentSpec(
        name="free_space",
        d_s=d,
        d_a=d,
        max_steps=600,
        waypoints=(wp_free,),
        goal_center=wp_free,
        goal_radius=0.25,
        start_jitter=0.05,
        gain=2.0,
    )
    wp_tight = _spread(1.2, d)
    tight_tolerance = EnvironmentSpec(
        name="tight_tolerance",
        d_s=d,
        d_a=d,
        max_steps=800,
        waypoints=(wp_tight,),
        goal_center=wp_tight,
        goal_radius=0.06,
        start_jitter=0.05,
        gain=4.0,
    )
    w1 = _spread(1.6, d)
    w2 = _spread(-1.2, d)
    w3 = _spread(2.2, d)
    bump = np.zeros(d)
    bump[0] = 0.45
    bump[1] = -0.35
    multi_stage = EnvironmentSpec(
        name="multi_stage",
        d_s=d,
        d_a=d,
        max_steps=2000,
        waypoints=(w1, w2, w3),
        goal_center=w3,
        goal_radius=0.15,
        disturbance_schedule=((220, bump), (520, -bump)),
        start_jitter=0.05,
        gain=2.0,
    )
    return {
        "free_space": free_space,
        "tight_tolerance": tight_tolerance,
        "multi_stage": multi_stage,
    }


def get_spec(name: str) -> EnvironmentSpec:
    specs = canonical_specs()
    if name not in specs:
        raise KeyError(f"unknown environment {name!r}; have {sorted(specs)}")
    return specs[name]


def _schedule(text: str) -> tuple:
    entries = [entry.split(":") for entry in text.split(";") if entry.strip()]
    return tuple((int(step), parse_vector(offset)) for step, offset in entries)


# The keys of a spec file, each with the converter of its value.
_SPEC_FIELD_TYPES = {
    "name": str, "d_s": int, "d_a": int, "dt": float,
    "max_steps": int, "goal_radius": float, "start_jitter": float, "gain": float,
    "a_max": float, "goal_center": parse_vector, "start": parse_vector,
    "waypoints": lambda text: tuple(parse_vector(p) for p in text.split(";") if p.strip()),
    "disturbance_schedule": _schedule,
}


def load_environment(path) -> EnvironmentSpec:
    """Load an environment spec from a ``key = value`` spec file.

    The keys are the fields of :class:`EnvironmentSpec`. ``d_s`` and ``d_a``
    are required; ``goal_center`` defaults to the last waypoint. A vector is
    comma-separated floats, ``waypoints`` separates its vectors with ``;``, and
    ``disturbance_schedule`` is ``step: offset; step: offset; ...``. Any fault
    in the file raises :class:`~spo.types.ConfigError` naming ``path``.
    """
    values = {"name": "custom", **parse_config_file(path, _SPEC_FIELD_TYPES, ("d_s", "d_a"))}
    if values.get("waypoints"):
        values.setdefault("goal_center", values["waypoints"][-1])
    try:
        return EnvironmentSpec(**values)
    except ValueError as exc:
        raise ConfigError([f"{path}: {err}" for err in getattr(exc, "errors", [exc])]) from None
