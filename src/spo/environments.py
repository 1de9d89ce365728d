"""Deterministic synthetic MDPs used as desk-scale stand-ins for manipulation tasks.

Three canonical specs mirror an increasing-complexity ladder:

* ``free_space``      - single waypoint, no disturbances, generous goal radius
* ``tight_tolerance`` - same physics, small goal radius (insertion-like)
* ``multi_stage``     - several waypoints plus scripted contact disturbances

Physics are intentionally simple: positions integrate velocity actions, and a
zero action is a physical stop (state frozen). Scheduled disturbances add a
state offset at a fixed control tick, standing in for contact events.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .types import (
    ActionVector, ConfigError, DimensionError, StateVector, parse_config_text, read_text,
)


class Dynamics(enum.Enum):
    INTEGRATOR = "integrator"
    WAYPOINT_TRACKER = "waypoint_tracker"


@dataclass(frozen=True)
class EnvironmentSpec:
    """Static description of one synthetic task.

    ``INTEGRATOR`` state layout is [positions (d_a), velocity echo (d_a)],
    so d_s = 2 * d_a. The tracker dynamics use a position-only state with
    d_s = d_a. ``waypoints`` and ``goal_center`` are position-layout vectors.
    """

    name: str
    d_s: int
    d_a: int
    dynamics: Dynamics
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
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.dynamics is Dynamics.INTEGRATOR:
            if self.d_s != 2 * self.d_a:
                raise DimensionError("integrator dynamics require d_s == 2 * d_a")
        elif self.d_s != self.d_a:
            raise DimensionError("tracker dynamics require d_s == d_a")
        steps = [s for s, _ in self.disturbance_schedule]
        if steps != sorted(set(steps)):
            raise ValueError("disturbance step indices must be strictly increasing")
        pos = self.position_dims
        sized = [("waypoint", w, pos) for w in self.waypoints]
        sized += [("disturbance offset", o, self.d_s) for _, o in self.disturbance_schedule]
        sized += [("goal_center", self.goal_center, pos), ("start", self.start, self.d_s)]
        for label, vector, size in sized:
            if vector is not None and np.asarray(vector).size != size:
                raise DimensionError(f"{label} must have {size} components")

    @property
    def position_dims(self) -> int:
        return self.d_a if self.dynamics is Dynamics.INTEGRATOR else self.d_s


def true_step(
    spec: EnvironmentSpec, state: StateVector, action: ActionVector, step_index: int
) -> StateVector:
    """Ground-truth transition, including any scheduled disturbance at this tick."""
    if state.dim != spec.d_s:
        raise DimensionError(f"state dimension {state.dim} != d_s {spec.d_s}")
    if action.dim != spec.d_a:
        raise DimensionError(f"action dimension {action.dim} != d_a {spec.d_a}")
    if spec.dynamics is Dynamics.INTEGRATOR:
        nxt = state.values.copy()
        nxt[: spec.d_a] += action.values * spec.dt
        nxt[spec.d_a :] = action.values
    else:
        nxt = state.values + action.values * spec.dt
    for when, offset in spec.disturbance_schedule:
        if when == step_index:
            nxt = nxt + np.asarray(offset, dtype=np.float64)
    return StateVector(nxt)


def is_success(spec: EnvironmentSpec, state: StateVector) -> bool:
    """True iff the state lies within the goal radius (boundary inclusive)."""
    if spec.goal_center is None:
        return False
    off = state.values[: spec.position_dims] - spec.goal_center
    return math.sqrt(off.dot(off)) <= spec.goal_radius


def start_state(spec: EnvironmentSpec, rng: np.random.Generator | None = None) -> StateVector:
    """Initial state; per-seed jitter perturbs the start positions."""
    base = np.zeros(spec.d_s) if spec.start is None else np.asarray(spec.start, dtype=np.float64).copy()
    if rng is not None and spec.start_jitter > 0:
        base[: spec.position_dims] += rng.uniform(
            -spec.start_jitter, spec.start_jitter, spec.position_dims
        )
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
        dynamics=Dynamics.WAYPOINT_TRACKER,
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
        dynamics=Dynamics.WAYPOINT_TRACKER,
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
        dynamics=Dynamics.WAYPOINT_TRACKER,
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


def load_disturbances_csv(path, d_s: int) -> tuple:
    """Read a (step_index, dim, offset) CSV into a disturbance schedule."""
    offsets: dict[int, np.ndarray] = {}
    reader = csv.reader(read_text(path).splitlines())
    for row in reader:
        if not row or row[0].strip().startswith("#") or row[0].strip() == "step_index":
            continue
        where = f"{path}:{reader.line_num}"
        try:
            step, dim, offset = int(row[0]), int(row[1]), float(row[2])
        except (IndexError, ValueError):
            raise ConfigError([f"{where}: expected step_index,dim,offset, got {row}"]) from None
        if not (0 <= dim < d_s):
            raise ConfigError([f"{where}: disturbance dim {dim} out of range for d_s={d_s}"])
        offsets.setdefault(step, np.zeros(d_s))[dim] += offset
    return tuple(sorted((s, v) for s, v in offsets.items()))


def _vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


# The keys of a spec file, each with the converter of its value.
_SPEC_FIELD_TYPES = {
    "name": str, "d_s": int, "d_a": int, "dynamics": Dynamics, "dt": float,
    "max_steps": int, "goal_radius": float, "start_jitter": float, "gain": float,
    "a_max": float, "goal_center": _vector, "start": _vector,
    "waypoints": lambda text: tuple(_vector(p) for p in text.split(";") if p.strip()),
}


def load_environment(path, disturbances_csv=None) -> EnvironmentSpec:
    """Load an environment spec from the flat key-value config format.

    ``d_s`` and ``d_a`` are required; ``goal_center`` defaults to the last
    waypoint. Any fault in the file raises :class:`~spo.types.ConfigError`.
    """
    values = parse_config_text(read_text(path), _SPEC_FIELD_TYPES)
    missing = [f"missing required key {key!r}" for key in ("d_s", "d_a") if key not in values]
    if missing:
        raise ConfigError(missing)
    values = {"name": "custom", "dynamics": Dynamics.WAYPOINT_TRACKER, **values}
    if values.get("waypoints"):
        values.setdefault("goal_center", values["waypoints"][-1])
    if disturbances_csv is not None:
        values["disturbance_schedule"] = load_disturbances_csv(disturbances_csv, values["d_s"])
    try:
        return EnvironmentSpec(**values)
    except ValueError as exc:
        raise ConfigError([f"{path}: {exc}"]) from None
