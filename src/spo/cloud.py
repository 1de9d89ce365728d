"""Cloud-side speculative generation.

Pluggable policy / world-model interfaces, the autoregressive K-step rollout,
and the per-session refill handler that couples the rollout to the adaptive
horizon controller. Two world-model families are provided: an oracle that
wraps the environment's true dynamics, and a drifted variant (oracle plus a
per-step additive bias and seeded Gaussian noise) standing in for a learned
predictor of modest accuracy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .ahs import AhsState, record_violation, update_horizon
from .environments import EnvironmentSpec, true_step
from .types import ActionVector, SpeculativeTuple, SpoConfig, StateVector


# The drifted model's per-step bias and noise standard deviation, by default.
DRIFT_BIAS = 8e-4
DRIFT_NOISE = 2e-4


class RolloutError(RuntimeError):
    """Speculative generation aborted (dimension mismatch or model blow-up)."""


class Policy(Protocol):
    def act(self, state: StateVector) -> ActionVector: ...


class WorldModel(Protocol):
    def step(self, state: StateVector, action: ActionVector) -> StateVector: ...


@dataclass(frozen=True)
class RolloutRequest:
    """Edge-to-cloud refill request.

    ``step_index`` is the progress index of the last executed control action;
    generated tuples target ``step_index + 1 ..``. ``violation_error`` is the
    tube error that triggered the request, or 0 for plain starvation.
    """

    observed_state: StateVector
    violation_error: float
    step_index: int

    def __post_init__(self):
        if not self.violation_error >= 0:  # NaN too
            raise ValueError("violation_error must be >= 0")
        if self.step_index < 0:
            raise ValueError("step_index must be >= 0")


@dataclass(frozen=True)
class RolloutResponse:
    tuples: tuple
    horizon_used: int


class ScriptedExpertPolicy:
    """Waypoint-tracking expert: proportional velocity command, norm-clipped.

    Progress is recovered from the state alone (nearest polyline segment,
    later segments win ties), so the policy replans from whatever state it
    is given, including post-disturbance states.
    """

    def __init__(self, spec: EnvironmentSpec):
        self.spec = spec
        anchor = np.zeros(spec.position_dims)
        self._path = [anchor] + [np.asarray(w, dtype=np.float64) for w in spec.waypoints]
        # Each segment as (start, start-to-end, squared length), built once.
        self._segments = [(a, b - a, float(np.dot(b - a, b - a)))
                          for a, b in zip(self._path, self._path[1:])]

    def _target(self, pos: np.ndarray) -> np.ndarray:
        if len(self._segments) < 2:
            return self._path[-1]
        best_k, best_d = 0, math.inf
        for k, (a, ab, denom) in enumerate(self._segments):
            t = 0.0 if denom == 0 else min(max(float(np.dot(pos - a, ab)) / denom, 0.0), 1.0)
            off = pos - (a + t * ab)
            d = math.sqrt(off.dot(off))
            if d <= best_d + 1e-9:
                best_k, best_d = k, min(best_d, d)
        return self._path[best_k + 1]

    def act(self, state: StateVector) -> ActionVector:
        pos = state.values[: self.spec.position_dims]
        target = self._target(pos)
        to_target = target - pos
        v = self.spec.gain * to_target
        speed = math.sqrt(v.dot(v))
        if speed > self.spec.a_max:
            v = v * (self.spec.a_max / speed)
        # Speed varies along the path so one-step deltas have usable variance
        # for inverse-variance weight calibration (constant-velocity motion
        # would be degenerate).
        dist = math.sqrt(to_target.dot(to_target))
        return ActionVector(v * (0.7 + 0.3 * np.cos(4.0 * dist)))


class OracleWorldModel:
    """The environment's true transition dynamics, minus scheduled disturbances."""

    def __init__(self, spec: EnvironmentSpec):
        self.spec = replace(spec, disturbance_schedule=())

    def step(self, state: StateVector, action: ActionVector) -> StateVector:
        return true_step(self.spec, state, action, 0)


class DriftedWorldModel:
    """Oracle dynamics plus per-step additive bias and seeded Gaussian noise.

    The noise is a pure function of (state, action, seed), so rollouts stay
    bitwise reproducible regardless of call order.
    """

    def __init__(self, inner: WorldModel, bias, noise_std: float = 0.0, seed: int = 0):
        self.inner = inner
        self.bias = np.atleast_1d(np.asarray(bias, dtype=np.float64))
        self.noise_std = float(noise_std)
        self._key = int(seed) & 0xFFFFFFFFFFFFFFFF

    def _noise(self, state: StateVector, action: ActionVector, n: int) -> np.ndarray:
        if self.noise_std == 0.0:
            return np.zeros(n)
        h = hashlib.blake2b(
            state.values.tobytes() + action.values.tobytes() + self._key.to_bytes(8, "little"),
            digest_size=8,
        ).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(h, "little")))
        return rng.normal(0.0, self.noise_std, n)

    def step(self, state: StateVector, action: ActionVector) -> StateVector:
        base = self.inner.step(state, action)
        bias = self.bias if self.bias.size == base.dim else np.resize(self.bias, base.dim)
        return StateVector(base.values + bias + self._noise(state, action, base.dim))


def speculative_rollout(
    start: StateVector,
    horizon: int,
    policy: Policy,
    model: WorldModel,
    start_step: int = 0,
) -> list[SpeculativeTuple]:
    """Autoregressive K-step rollout: a_k = policy(s_k), s_{k+1} = model(s_k, a_k).

    Tuple k carries (s_{k+1}, a_k) and targets progress step start_step + k.
    """
    if horizon < 1:
        raise RolloutError("horizon must be >= 1")
    tuples: list[SpeculativeTuple] = []
    s = start
    for k in range(1, horizon + 1):
        try:
            a = policy.act(s)
            s_next = model.step(s, a)
        except (ValueError, FloatingPointError) as exc:
            raise RolloutError(f"world model diverged at depth {k}: {exc}") from exc
        if s_next.dim != start.dim:
            raise RolloutError(
                f"model output dimension {s_next.dim} != state dimension {start.dim}"
            )
        tuples.append(SpeculativeTuple(s_next, a, step_index=start_step + k))
        s = s_next
    return tuples


class CloudSession:
    """Per-edge-session cloud endpoint state: policy, model, and horizon control.

    ``fixed_horizon`` overrides the adaptive controller for baseline kinds;
    ``fixed_horizon == 0`` means blocking mode, where each reply carries a
    single direct action for the observed state instead of a speculative
    rollout (``horizon_used`` is reported as 0).
    """

    def __init__(
        self,
        cfg: SpoConfig,
        policy: Policy,
        model: WorldModel,
        fixed_horizon: int | None = None,
    ):
        self.cfg = cfg
        self.policy = policy
        self.model = model
        self.fixed_horizon = fixed_horizon
        self.ahs = AhsState.initial(cfg)

    def handle(self, req: RolloutRequest) -> RolloutResponse:
        """One refill: for the adaptive kind, apply the AIMD horizon update first."""
        if self.fixed_horizon is None:
            if req.violation_error > 0:
                self.ahs = record_violation(self.ahs, req.violation_error)
            self.ahs = update_horizon(self.ahs, self.cfg.epsilon_base)
            horizon = self.ahs.horizon
        else:
            horizon = self.fixed_horizon
        tuples = speculative_rollout(
            req.observed_state, max(1, horizon), self.policy, self.model,
            start_step=req.step_index,
        )
        return RolloutResponse(tuples=tuple(tuples), horizon_used=horizon)


def make_policy(spec: EnvironmentSpec) -> ScriptedExpertPolicy:
    return ScriptedExpertPolicy(spec)


def make_model(
    spec: EnvironmentSpec,
    kind: str = "oracle",
    drift_bias: float = DRIFT_BIAS,
    drift_noise: float = DRIFT_NOISE,
    seed: int = 0,
) -> WorldModel:
    oracle = OracleWorldModel(spec)
    if kind == "oracle":
        return oracle
    if kind == "drifted":
        bias = np.full(spec.d_s, drift_bias)
        return DriftedWorldModel(oracle, bias, noise_std=drift_noise, seed=seed)
    raise ValueError(f"unknown model kind {kind!r}")


__all__ = [
    "CloudSession",
    "DriftedWorldModel",
    "OracleWorldModel",
    "Policy",
    "RolloutError",
    "RolloutRequest",
    "RolloutResponse",
    "ScriptedExpertPolicy",
    "WorldModel",
    "make_model",
    "make_policy",
    "speculative_rollout",
]
