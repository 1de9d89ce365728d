"""Cloud-side speculative generation.

Pluggable policy / world-model interfaces, the autoregressive K-step rollout,
and the per-session refill handler that couples the rollout to the adaptive
horizon controller. Two world-model families are provided: an oracle that
wraps the environment's true dynamics, and a drifted variant (oracle plus one
row of a seeded noise table drawn around a per-step bias) standing in for a
learned predictor of modest accuracy. States and actions are tuples of floats,
and each step computes on them in numpy's elementwise order with no BLAS, so the
rollout's floats do not depend on the CPU's kernel.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple, Protocol

import numpy as np

from .ahs import AhsState, update_horizon
from .environments import EnvironmentSpec, next_values
from .types import (ActionVector, ConfigError, DimensionError, SpeculativeTuple, SpoConfig,
                    StateVector, _checked, invariant_errors, owned)


# The drifted model's per-step bias and noise standard deviation, by default.
DRIFT_BIAS = 8e-4
DRIFT_NOISE = 2e-4


class RolloutError(RuntimeError):
    """Speculative generation aborted (dimension mismatch or model blow-up)."""


class Policy(Protocol):
    def act(self, state: StateVector) -> ActionVector: ...


class WorldModel(Protocol):
    """``step`` predicts the state that progress step ``step_index`` lands on."""
    def step(self, state: StateVector, action: ActionVector, step_index: int) -> StateVector: ...


class RolloutRequest(NamedTuple("RolloutRequest", [
        ("observed_state", StateVector), ("violation_error", float), ("step_index", int)])):
    """Edge-to-cloud refill request, an immutable named tuple.

    ``step_index`` is the progress index of the last executed control action;
    generated tuples target ``step_index + 1 ..``. ``violation_error`` is the
    tube error that triggered the request, or 0 for plain starvation.
    """

    __slots__ = ()

    def __new__(cls, observed_state: StateVector, violation_error: float, step_index: int):
        if not violation_error >= 0:  # NaN too
            raise ValueError("violation_error must be >= 0")
        if step_index < 0:
            raise ValueError("step_index must be >= 0")
        return tuple.__new__(cls, (observed_state, violation_error, step_index))


class RolloutResponse(NamedTuple):
    """A refill's tuples. ``horizon_used`` is the cloud's horizon, 0 for a blocking reply;
    it is not sent on the wire, and :func:`~spo.transport.decode_response` sets it to the
    tuple count, so no code past the wire reads it."""

    tuples: tuple
    horizon_used: int


class ScriptedExpertPolicy:
    """Waypoint-tracking expert: proportional velocity command, norm-clipped.

    Progress is recovered from the state alone (nearest polyline segment, later segments
    win ties), so the policy replans from whatever state it is given, including
    post-disturbance states. The leg search runs on Python floats built once, and measures
    each junction once: a leg's da = |p - a| is the leg before's db = |p - b|. A leg's
    distance is to its t = 1 point a + (b - a) past the end (t >= 1), da before the start
    (t <= 0), and √(da² - t²·|ab|²) between while that square is at least 1e-4·da², so at
    most four digits cancel: on the tests' probe states it is within 5e-13 of the projection
    point's for da <= 1e4, inside the 1e-9 tie band. Each leg's |ab|² is a numpy dot, taken
    once here; no per-step float goes through numpy.
    """

    def __init__(self, spec: EnvironmentSpec):
        self.spec = spec
        path = [np.zeros(spec.d_s)] + [np.asarray(w, dtype=np.float64) for w in spec.waypoints]
        self._path = [tuple(p.tolist()) for p in path]
        # Each leg as floats (a, b, b - a, a + (b - a), |b - a|²); b is its target.
        self._legs = [(pa, pb, tuple((b - a).tolist()), tuple((a + (b - a)).tolist()),
                       float((b - a).dot(b - a)))
                      for pa, pb, a, b in zip(self._path, self._path[1:], path, path[1:])]

    def _target(self, px: tuple) -> tuple:
        if len(self._legs) < 2:
            return self._path[-1]
        dist, sqrt = math.dist, math.sqrt
        best, best_d = self._path[1], math.inf
        db = dist(px, self._legs[0][0])
        for a, b, ab, end, denom in self._legs:
            d = da = db
            db = dist(px, b)
            if denom:
                da2 = da * da
                # The projection's t by the law of cosines: (p - a)·ab = (da² + denom - db²) / 2.
                t = (da2 + denom - db * db) / (2 * denom)
                if t >= 1.0:
                    d = dist(px, end)
                elif not t <= 0.0:  # below the guard, or for a NaN t, build the projection point
                    d2 = da2 - t * t * denom
                    d = sqrt(d2) if d2 >= 1e-4 * da2 else dist(px, [x + t * y for x, y in zip(a, ab)])
            if d <= best_d + 1e-9:
                best, best_d = b, (d if d < best_d else best_d)
        return best

    def act(self, state: StateVector) -> ActionVector:
        pos = state.values
        if len(pos) != self.spec.d_s:  # else a one-leg path's zip would truncate the action
            raise DimensionError(f"state dimension {state.dim} != d_s {self.spec.d_s}")
        v = [t - p for t, p in zip(self._target(pos), pos)]
        dist = math.hypot(*v)  # no BLAS: the same bits on every CPU
        gain, a_max = self.spec.gain, self.spec.a_max
        scale = gain if gain * dist <= a_max else a_max / dist
        # Speed varies along the path so one-step deltas have usable variance
        # for inverse-variance weight calibration (constant-velocity motion
        # would be degenerate). math.cos refuses an infinite 4·dist.
        c = scale * (0.7 + 0.3 * math.cos(4.0 * dist))
        v = tuple([x * c for x in v])
        if math.isfinite(dist):  # each component is then at most min(gain·dist, a_max)
            return _checked(ActionVector, v)
        return ActionVector(v)


class OracleWorldModel:
    """The environment's true transition dynamics, minus scheduled disturbances."""

    def __init__(self, spec: EnvironmentSpec):
        self.spec = replace(spec, disturbance_schedule=())

    def step(self, state: StateVector, action: ActionVector, step_index: int) -> StateVector:
        return owned(StateVector, next_values(self.spec, state, action, 0))


class DriftedWorldModel(OracleWorldModel):
    """The oracle's physics plus a per-step additive bias and seeded Gaussian noise.

    The step that lands on progress step p adds row p of a noise table, drawn around the
    bias, so the drift is one add per component. Its block b, ``BLOCK_ROWS`` rows of
    ``normal(bias, noise_std)``, is drawn from ``default_rng([seed, b])`` and turned into
    floats once, so row p is a pure function of (drift seed, p) whatever the call order,
    and a socket server draws the rows its virtual twin draws. At most ``BLOCKS_HELD`` blocks are kept. A non-finite
    bias or noise, or a negative noise, is a :class:`~spo.types.ConfigError` listing each.
    """

    BLOCK_ROWS, BLOCKS_HELD = 256, 4

    def __init__(self, spec: EnvironmentSpec, bias: float, noise_std: float = 0.0, seed: int = 0):
        super().__init__(spec)
        self.bias = float(bias)
        self.noise_std = float(noise_std)
        errors = invariant_errors({"drift_bias": self.bias, "drift_noise": self.noise_std},
                                  {"drift_noise >= 0": self.noise_std < 0})
        if errors:
            raise ConfigError(errors)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._blocks: dict[int, list] = {}

    def step(self, state: StateVector, action: ActionVector, step_index: int) -> StateVector:
        b, row = divmod(step_index, self.BLOCK_ROWS)
        if (block := self._blocks.get(b)) is None:
            if len(self._blocks) >= self.BLOCKS_HELD:
                self._blocks.clear()
            block = self._blocks[b] = np.random.default_rng([self.seed, b]).normal(
                self.bias, self.noise_std, (self.BLOCK_ROWS, self.spec.d_s)).tolist()
        return owned(StateVector, next_values(self.spec, state, action, 0, block[row]))


def speculative_rollout(
    start: StateVector,
    horizon: int,
    policy: Policy,
    model: WorldModel,
    start_step: int = 0,
) -> list[SpeculativeTuple]:
    """Autoregressive K-step rollout: a_k = policy(s_k), s_{k+1} = model(s_k, a_k, start_step + k).

    Tuple k carries (s_{k+1}, a_k) and targets progress step start_step + k. With no
    ``model`` the state does not advance: blocking mode's one tuple is (s_0, a_0).
    """
    if horizon < 1:
        raise RolloutError("horizon must be >= 1")
    if start_step < 0:  # so every index below is >= 1, and no tuple re-checks its own
        raise ValueError("step_index must be nonnegative")
    tuples: list[SpeculativeTuple] = []
    s, dim = start, start.dim
    act, step = policy.act, (None if model is None else model.step)  # looked up once per rollout
    for k in range(1, horizon + 1):
        try:
            a = act(s)
            s_next = s if step is None else step(s, a, start_step + k)
        except (ValueError, FloatingPointError) as exc:
            raise RolloutError(f"rollout diverged at depth {k}: {exc}") from exc
        if len(s_next.values) != dim:
            raise RolloutError(
                f"model output dimension {s_next.dim} != state dimension {dim}"
            )
        tuples.append(tuple.__new__(SpeculativeTuple, (s_next, a, start_step + k)))
        s = s_next
    return tuples


class CloudSession:
    """Per-edge-session cloud endpoint state: policy, model, and horizon control.

    ``fixed_horizon`` overrides the adaptive controller for baseline kinds;
    ``fixed_horizon == 0`` means blocking mode, where each reply is the one
    tuple (observed state, direct action), with no model step, instead of a
    speculative rollout (``horizon_used`` is reported as 0).
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
        self.ahs = AhsState(cfg.k_min)

    def handle(self, req: RolloutRequest) -> RolloutResponse:
        """One refill: for the adaptive kind, first the AIMD step for the error it reports."""
        if self.fixed_horizon is None:
            self.ahs = update_horizon(self.ahs, self.cfg, req.violation_error)
            horizon = self.ahs.horizon
        else:
            horizon = self.fixed_horizon
        tuples = speculative_rollout(
            req.observed_state, max(1, horizon), self.policy, self.model if horizon else None,
            start_step=req.step_index,
        )
        return RolloutResponse(tuples=tuple(tuples), horizon_used=horizon)


def make_policy(spec: EnvironmentSpec) -> ScriptedExpertPolicy:
    return ScriptedExpertPolicy(spec)


def make_model(
    spec: EnvironmentSpec,
    model_kind: str = "oracle",
    drift_bias: float = DRIFT_BIAS,
    drift_noise: float = DRIFT_NOISE,
    seed: int = 0,
) -> WorldModel:
    """The world model every layer builds; its arguments past ``spec`` are the run's world."""
    if model_kind == "oracle":
        return OracleWorldModel(spec)
    if model_kind == "drifted":
        return DriftedWorldModel(spec, drift_bias, noise_std=drift_noise, seed=seed)
    raise ValueError(f"unknown model kind {model_kind!r}")
