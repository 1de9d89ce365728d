"""Shared domain types and run configuration.

A state or action vector holds a tuple of Python floats: at eight components
numpy's per-call cost outweighs the arithmetic, so the hot paths compute on floats
in numpy's order and get its bits. The wire codec narrows to float32 (see
:mod:`spo.transport`). Every type here is an immutable value object, safe to pass
between the edge loop, the cloud handler, and test code without copying. A public
vector constructor checks and copies its input; :func:`owned` checks a tuple the
caller has just computed and wraps it as is.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_new, _setattr = object.__new__, object.__setattr__  # bound once, for :func:`_checked`


class DimensionError(ValueError):
    """A vector's length does not match the declared dimension."""


class ConfigError(ValueError):
    """One or more configuration invariants are violated.

    Carries the full list of violations in :attr:`errors`.
    """

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def _as_finite_vector(values, what: str) -> np.ndarray:
    """A float64 copy of ``values``, checked to be 1-D, non-empty and finite.

    ``count_nonzero`` skips the ufunc-reduce set-up that ``.all()`` pays on a short vector.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{what} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{what} must have at least one component")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def _checked(cls, values: tuple):
    """A ``cls`` holding ``values``, a tuple of floats that passed the constructor's checks."""
    vec = _new(cls)
    _setattr(vec, "values", values)
    return vec


def owned(cls, values):
    """``cls(values)`` without the copy, for a tuple of floats the caller has just computed.

    A non-empty tuple with a finite ``math.hypot`` (so every component is finite) is
    wrapped as it is; any other input goes through ``cls``, which keeps its messages.
    """
    if type(values) is tuple and values and math.isfinite(math.hypot(*values)):
        return _checked(cls, values)
    return cls(values)


@dataclass(frozen=True, eq=False)
class _Vector:
    """A dense real vector compared by value; a state never equals an action."""

    values: tuple

    @property
    def dim(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.values == other.values

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.values)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class StateVector(_Vector):
    """Dense real state vector of length d_s (normalized components)."""

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_as_finite_vector(self.values, "state").tolist()))


@dataclass(frozen=True, eq=False, repr=False)
class ActionVector(_Vector):
    """Dense real action vector of length d_a (velocity targets + gripper)."""

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_as_finite_vector(self.values, "action").tolist()))

    def is_zero(self) -> bool:
        return not any(self.values)


def zero_action(d_a: int) -> ActionVector:
    """The hold/safe-stop action: all d_a components zero."""
    if d_a < 1:
        raise DimensionError("action dimension must be >= 1")
    return ActionVector([0.0] * int(d_a))


class SpeculativeTuple(NamedTuple("SpeculativeTuple", [
        ("predicted_state", StateVector), ("action", ActionVector), ("step_index", int)])):
    """One predicted (next-state, action) pair, the unit of caching and transfer.

    ``step_index`` is the absolute control step the tuple targets; successive
    tuples of one rollout increase it by exactly 1. An immutable named tuple.
    """

    __slots__ = ()

    def __new__(cls, predicted_state: StateVector, action: ActionVector, step_index: int):
        if step_index < 0:
            raise ValueError("step_index must be nonnegative")
        return tuple.__new__(cls, (predicted_state, action, step_index))


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Diagonal of the inverse-variance normalization matrix (length d_s).

    ``roots`` holds each weight's square root as floats, for the tube error's root-weighted sum.
    """

    inverse_variances: np.ndarray
    roots: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        arr = _as_finite_vector(self.inverse_variances, "weights")
        if np.any(arr <= 0.0):
            raise ValueError("weights must be strictly positive")
        arr.setflags(write=False)
        object.__setattr__(self, "inverse_variances", arr)
        object.__setattr__(self, "roots", tuple(np.sqrt(arr).tolist()))

    @property
    def dim(self) -> int:
        return self.inverse_variances.size

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightMatrix) and np.array_equal(
            self.inverse_variances, other.inverse_variances
        )


@dataclass(frozen=True)
class SpoConfig:
    """Run configuration: tube tolerance, horizon bounds, and network shape.

    Every default is a plain ``int`` or ``float``; the config file parser
    takes each field's type from it. Building a config that violates an
    invariant of :func:`config_errors` raises :class:`ConfigError`.
    """

    epsilon_base: float = 20.0
    k_min: int = 2
    k_max: int = 10
    beta: int = 1
    control_interval: float = 0.02
    rtt_base: float = 0.15
    jitter_half_width: float = 0.03
    rng_seed: int = 0

    def __post_init__(self):
        errors = config_errors(self)
        if errors:
            raise ConfigError(errors)


_CONFIG_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(SpoConfig)}


def invariant_errors(values: dict, violated: dict) -> list[str]:
    """``name = value is not finite`` for each non-finite float of ``values``, then
    ``rule violated`` for each rule that ``violated`` flags, each in its order."""
    return ([f"{name} = {value} is not finite" for name, value in values.items()
             if isinstance(value, float) and not math.isfinite(value)]
            + [f"{rule} violated" for rule, bad in violated.items() if bad])


def config_errors(cfg: SpoConfig) -> list[str]:
    """Every violated configuration invariant, as ``field: bound`` messages."""
    return invariant_errors(vars(cfg), {
        "epsilon_base > 0": cfg.epsilon_base <= 0,
        "k_min >= 1": cfg.k_min < 1,
        "k_max >= 1": cfg.k_max < 1,
        "k_max <= 65535": cfg.k_max > 0xFFFF,  # a response frame counts its tuples in a uint16
        "k_min <= k_max": cfg.k_min > cfg.k_max,
        "beta >= 1": cfg.beta < 1,
        "control_interval > 0": cfg.control_interval <= 0,
        "rtt_base >= 0": cfg.rtt_base < 0,
        "jitter_half_width >= 0": cfg.jitter_half_width < 0,
        "jitter_half_width <= rtt_base": cfg.jitter_half_width > cfg.rtt_base,
        "rng_seed >= 0": cfg.rng_seed < 0,
    })


def validate_config(cfg: SpoConfig, spec=None) -> SpoConfig:
    """``cfg`` if an episode on ``spec`` may run it, else ConfigError (``cfg`` checked itself)."""
    if spec is not None and cfg.control_interval != spec.dt:  # the clock and physics run apart
        raise ConfigError([f"control_interval {cfg.control_interval} != {spec.name} dt {spec.dt}"])
    return cfg


def parse_vector(text: str) -> np.ndarray:
    """The value of a vector key: comma-separated floats."""
    return np.array([float(x) for x in text.split(",")])


def parse_config_file(path, field_types: dict = _CONFIG_FIELD_TYPES, required=()) -> dict:
    """The values of a UTF-8 ``key = value`` file ('#' starts a comment).

    Every input file has this format. ``field_types`` maps each allowed key to
    the converter of its value, and each key of ``required`` must appear. Any
    fault is a :class:`ConfigError` that names ``path`` (and the line).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError([f"cannot read {path}: {reason}"]) from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"{path}:{lineno}: expected 'key = value', got {raw!r}"])
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in field_types:
            raise ConfigError([f"{path}:{lineno}: unknown config key {key!r}"])
        try:
            values[key] = field_types[key](value)
        except ValueError:
            raise ConfigError([f"{path}:{lineno}: bad value for {key}: {value!r}"]) from None
    missing = [f"{path}: missing required key {key!r}" for key in required if key not in values]
    if missing:
        raise ConfigError(missing)
    return values


def load_config(path=None, overrides: dict | None = None) -> SpoConfig:
    """The defaults, under a config file if ``path`` is given, under CLI-style overrides.

    A violated invariant that the file's values violate on their own names ``path``.
    """
    values = parse_config_file(path) if path else {}
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    try:
        return SpoConfig(**{**values, **flags})
    except ConfigError as exc:
        own = []
        try:
            SpoConfig(**values)
        except ConfigError as file_exc:
            own = file_exc.errors
        raise ConfigError([f"{path}: {e}" if e in own else e for e in exc.errors]) from None
