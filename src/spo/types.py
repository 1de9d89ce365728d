"""Shared domain types and run configuration.

All vectors are float64 internally; the wire codec narrows to float32
(see :mod:`spo.transport`). Every type here is an immutable value object,
safe to pass between the edge loop, the cloud handler, and test code
without copying.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


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
    """A read-only float64 copy of ``values``, checked to be 1-D, non-empty and finite.

    Every vector the tick loop builds passes through here, so this makes one
    copy and one reduction (``count_nonzero`` skips the ufunc-reduce set-up
    that ``.all()`` pays on a short vector).
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{what} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{what} must have at least one component")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense real state vector of length d_s (normalized components)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_finite_vector(self.values, "state"))

    @property
    def dim(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        return isinstance(other, StateVector) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"StateVector({self.values.tolist()!r})"


@dataclass(frozen=True, eq=False)
class ActionVector:
    """Dense real action vector of length d_a (velocity targets + gripper)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_finite_vector(self.values, "action"))

    @property
    def dim(self) -> int:
        return self.values.size

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, ActionVector) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"ActionVector({self.values.tolist()!r})"


def zero_action(d_a: int) -> ActionVector:
    """The hold/safe-stop action: all d_a components zero."""
    if d_a < 1:
        raise DimensionError("action dimension must be >= 1")
    return ActionVector(np.zeros(int(d_a)))


@dataclass(frozen=True)
class SpeculativeTuple:
    """One predicted (next-state, action) pair, the unit of caching and transfer.

    ``step_index`` is the absolute control step the tuple targets; successive
    tuples of one rollout increase it by exactly 1.
    """

    predicted_state: StateVector
    action: ActionVector
    step_index: int

    def __post_init__(self):
        if self.step_index < 0:
            raise ValueError("step_index must be nonnegative")


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Diagonal of the inverse-variance normalization matrix (length d_s)."""

    inverse_variances: np.ndarray

    def __post_init__(self):
        arr = _as_finite_vector(self.inverse_variances, "weights")
        if np.any(arr <= 0.0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "inverse_variances", arr)

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
    takes each field's type from it.
    """

    epsilon_base: float = 20.0
    k_min: int = 2
    k_max: int = 10
    beta: int = 1
    control_interval: float = 0.02
    rtt_base: float = 0.15
    jitter_half_width: float = 0.03
    rng_seed: int = 0

    def replace(self, **kwargs) -> "SpoConfig":
        return dataclasses.replace(self, **kwargs)


_CONFIG_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(SpoConfig)}


def config_errors(cfg: SpoConfig) -> list[str]:
    """Every violated configuration invariant, as ``field: bound`` messages."""
    errors = []
    if cfg.epsilon_base <= 0:
        errors.append("epsilon_base > 0 violated")
    if cfg.k_min < 1:
        errors.append("k_min >= 1 violated")
    if cfg.k_max < 1:
        errors.append("k_max >= 1 violated")
    if cfg.k_max > 0xFFFF:  # a response frame counts its tuples in a uint16
        errors.append("k_max <= 65535 violated")
    if cfg.k_min > cfg.k_max:
        errors.append("k_min <= k_max violated")
    if cfg.beta < 1:
        errors.append("beta >= 1 violated")
    if cfg.control_interval <= 0:
        errors.append("control_interval > 0 violated")
    if cfg.rtt_base < 0:
        errors.append("rtt_base >= 0 violated")
    if cfg.jitter_half_width < 0:
        errors.append("jitter_half_width >= 0 violated")
    if cfg.jitter_half_width > cfg.rtt_base:
        errors.append("jitter_half_width <= rtt_base violated")
    if cfg.rng_seed < 0:
        errors.append("rng_seed >= 0 violated")
    return errors


def validate_config(cfg: SpoConfig) -> SpoConfig:
    """Return ``cfg`` unchanged if valid, else raise :class:`ConfigError`."""
    errors = config_errors(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def parse_config_text(text: str, field_types: dict = _CONFIG_FIELD_TYPES) -> dict:
    """Parse the flat ``key = value`` format ('#' starts a comment).

    ``field_types`` maps each allowed key to the converter of its value.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"line {lineno}: expected 'key = value', got {raw!r}"])
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in field_types:
            raise ConfigError([f"line {lineno}: unknown config key {key!r}"])
        try:
            values[key] = field_types[key](value)
        except ValueError:
            raise ConfigError([f"line {lineno}: bad value for {key}: {value!r}"]) from None
    return values


def read_text(path) -> str:
    """The UTF-8 text of an input file, or :class:`ConfigError` if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError([f"cannot read {path}: {reason}"]) from None


def load_config(path=None, overrides: dict | None = None) -> SpoConfig:
    """The defaults, under a config file if ``path`` is given, under CLI-style overrides."""
    values = parse_config_text(read_text(path)) if path else {}
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return validate_config(SpoConfig(**values))
