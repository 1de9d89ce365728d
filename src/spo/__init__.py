"""Speculative policy orchestration: latency-masking cloud-edge control runtime
and benchmark harness.

The cloud rolls future (state, action) tuples out through a world model, the
edge verifies them against live state inside a weighted tolerance tube and
executes or safely holds, and an additive-increase / multiplicative-decrease
controller adapts the speculative depth. The harness measures all of it
against blocking and fixed-horizon baselines under emulated network latency.
"""

from .ahs import AhsState, update_horizon
from .environments import EnvironmentSpec, canonical_specs, get_spec
from .harness import BaselineKind, RunMetrics, calibrate_weights, run_experiment
from .types import (
    ActionVector,
    SpeculativeTuple,
    SpoConfig,
    StateVector,
    WeightMatrix,
    validate_config,
    zero_action,
)
from .verifier import VerificationOutcome, tracking_error, verify

__all__ = [
    "ActionVector",
    "AhsState",
    "BaselineKind",
    "EnvironmentSpec",
    "RunMetrics",
    "SpeculativeTuple",
    "SpoConfig",
    "StateVector",
    "VerificationOutcome",
    "WeightMatrix",
    "calibrate_weights",
    "canonical_specs",
    "get_spec",
    "run_experiment",
    "tracking_error",
    "update_horizon",
    "validate_config",
    "verify",
    "zero_action",
]

__version__ = "0.1.0"
