"""Edge-side tube verifier: weighted tracking error and hit/miss classification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import DimensionError, SpeculativeTuple, StateVector, WeightMatrix


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of checking one observed state against one cached prediction."""

    error: float
    is_hit: bool


def tracking_error(
    actual: StateVector, predicted: StateVector, weights: WeightMatrix
) -> float:
    """Inverse-variance weighted distance sqrt(sum_i w_i * (s_i - p_i)^2).

    Symmetric in (actual, predicted); zero iff the vectors are equal.
    Computed in double precision regardless of wire-format rounding.
    """
    if actual.dim != predicted.dim or actual.dim != weights.dim:
        raise DimensionError(
            f"dimension mismatch: actual={actual.dim} predicted={predicted.dim} "
            f"weights={weights.dim}"
        )
    diff = actual.values - predicted.values
    return math.sqrt(float(np.dot(weights.inverse_variances, diff * diff)))


def verify(
    actual: StateVector,
    tup: SpeculativeTuple,
    weights: WeightMatrix,
    epsilon_base: float,
) -> VerificationOutcome:
    """Classify one control step: hit iff the tracking error is within the tube.

    The boundary (error exactly equal to the tolerance) counts as a hit.
    """
    if epsilon_base <= 0:
        raise ValueError("epsilon_base must be positive")
    err = tracking_error(actual, tup.predicted_state, weights)
    return VerificationOutcome(error=err, is_hit=err <= epsilon_base)
