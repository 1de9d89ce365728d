"""Edge-side tube verifier: weighted tracking error and hit/miss classification."""

from __future__ import annotations

import math
from typing import NamedTuple

from .types import DimensionError, SpeculativeTuple, StateVector, WeightMatrix


class VerificationOutcome(NamedTuple):
    """Result of checking one observed state against one cached prediction (immutable)."""

    error: float
    is_hit: bool


def tracking_error(
    actual: StateVector, predicted: StateVector, weights: WeightMatrix
) -> float:
    """Inverse-variance weighted distance sqrt(sum_i w_i * (s_i - p_i)^2).

    Symmetric in (actual, predicted); zero iff the vectors are equal.
    Computed in double precision regardless of wire-format rounding, as the
    ``math.hypot`` of the root-weighted difference (a - p)·root, on floats: a
    fixed-order sum with no BLAS, so the same inputs give the same bits on every CPU.
    """
    a, p, r = actual.values, predicted.values, weights.roots
    if len(a) != len(p) or len(a) != len(r):
        raise DimensionError(
            f"dimension mismatch: actual={len(a)} predicted={len(p)} weights={len(r)}"
        )
    return math.hypot(*[(x - y) * w for x, y, w in zip(a, p, r)])


def verify(
    actual: StateVector,
    tup: SpeculativeTuple,
    weights: WeightMatrix,
    epsilon_base: float,
) -> VerificationOutcome:
    """Classify one control step: hit iff the tracking error is within the tube.

    The boundary (error exactly equal to the tolerance) counts as a hit.
    """
    err = tracking_error(actual, tup.predicted_state, weights)
    # Built as the rollout builds a SpeculativeTuple, past the named tuple's Python __new__.
    return tuple.__new__(VerificationOutcome, (err, err <= epsilon_base))
