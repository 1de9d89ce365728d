"""Weighted tube error and hit/miss classification."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spo.types import ActionVector, DimensionError, SpeculativeTuple, StateVector, WeightMatrix
from spo.verifier import tracking_error, verify


def _brute_force_error(actual, predicted, weights):
    # Independent componentwise loop, no vectorization.
    total = 0.0
    for s, p, w in zip(actual, predicted, weights):
        total += w * (s - p) ** 2
    return math.sqrt(total)


def _tuple(predicted, d_a=1, step=0):
    return SpeculativeTuple(StateVector(predicted), ActionVector(np.zeros(d_a)), step)


def test_identity_error_is_zero():
    s = StateVector([0.3, -1.2, 4.0])
    w = WeightMatrix([1.0, 2.0, 3.0])
    assert tracking_error(s, s, w) == 0.0


def test_euclidean_three_four_five():
    actual = StateVector([3.0, 4.0, 0.0, 0.0])
    predicted = StateVector([0.0, 0.0, 0.0, 0.0])
    w = WeightMatrix(np.ones(4))
    assert tracking_error(actual, predicted, w) == 5.0


def test_weighted_example_matches_brute_force():
    actual = [2.0, 4.0]
    predicted = [0.0, 0.0]
    weights = [1.0, 0.25]
    expected = _brute_force_error(actual, predicted, weights)
    assert expected == math.sqrt(8.0)
    got = tracking_error(StateVector(actual), StateVector(predicted), WeightMatrix(weights))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(2.8284271247461903, abs=1e-12)


def test_dimension_mismatch_raises():
    mismatch = r"^dimension mismatch: actual=1 predicted={} weights={}$"
    with pytest.raises(DimensionError, match=mismatch.format(2, 1)):
        tracking_error(StateVector([1.0]), StateVector([1.0, 2.0]), WeightMatrix([1.0]))
    with pytest.raises(DimensionError, match=mismatch.format(1, 2)):
        tracking_error(StateVector([1.0]), StateVector([1.0]), WeightMatrix([1.0, 1.0]))


def test_verify_zero_error_is_hit():
    s = StateVector(np.zeros(4))
    out = verify(s, _tuple(np.zeros(4)), WeightMatrix(np.ones(4)), 20.0)
    assert out.is_hit
    assert out.error == 0.0


def test_verify_error_25_is_miss():
    # Brute-force construction: identity weights, diff (25, 0, 0) has norm 25.
    actual = StateVector([25.0, 0.0, 0.0])
    out = verify(actual, _tuple(np.zeros(3)), WeightMatrix(np.ones(3)), 20.0)
    assert _brute_force_error(actual.values, np.zeros(3), np.ones(3)) == 25.0
    assert not out.is_hit
    assert out.error == 25.0


def test_verification_outcome_cannot_be_assigned_to():
    out = verify(StateVector([3.0, 4.0]), _tuple(np.zeros(2)), WeightMatrix(np.ones(2)), 20.0)
    assert (out.error, out.is_hit) == (5.0, True)
    with pytest.raises(AttributeError):
        out.is_hit = False
    with pytest.raises(AttributeError):
        out.error = 0.0
    with pytest.raises(AttributeError):  # no instance dict either
        out.note = "extra"


def test_verify_boundary_is_hit():
    actual = StateVector([20.0, 0.0])
    out = verify(actual, _tuple(np.zeros(2)), WeightMatrix(np.ones(2)), 20.0)
    assert out.error == 20.0
    assert out.is_hit


# Magnitudes bounded away from the subnormal range so diff**2 cannot
# underflow to exactly zero for distinct inputs.
component = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False).filter(
    lambda x: x == 0.0 or abs(x) > 1e-6
)
vectors = st.lists(component, min_size=1, max_size=8)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


@given(vectors, st.data())
def test_metric_symmetry_and_zero_iff_equal(a, data):
    b = data.draw(st.lists(component, min_size=len(a), max_size=len(a)))
    w = WeightMatrix(data.draw(st.lists(positive, min_size=len(a), max_size=len(a))))
    sa, sb = StateVector(a), StateVector(b)
    assert tracking_error(sa, sb, w) == tracking_error(sb, sa, w)
    assert tracking_error(sa, sa, w) == 0.0
    if a != b:
        assert tracking_error(sa, sb, w) > 0.0


@given(vectors, st.floats(min_value=-8.0, max_value=8.0, allow_nan=False), st.data())
def test_metric_scales_linearly(diff, lam, data):
    w = WeightMatrix(data.draw(st.lists(positive, min_size=len(diff), max_size=len(diff))))
    base = StateVector(np.zeros(len(diff)))
    e1 = tracking_error(StateVector(diff), base, w)
    e2 = tracking_error(StateVector(lam * np.asarray(diff)), base, w)
    assert e2 == pytest.approx(abs(lam) * e1, rel=1e-9, abs=1e-9)


@given(vectors, st.data())
def test_weight_monotonicity(diff, data):
    w = np.asarray(data.draw(st.lists(positive, min_size=len(diff), max_size=len(diff))))
    idx = data.draw(st.integers(min_value=0, max_value=len(diff) - 1))
    bumped = w.copy()
    bumped[idx] *= 1.0 + data.draw(st.floats(min_value=0.0, max_value=10.0))
    base = StateVector(np.zeros(len(diff)))
    e_before = tracking_error(StateVector(diff), base, WeightMatrix(w))
    e_after = tracking_error(StateVector(diff), base, WeightMatrix(bumped))
    assert e_after >= e_before - 1e-12


def test_single_cycle_detection_closed_loop():
    """A perturbation beyond the tube at step t is classified Miss at step t."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 12))
        w = WeightMatrix(rng.uniform(0.1, 5.0, d))
        predicted = rng.normal(0.0, 1.0, d)
        direction = rng.normal(0.0, 1.0, d)
        unit = direction / math.sqrt(float(np.dot(w.inverse_variances, direction**2)))
        eps = 20.0
        perturbed = predicted + unit * eps * float(rng.uniform(1.01, 10.0))
        out = verify(StateVector(perturbed), _tuple(predicted), w, eps)
        assert not out.is_hit
