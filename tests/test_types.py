"""Core value types and configuration validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spo.types import (
    ActionVector,
    ConfigError,
    DimensionError,
    SpeculativeTuple,
    SpoConfig,
    StateVector,
    WeightMatrix,
    config_errors,
    load_config,
    owned,
    parse_config_file,
    validate_config,
    zero_action,
)


def test_zero_action_d8():
    a = zero_action(8)
    assert a == ActionVector([0.0] * 8) and a.dim == 8
    assert np.array_equal(a.values, np.zeros(8))
    assert a.is_zero()


@pytest.mark.parametrize("d", [1, 3])
def test_zero_action_small(d):
    assert np.array_equal(zero_action(d).values, np.zeros(d))


def test_zero_action_invalid_dimension():
    with pytest.raises(DimensionError):
        zero_action(0)


def test_vectors_are_immutable():
    s = StateVector([1.0, 2.0])
    with pytest.raises(TypeError):
        s.values[0] = 5.0
    a = ActionVector([0.5])
    with pytest.raises(TypeError):
        a.values[0] = 1.0
    with pytest.raises(AttributeError):
        s.values = (5.0, 2.0)


@pytest.mark.parametrize("cls, other", [(StateVector, ActionVector), (ActionVector, StateVector)])
def test_vector_equality_is_by_value(cls, other):
    assert cls([1.0, 2.0]) == cls([1.0, 2.0])
    assert cls([1.0, 2.0]) != cls([1.0, 2.1])
    assert cls([1.0, 2.0]) != other([1.0, 2.0])  # a state never equals an action
    assert repr(cls([1.0, 2.0])) == f"{cls.__name__}([1.0, 2.0])"


def test_constructed_vectors_do_not_alias_input():
    buf = np.array([1.0, 2.0])
    s = StateVector(buf)
    buf[0] = 9.0
    assert s.values[0] == 1.0


finite_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=16,
)


@given(finite_lists)
def test_finite_vectors_survive_construction(values):
    s = StateVector(values)
    assert np.all(np.isfinite(s.values))
    a = ActionVector(values)
    assert np.all(np.isfinite(a.values))


@given(finite_lists, st.integers(min_value=0, max_value=15), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_nonfinite_vectors_rejected(values, idx, poison):
    values = list(values)
    values[idx % len(values)] = poison
    with pytest.raises(ValueError):
        StateVector(values)
    with pytest.raises(ValueError):
        ActionVector(values)


def test_speculative_tuple_rejects_negative_step():
    with pytest.raises(ValueError):
        SpeculativeTuple(StateVector([0.0]), ActionVector([0.0]), step_index=-1)


def test_speculative_tuple_is_immutable():
    t = SpeculativeTuple(StateVector([0.0]), ActionVector([0.0]), 3)
    with pytest.raises(AttributeError):
        t.step_index = 4
    with pytest.raises(AttributeError):
        t.predicted_state = StateVector([1.0])
    with pytest.raises(AttributeError):  # a light record: no instance dict
        t.note = "extra"
    assert t == SpeculativeTuple(StateVector([0.0]), ActionVector([0.0]), step_index=3)


def _build(make, values):
    """What ``make(values)`` gives: the vector's type, its components' types and bits, or
    its error."""
    try:
        vec = make(values)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(vec), type(vec.values), [(type(x), float.hex(x)) for x in vec.values]


NOT_OWNED = {
    "2-d": np.zeros((2, 2)),
    "empty": (),
    "nan": (1.0, math.nan),
    "inf": (-math.inf, 0.0),
    "plus-inf": (0.0, math.inf),
    "both-infs": (math.inf, -math.inf),
    "nan-and-inf": (math.nan, math.inf),
    "float64": np.array([0.5, 1.0]),
    "float32": np.array([1.5, -2.25], dtype=np.float32),
    "int64": np.array([1, 2]),
    "big-endian": np.array([1.0, 2.0], dtype=">f8"),
    "list": [0.5, 1.0],
}


@pytest.mark.parametrize("cls", [StateVector, ActionVector])
@pytest.mark.parametrize("name", sorted(NOT_OWNED))
def test_owned_builds_what_the_constructor_builds_from_an_input_it_may_not_take(cls, name):
    values = NOT_OWNED[name]
    before = np.array(values, copy=True)
    expected = _build(cls, values)
    assert _build(lambda v: owned(cls, v), values) == expected
    assert np.array_equal(values, before, equal_nan=True)  # the caller's input is left as it was
    if expected[0] is cls:
        assert owned(cls, values).values is not values


@pytest.mark.parametrize("cls", [StateVector, ActionVector])
def test_owned_wraps_a_fresh_tuple_of_floats_without_a_copy(cls):
    fresh = tuple([x * 2.0 for x in (0.5, -1.0, 3.0)])
    vec = owned(cls, fresh)
    assert type(vec) is cls
    assert vec.values is fresh
    with pytest.raises(TypeError):
        vec.values[0] = 7.0
    assert vec == cls([1.0, -2.0, 6.0])


@pytest.mark.parametrize("cls", [StateVector, ActionVector])
def test_owned_takes_a_finite_tuple_whose_hypot_overflows_through_the_constructor(cls):
    values = (1.7e308, -1.7e308)  # finite, but its hypot is not
    assert math.hypot(*values) == math.inf
    vec = owned(cls, values)
    assert _build(lambda v: owned(cls, v), values) == _build(cls, values)
    assert vec == cls(list(values)) and vec.values is not values


def test_weight_matrix_requires_positive_entries():
    with pytest.raises(ValueError):
        WeightMatrix([1.0, 0.0])
    with pytest.raises(ValueError):
        WeightMatrix([1.0, -2.0])
    assert WeightMatrix([1.0, 0.25]).dim == 2


def test_validate_config_table_values():
    cfg = SpoConfig(
        k_min=2, k_max=10, beta=1, epsilon_base=20.0,
        control_interval=0.02, rtt_base=0.15, jitter_half_width=0.03,
    )
    assert validate_config(cfg) is cfg


def _build_errors(**fields) -> list[str]:
    """The violations a config of ``fields`` is refused for when it is built."""
    with pytest.raises(ConfigError) as exc:
        SpoConfig(**fields)
    return exc.value.errors


def test_validate_config_ordering_violation():
    assert "k_min <= k_max violated" in _build_errors(k_min=5, k_max=2)


def test_validate_config_epsilon_violation():
    assert "epsilon_base > 0 violated" in _build_errors(epsilon_base=0.0)


def test_validate_config_negative_rtt_violation():
    assert "rtt_base >= 0 violated" in _build_errors(rtt_base=-0.01)


def test_validate_config_reports_all_violations():
    # Every rule but k_max <= 65535, which k_max >= 1 excludes (see the test below).
    errs = _build_errors(epsilon_base=-1.0, k_min=0, k_max=-1, beta=0, control_interval=0.0,
                         rtt_base=float("-inf"), jitter_half_width=-0.5, rng_seed=-1)
    assert errs == [
        "rtt_base = -inf is not finite", "epsilon_base > 0 violated", "k_min >= 1 violated",
        "k_max >= 1 violated", "k_min <= k_max violated", "beta >= 1 violated",
        "control_interval > 0 violated", "rtt_base >= 0 violated",
        "jitter_half_width >= 0 violated", "jitter_half_width <= rtt_base violated",
        "rng_seed >= 0 violated",
    ]


def test_k_max_bounded_by_the_uint16_tuple_count():
    assert config_errors(SpoConfig(k_max=65535)) == []
    assert "k_max <= 65535 violated" in _build_errors(k_max=65536)


def test_jitter_bounded_by_rtt():
    assert "jitter_half_width <= rtt_base violated" in _build_errors(
        rtt_base=0.01, jitter_half_width=0.02
    )


def test_parse_config_text_roundtrip(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text(
        """
        # network shape
        rtt_base = 0.15
        jitter_half_width = 0.03  # plus/minus 15 ms per direction
        k_max = 10
        """
    )
    values = parse_config_file(path)
    assert values == {"rtt_base": 0.15, "jitter_half_width": 0.03, "k_max": 10}


def test_parse_config_text_unknown_key(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("k_max = 10\nbogus = 1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config_file(path)
    assert exc.value.errors == [f"{path}:2: unknown config key 'bogus'"]


def test_parse_config_text_bad_value(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("k_max = many\n")
    with pytest.raises(ConfigError) as exc:
        parse_config_file(path)
    assert exc.value.errors == [f"{path}:1: bad value for k_max: 'many'"]


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("rtt_base = 0.1\nk_max = 8\n")
    cfg = load_config(path, overrides={"rtt_base": 0.2, "k_min": None})
    assert cfg.rtt_base == 0.2  # flag wins
    assert cfg.k_max == 8
    assert cfg.k_min == 2  # default untouched by None override
