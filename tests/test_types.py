"""Core value types and configuration validation."""

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
    parse_config_text,
    validate_config,
    zero_action,
)


def test_zero_action_d8():
    a = zero_action(8)
    assert a.dim == 8
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
    with pytest.raises(ValueError):
        s.values[0] = 5.0
    a = ActionVector([0.5])
    with pytest.raises(ValueError):
        a.values[0] = 1.0


def test_vector_equality_is_by_value():
    assert StateVector([1.0, 2.0]) == StateVector([1.0, 2.0])
    assert StateVector([1.0, 2.0]) != StateVector([1.0, 2.1])
    assert ActionVector([0.0]) == zero_action(1)


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


def test_validate_config_ordering_violation():
    errs = config_errors(SpoConfig(k_min=5, k_max=2))
    assert "k_min <= k_max violated" in errs


def test_validate_config_epsilon_violation():
    with pytest.raises(ConfigError) as exc:
        validate_config(SpoConfig(epsilon_base=0.0))
    assert "epsilon_base > 0 violated" in exc.value.errors


def test_validate_config_reports_all_violations():
    errs = config_errors(SpoConfig(epsilon_base=-1.0, k_min=5, k_max=2, beta=0))
    assert len(errs) >= 3


def test_jitter_bounded_by_rtt():
    errs = config_errors(SpoConfig(rtt_base=0.01, jitter_half_width=0.02))
    assert "jitter_half_width <= rtt_base violated" in errs


def test_parse_config_text_roundtrip():
    values = parse_config_text(
        """
        # network shape
        rtt_base = 0.15
        jitter_half_width = 0.03  # plus/minus 15 ms per direction
        k_max = 10
        """
    )
    assert values == {"rtt_base": 0.15, "jitter_half_width": 0.03, "k_max": 10}


def test_parse_config_text_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("bogus = 1")


def test_parse_config_text_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("k_max = many")


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "net.cfg"
    path.write_text("rtt_base = 0.1\nk_max = 8\n")
    cfg = load_config(path, overrides={"rtt_base": 0.2, "k_min": None})
    assert cfg.rtt_base == 0.2  # flag wins
    assert cfg.k_max == 8
    assert cfg.k_min == 2  # default untouched by None override
