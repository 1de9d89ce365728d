"""AIMD adaptive horizon controller."""

import math

import numpy as np
import pytest

from spo.ahs import AhsState, update_horizon
from spo.types import ConfigError, SpoConfig

CFG = SpoConfig()  # k_min=2, k_max=10, beta=1, epsilon_base=20


def _update(k, e_miss=0.0):
    return update_horizon(AhsState(k), CFG, e_miss).horizon


def test_initial_state_starts_at_k_min():
    assert AhsState(CFG.k_min) == AhsState(horizon=2)


def test_additive_increase():
    assert _update(5) == 6


def test_multiplicative_decrease_rho_two():
    assert _update(8, 40.0) == 4


def test_multiplicative_decrease_clamps_to_k_min():
    assert _update(3, 60.0) == 2


def test_additive_increase_saturates_at_k_max():
    assert _update(10) == 10


def test_convergence_in_exactly_eight_updates():
    cfg = SpoConfig()  # k_min=2, k_max=10, beta=1
    expected = math.ceil((cfg.k_max - cfg.k_min) / cfg.beta)
    assert expected == 8
    s = AhsState(cfg.k_min)
    updates = 0
    while s.horizon < cfg.k_max:
        s = update_horizon(s, cfg)
        updates += 1
    assert updates == expected


def test_contraction_severity_monotonicity():
    for k in range(2, 11):
        previous = None
        for e_miss in np.linspace(20.01, 400.0, 200):
            post = _update(k, float(e_miss))
            if previous is not None:
                assert post <= previous
            previous = post


def test_rho_at_most_one_clamps_to_k_max():
    # Direct API misuse: e_miss <= epsilon gives floor(K/rho) >= K; clamp applies.
    assert _update(8, 10.0) == 10  # floor(8 * 20 / 10) = 16 -> clamp to k_max


def test_bounds_hold_under_fuzzed_sequences():
    rng = np.random.default_rng(11)
    for _ in range(400):
        k_min = int(rng.integers(1, 6))
        k_max = int(rng.integers(k_min, k_min + 12))
        beta = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.5, 50.0))
        cfg = SpoConfig(k_min=k_min, k_max=k_max, beta=beta, epsilon_base=eps)
        s = AhsState(cfg.k_min)
        for _ in range(250):
            e_miss = float(rng.uniform(1e-3, 500.0)) if rng.random() < 0.4 else 0.0
            s = update_horizon(s, cfg, e_miss)
            assert k_min <= s.horizon <= k_max


def test_invalid_states_rejected():
    # The AIMD step takes its bounds from the config, which refuses bad ones when built.
    with pytest.raises(ConfigError) as exc:
        SpoConfig(k_min=0, beta=0)
    assert exc.value.errors == ["k_min >= 1 violated", "beta >= 1 violated"]
