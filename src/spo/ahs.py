"""Adaptive horizon controller: AIMD law over the speculative depth K.

Additive increase by ``beta`` on every violation-free refill; multiplicative
decrease by the danger ratio ``rho = e_miss / epsilon_base`` on a refill that
reports a tube violation. The bounds, step and tolerance are those of the
config, which checked them when it was built; the horizon is always clamped
to ``[k_min, k_max]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .types import SpoConfig


@dataclass(frozen=True)
class AhsState:
    horizon: int


def update_horizon(state: AhsState, cfg: SpoConfig, e_miss: float = 0.0) -> AhsState:
    """Apply one AIMD step for a refill reporting tube-violation error ``e_miss`` (0: none).

    Contraction computes floor(K * epsilon_base / e_miss) in one rounding
    step rather than flooring the danger ratio separately.
    """
    if e_miss > 0:
        contracted = math.floor(state.horizon * cfg.epsilon_base / e_miss)
        return AhsState(max(cfg.k_min, min(cfg.k_max, contracted)))
    return AhsState(min(cfg.k_max, state.horizon + cfg.beta))
