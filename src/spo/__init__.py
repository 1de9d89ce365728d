"""Speculative policy orchestration: latency-masking cloud-edge control runtime
and benchmark harness.

The cloud rolls future (state, action) tuples out through a world model, the
edge verifies them against live state inside a weighted tolerance tube and
executes or safely holds, and an additive-increase / multiplicative-decrease
controller adapts the speculative depth. The harness measures all of it
against blocking and fixed-horizon baselines under emulated network latency.
"""

__version__ = "0.1.0"
