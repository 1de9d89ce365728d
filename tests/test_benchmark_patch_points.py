"""Every name the traced benchmark patches exists where the benchmark looks it up.

The benchmark's tracer (``benchmarks/tracing.py``) replaces program functions
by module attribute. A rename or deletion there would otherwise surface only
when the benchmark itself runs.
"""

import importlib.util
import pathlib

import numpy as np

import spo.cloud
from spo.cloud import CloudSession, RolloutRequest
from spo.types import ActionVector, SpoConfig, StateVector

TRACING = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Stay:
    def act(self, state):
        return ActionVector(np.zeros(state.dim))

    def step(self, state, action):
        return state


def test_layer_wrappers_install_observe_and_restore():
    tracing = _load_tracing()
    handle = CloudSession.handle
    update_horizon = spo.cloud.update_horizon
    tracer = tracing.Tracer()
    try:
        probe = tracing.install_layer_wrappers(tracer)
        session = CloudSession(SpoConfig(), _Stay(), _Stay())
        session.handle(RolloutRequest(StateVector([0.0]), violation_error=0.0, step_index=0))
    finally:
        tracer.restore()
    # The adaptive refill reached the AIMD update through the patched name.
    assert probe.horizons == [3]
    assert probe.tuples_generated == 3
    assert CloudSession.handle is handle
    assert spo.cloud.update_horizon is update_horizon
