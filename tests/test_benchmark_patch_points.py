"""Every name the traced benchmark patches exists where the benchmark looks it up.

The benchmark's tracer (``benchmarks/tracing.py``) replaces program functions
by module attribute. A rename or deletion there would otherwise surface only
when the benchmark itself runs.
"""

import dataclasses
import importlib.util
import pathlib

import numpy as np

import spo.cloud
import spo.edge
import spo.harness
import spo.sockets
import spo.transport
import spo.types
from spo.cloud import CloudSession, RolloutRequest
from spo.environments import get_spec
from spo.harness import BaselineKind, run_single
from spo.types import ActionVector, SpoConfig, StateVector, WeightMatrix

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


def test_layer_wrappers_trace_one_episode_and_restore_every_original():
    tracing = _load_tracing()
    owners = [
        spo.types.StateVector, spo.types.ActionVector, spo.cloud.CloudSession, spo.cloud,
        spo.edge.EdgeSession, spo.edge, spo.harness, spo.sockets, spo.transport.VirtualChannel,
        spo.transport,
    ]
    before = [dict(vars(owner)) for owner in owners]
    spec = dataclasses.replace(get_spec("free_space"), max_steps=40)
    tracer = tracing.Tracer()
    try:
        tracing.install_layer_wrappers(tracer)
        run_single(
            BaselineKind.SPO, spec, SpoConfig(), 0, WeightMatrix(np.ones(spec.d_s)),
            model_kind="drifted", drift_bias=8e-4, drift_noise=2e-4,
        )
    finally:
        tracer.restore()
    stats = tracing.span_stats(tracer.spans())
    for name in (
        "environments.true_step", "environments.is_success", "transport.virtual",
        "cloud.policy_act", "cloud.model_step", "edge.edge_tick", "verifier.verify",
    ):
        assert stats.get(name, {"calls": 0})["calls"] > 0, name
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[key] is value for key, value in attrs.items()), owner
