"""Span tracer installed from outside the program.

Each wrapped callable records one span: name, parent span, start and end
(``perf_counter_ns``). Spans are kept in flat ``array`` columns so a compare
pass (about a million spans) costs tens of megabytes, not hundreds. Self
time is a span's duration minus the durations of its direct children.

The wrappers are patched where each name is looked up (for example
``spo.edge.verify``, not ``spo.verifier.verify``), and :meth:`Tracer.restore`
puts every original back.
"""

from __future__ import annotations

import os
import threading
import time
from array import array

import numpy as np

# Where traced runs write their spans: inside the checkout, ignored by git.
TRACE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_trace")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` recording a span per call; ``on_return(args, result)`` observes results."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer._name)
                tracer._name.append(name_id)
                tracer._parent.append(stack[-1] if stack else -1)
                tracer._end.append(0)
                tracer._start.append(clock())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer._end[idx] = clock()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_return))

    def patch_factory(self, owner, attr: str, method: str, name: str) -> None:
        """Wrap ``method`` on every object the factory ``owner.attr`` returns."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))

        def factory(*args, **kwargs):
            obj = original(*args, **kwargs)
            setattr(obj, method, self.wrap(getattr(obj, method), name))
            return obj

        setattr(owner, attr, factory)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """A consistent copy of the finished spans, as numpy columns."""
        with self._lock:
            n = len(self._name)
            cols = {
                "name": np.frombuffer(self._name, dtype=np.int32, count=n).copy(),
                "parent": np.frombuffer(self._parent, dtype=np.int32, count=n).copy(),
                "start": np.frombuffer(self._start, dtype=np.int64, count=n).copy(),
                "end": np.frombuffer(self._end, dtype=np.int64, count=n).copy(),
            }
        cols["names"] = np.array(self.names, dtype=str)
        return cols


def save_spans(path, spans: dict[str, np.ndarray]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **spans)


def load_spans(path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def span_stats(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_ns`` and ``self_ns``.

    A span still open when the spans were copied (end 0) is left out, and so
    is its share of its parent's child time.
    """
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    done = spans["end"] > 0
    dur[~done] = 0.0
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    self_ns = dur - child
    out = {}
    for i, label in enumerate(spans["names"].tolist()):
        sel = (name == i) & done
        out[label] = {
            "calls": int(sel.sum()),
            "total_ns": float(dur[sel].sum()),
            "self_ns": float(self_ns[sel].sum()),
        }
    return out


def merge_stats(*stats: dict) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for part in stats:
        for label, s in part.items():
            acc = out.setdefault(label, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0})
            for key in acc:
                acc[key] += s[key]
    return out


class LayerProbe:
    """Counts that the wrappers observe from return values."""

    def __init__(self):
        self.tuples_generated = 0
        self.horizons: list[int] = []
        self.contractions = 0
        self.edge_sessions: dict[int, object] = {}

    def on_handle(self, args, resp) -> None:
        self.tuples_generated += len(resp.tuples)

    def on_update_horizon(self, args, new_state) -> None:
        self.horizons.append(new_state.horizon)
        if new_state.horizon < args[0].horizon:
            self.contractions += 1

    def on_install(self, args, stats) -> None:
        session = args[0]
        self.edge_sessions[id(session)] = session


def install_layer_wrappers(tracer: Tracer) -> LayerProbe:
    """Wrap the public calls of every layer, each where its caller looks it up."""
    import spo.cloud
    import spo.edge
    import spo.harness
    import spo.sockets
    import spo.transport
    import spo.types

    probe = LayerProbe()
    # types: every validated vector construction
    tracer.patch(spo.types.StateVector, "__post_init__", "types.vector_build")
    tracer.patch(spo.types.ActionVector, "__post_init__", "types.vector_build")
    # cloud: refill handling, and the policy and model objects it drives
    tracer.patch(spo.cloud.CloudSession, "handle", "cloud.handle", probe.on_handle)
    for module in (spo.harness, spo.sockets):
        tracer.patch_factory(module, "make_policy", "act", "cloud.policy_act")
        tracer.patch_factory(module, "make_model", "step", "cloud.model_step")
    # ahs
    tracer.patch(spo.cloud, "update_horizon", "ahs.update_horizon", probe.on_update_horizon)
    # edge and verifier
    tracer.patch(spo.edge.EdgeSession, "edge_tick", "edge.edge_tick")
    tracer.patch(spo.edge.EdgeSession, "install_response", "edge.install_response", probe.on_install)
    tracer.patch(spo.edge, "verify", "verifier.verify")
    # environments, as the virtual-clock loop calls them
    tracer.patch(spo.harness, "true_step", "environments.true_step")
    tracer.patch(spo.harness, "is_success", "environments.is_success")
    # transport: the virtual channel and the wire codec and framing
    for method in ("send_request", "send_response", "cloud_inbox_timed", "edge_inbox"):
        tracer.patch(spo.transport.VirtualChannel, method, "transport.virtual")
    for fn in ("encode_request", "decode_request", "encode_response", "decode_response",
               "send_frame", "recv_frame"):
        tracer.patch(spo.transport, fn, f"transport.{fn}")
    # harness
    for fn in ("run_single", "compile_metrics", "compare_report"):
        tracer.patch(spo.harness, fn, f"harness.{fn}")
    return probe
