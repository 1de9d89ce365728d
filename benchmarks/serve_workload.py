"""The ``serve_spo`` and ``serve_blocking`` workloads: refill round trips over
TCP loopback against ``spo serve`` running in its own process.

Set-up records the refill requests (state, violation error, step index) that
virtual ``free_space`` SPO episodes under the drifted model send, and computes
the response frames the program's in-process ``CloudSession`` gives them. One
pass replays the requests in order, as a single closed-loop client on a fresh
TCP connection, using the edge's codec and framing calls; every response must
equal its in-process frame byte for byte. Client and server run on one CPU.
Passes repeat until the run's time is used. Round trips are scaled to the
reference host speed (``hostspeed``) a block of requests at a time, and each
request counts with its median scaled round trip over the passes. The server
injects no delay (``--rtt 0 --jitter 0``), so a round trip is framing,
scheduling and compute only.
"""

from __future__ import annotations

import hashlib
import os
import re
import select
import socket
import subprocess
import sys
import time

import checks
import hostspeed
import tracing
from compare_workload import DRIFT
from metrics import Result, median, per_call_us, quantile

import numpy as np

from spo import harness, transport
from spo.cloud import CloudSession, make_model, make_policy
from spo.environments import get_spec
from spo.harness import FIXED_HORIZON, BaselineKind
from spo.transport import VirtualChannel
from spo.types import SpoConfig, validate_config

ENV = "free_space"
# Enough episodes for about 1000 requests a pass, so that p99 has ten
# requests beyond it.
RECORDED_EPISODES = 40
SETUP_SAMPLES = 7
# Requests between two reference samples.
SCALE_BLOCK = 25
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def record_requests(cfg: SpoConfig, seeds: list[int]):
    """Refill requests of drifted SPO episodes on ``ENV``, in send order, and the episodes' metrics."""
    spec = get_spec(ENV)
    weights = harness.calibrate_weights(spec, seed=cfg.rng_seed)
    requests = []

    class RecordingChannel(VirtualChannel):
        def send_request(self, item, now):
            requests.append(item[1])
            return super().send_request(item, now)

    harness.VirtualChannel = RecordingChannel
    try:
        rows = [
            harness.run_single(BaselineKind.SPO, spec, cfg, s, weights, **DRIFT).metrics
            for s in seeds
        ]
    finally:
        harness.VirtualChannel = VirtualChannel
    return requests, rows


def expected_frames(requests, kind: BaselineKind, cfg: SpoConfig) -> list[bytes]:
    """The response frames of one server session, computed in process."""
    spec = get_spec(ENV)
    cloud = CloudSession(cfg, make_policy(spec), make_model(spec, "oracle"), FIXED_HORIZON[kind])
    frames = []
    for rid, req in enumerate(requests, start=1):
        _, decoded = transport.decode_request(transport.encode_request(rid, req))
        resp = cloud.handle(decoded)
        frames.append(transport.encode_response(rid, resp, step_index=decoded.step_index))
    return frames


class ServerChild:
    """``spo serve`` in a child process; always reaped by :meth:`close`."""

    def __init__(self, kind: BaselineKind, seed: int, spans_path: str = "-", args=()):
        cmd = [
            sys.executable, os.path.join(HERE, "serve_child.py"), spans_path, "serve",
            "--env", ENV, "--kind", kind.value, "--model", "oracle",
            "--rtt", "0", "--jitter", "0", "--port", "0", "--seed", str(seed), *args,
        ]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline().decode() if ready else ""
            match = re.fullmatch(r"serving on port (\d+)\s*", line)
            if match is None:
                raise RuntimeError(f"server child did not start (first line {line!r})")
            self.ready_s = time.perf_counter() - t0
            self.port = int(match.group(1))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """End the child: closing its stdin asks it to exit; kill it if it does not."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Replay:
    def __init__(self, kind: BaselineKind, seed: int):
        self.kind = kind
        # The server's configuration (``--rtt 0 --jitter 0 --seed S``); the
        # recorded episodes run with the default network, as ``spo compare`` does.
        self.cfg = validate_config(SpoConfig(rtt_base=0.0, jitter_half_width=0.0, rng_seed=seed))
        self.seeds = list(range(seed, seed + RECORDED_EPISODES))
        self.requests, self.spo_rows = record_requests(SpoConfig(rng_seed=seed), self.seeds)
        self.expected = expected_frames(self.requests, kind, self.cfg)
        self.digest = hashlib.sha256(b"".join(self.expected)).hexdigest()
        spec = get_spec(ENV)
        self.d_s, self.d_a = spec.d_s, spec.d_a

    def one_pass(self, port: int, scaler: hostspeed.Scaler) -> dict:
        """Send every recorded request once on a fresh connection, one at a
        time; ``rtts`` are the round trips, ``scaled`` the same scaled."""
        cfg, blocking = self.cfg, self.kind is BaselineKind.BLOCKING
        rtts, scaled, failures, tuples, frame_bytes = [], [], [], [], 0
        broken = False
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        except OSError as exc:
            return {
                "rtts": [], "scaled": [], "failures": [f"connect: {exc!r}"], "attempted": 1,
                "tuples": [], "frame_bytes": 0, "broken": True,
            }
        with sock:
            for rid, req in enumerate(self.requests, start=1):
                t0 = time.perf_counter()
                try:
                    transport.send_frame(sock, transport.encode_request(rid, req))
                    frame = transport.recv_frame(sock)
                    if frame is None:
                        raise ConnectionError("server closed the connection")
                    decoded = transport.decode_response(frame, self.d_s, self.d_a)
                except (OSError, transport.FrameError) as exc:
                    failures.append(f"request {rid}: {exc!r}")
                    broken = True
                    break
                rtts.append(time.perf_counter() - t0)
                frame_bytes += len(frame)
                tuples.append(len(decoded[1].tuples))
                errors = checks.response_errors(
                    rid, req.step_index, decoded, blocking, cfg.k_min, cfg.k_max
                )
                if frame != self.expected[rid - 1]:
                    errors.append(f"request {rid}: response differs from in-process CloudSession.handle")
                if errors:
                    failures.append("; ".join(errors))
                if len(rtts) % SCALE_BLOCK == 0 or rid == len(self.requests):
                    factor = scaler.factor()
                    scaled.extend(r * factor for r in rtts[len(scaled):])
        return {
            "rtts": rtts, "scaled": scaled, "failures": failures, "attempted": len(rtts) + broken,
            "tuples": tuples, "frame_bytes": frame_bytes, "broken": broken,
        }

    def passes(self, port: int, scaler: hostspeed.Scaler, deadline: float) -> list[dict]:
        """At least one pass; another only if it should end before ``deadline``."""
        out = []
        while True:
            t0 = time.perf_counter()
            out.append(self.one_pass(port, scaler))
            if out[-1]["broken"] or 2 * time.perf_counter() - t0 > deadline:
                return out


def run(kind: BaselineKind, seed: int, seconds: float, trace: bool) -> Result:
    hostspeed.pin_to_one_cpu()
    scaler = hostspeed.Scaler()
    work = Replay(kind, seed)
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        with ServerChild(kind, seed) as server:
            setup.append(scaler.scale(server.ready_s))
    with ServerChild(kind, seed) as server:
        setup.append(scaler.scale(server.ready_s))
        start = time.perf_counter()
        untraced = work.passes(server.port, scaler, start + (seconds / 2 if trace else seconds))
    result = _result(work, setup, untraced, scaler)
    if not trace or untraced[-1]["broken"]:
        return result

    spans_path = os.path.join(tracing.TRACE_DIR, f"serve_{kind.value}-server.npz")
    if os.path.exists(spans_path):
        os.unlink(spans_path)
    tracer = tracing.Tracer()
    with ServerChild(kind, seed, spans_path=spans_path) as server:
        tracing.install_layer_wrappers(tracer)
        try:
            traced = work.passes(server.port, scaler, start + seconds)
        finally:
            tracer.restore()
    client = tracer.spans()
    tracing.save_spans(os.path.join(tracing.TRACE_DIR, f"serve_{kind.value}-client.npz"), client)
    server_spans = tracing.load_spans(spans_path)
    checked = _result(work, setup, untraced + traced, scaler)
    checked.metrics = _layer_metrics(work, untraced, traced, client, server_spans)
    return checked


def median_of(passes: list[dict]) -> list[float]:
    """Per request of the stream, its median scaled round trip over the whole passes."""
    return [median(rtts) for rtts in zip(*(p["scaled"] for p in passes if not p["broken"]))]


def _result(work: Replay, setup: list[float], passes: list[dict], scaler: hostspeed.Scaler) -> Result:
    rtts = [r for p in passes for r in p["rtts"]]
    typical = median_of(passes)
    metrics = {
        "setup_s": median(setup),
        "pass_s": sum(typical),
        "op_us_p50": 1e6 * quantile(typical, 0.50) if typical else 0.0,
        "op_us_tail": 1e6 * quantile(typical, 0.99) if typical else 0.0,
    }
    metrics.update({f"spo.{k}": v for k, v in checks.pooled(work.spo_rows).items()})
    info = {
        "transport": "TCP over loopback, no injected delay",
        "passes": len(passes),
        "requests_per_pass": len(work.requests),
        "requests_timed": len(rtts),
        "op_us_p50_unscaled": 1e6 * quantile(rtts, 0.50) if rtts else 0.0,
        "op_us_p99_unscaled": 1e6 * quantile(rtts, 0.99) if rtts else 0.0,
        "host_speed": scaler.speed(),
        "serve_responses_sha256": work.digest,
        "setup_samples_s": setup,
    }
    return Result(
        metrics,
        sum(p["attempted"] for p in passes),
        [f for p in passes for f in p["failures"]],
        info,
    )


def _server_timings(spans) -> tuple[np.ndarray, np.ndarray]:
    """Per request handled: service time (frame received until response sent)
    and delay-shim time (frame received until decoding starts), in ns."""
    names = spans["names"].tolist()
    done = spans["end"] > 0

    def where(label):
        return np.flatnonzero((spans["name"] == names.index(label)) & done)

    recv, dec, send = (
        where(f"transport.{fn}") for fn in ("recv_frame", "decode_request", "send_frame")
    )
    received = spans["end"][recv[np.searchsorted(recv, dec) - 1]]
    sent = spans["end"][send[np.minimum(np.searchsorted(send, dec), send.size - 1)]]
    return sent - received, spans["start"][dec] - received


def _layer_metrics(work: Replay, untraced, traced, client, server) -> dict[str, float]:
    n = len(traced)
    client_stats, server_stats = tracing.span_stats(client), tracing.span_stats(server)
    stats = tracing.merge_stats(client_stats, server_stats)
    tuples = [t for p in traced for t in p["tuples"]]
    service, shim = _server_timings(server)
    traced_rtts = [r for p in traced for r in p["rtts"]]
    overhead = [1e9 * r - s for r, s in zip(traced_rtts, service)]
    metrics = {
        "types.vectors_built": stats["types.vector_build"]["calls"] / n,
        "types.vector_build.self_s": stats["types.vector_build"]["self_ns"] / 1e9 / n,
        "cloud.handle.calls": stats["cloud.handle"]["calls"] / n,
        "cloud.handle.us_per_call": per_call_us(stats, "cloud.handle"),
        "cloud.policy_act.us_per_call": per_call_us(stats, "cloud.policy_act"),
        "cloud.model_step.us_per_call": per_call_us(stats, "cloud.model_step"),
        "cloud.tuples_generated": sum(tuples) / n,
        "transport.encode_request.us_per_call": per_call_us(stats, "transport.encode_request"),
        "transport.decode_response.us_per_call": per_call_us(stats, "transport.decode_response"),
        "transport.decode_response.ns_per_tuple": stats["transport.decode_response"]["total_ns"]
        / sum(tuples),
        "transport.response_bytes_mean": sum(p["frame_bytes"] for p in untraced)
        / sum(len(p["rtts"]) for p in untraced),
        "transport.decode_request.us_per_call": per_call_us(stats, "transport.decode_request"),
        "transport.encode_response.us_per_call": per_call_us(stats, "transport.encode_response"),
        "sockets.service_us_p50": quantile(service, 0.5) / 1e3,
        "sockets.overhead_us_p50": quantile(overhead, 0.5) / 1e3,
        "sockets.delay_shim_us_per_request": float(np.mean(shim)) / 1e3,
        "trace.overhead_ratio": median(median_of(traced)) / median(median_of(untraced)),
    }
    if server_stats["ahs.update_horizon"]["calls"]:
        # A fresh session starts at k_min; each spo response carries the granted horizon.
        per_pass = [p["tuples"] for p in traced]
        contractions = sum(
            k < prev
            for ks in per_pass
            for prev, k in zip([work.cfg.k_min] + ks[:-1], ks)
        )
        metrics.update({
            "ahs.update_horizon.calls": server_stats["ahs.update_horizon"]["calls"] / n,
            "ahs.contractions": contractions / n,
            "ahs.mean_horizon": sum(tuples) / len(tuples),
        })
    return metrics
