"""Real-socket mode: a TCP cloud endpoint, and a wall-clock link for the episode loop.

The edge runs :func:`spo.harness.run_episode` with a :class:`SocketLink`. A run of
seed S draws its start, delays and drift seed from :func:`~spo.harness.episode_seeds`
as the virtual run of S does; the n-th connection to a server of base seed S serves
episode S+n-1. Each receiver injects a sampled one-way delay, so loopback RTT
matches the emulated one.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

from . import transport
from .cloud import DRIFT_BIAS, DRIFT_NOISE, CloudSession, RolloutError, make_model, make_policy
from .environments import EnvironmentSpec, start_state
from .harness import FIXED_HORIZON, BaselineKind, RunResult, episode_seeds, run_episode
from .types import SpoConfig, WeightMatrix, validate_config


class CloudServer:
    """Serves rollout requests over TCP; one isolated session per connection."""

    def __init__(
        self,
        port: int,
        spec: EnvironmentSpec,
        cfg: SpoConfig,
        kind: BaselineKind = BaselineKind.SPO,
        model_kind: str = "oracle",
        drift_bias: float = DRIFT_BIAS,
        drift_noise: float = DRIFT_NOISE,
        host: str = "127.0.0.1",
    ):
        validate_config(cfg)
        self.spec = spec
        self.cfg = cfg
        self.kind = kind
        self.model_kind = model_kind
        self.drift_bias = drift_bias
        self.drift_noise = drift_noise
        self._listener = socket.create_server((host, port))
        self._stop = threading.Event()
        self._session_counter = 0

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def serve_forever(self) -> None:
        self._listener.settimeout(0.2)
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                self._session_counter += 1
                thread = threading.Thread(
                    target=self._session, args=(conn, self._session_counter), daemon=True
                )
                thread.start()
        finally:
            self._listener.close()

    def stop(self) -> None:
        self._stop.set()

    def _session(self, conn: socket.socket, session_id: int) -> None:
        _, channel_rng, drift_seed = episode_seeds(self.cfg, self.cfg.rng_seed + session_id - 1)
        model = make_model(
            self.spec, self.model_kind,
            drift_bias=self.drift_bias, drift_noise=self.drift_noise, seed=drift_seed,
        )
        cloud = CloudSession(self.cfg, make_policy(self.spec), model, FIXED_HORIZON[self.kind])
        latency = transport.one_way_latency(
            self.cfg.rtt_base, self.cfg.jitter_half_width, channel_rng
        )
        with conn:
            try:
                while (frame := transport.recv_frame(conn)) is not None:
                    time.sleep(latency.sample())  # receiver-side uplink delay shim
                    rid, req = transport.decode_request(frame)
                    resp = cloud.handle(req)
                    out = transport.encode_response(rid, resp, step_index=req.step_index)
                    transport.send_frame(conn, out)
            except (OSError, transport.FrameError, RolloutError):
                return


class SocketLink:
    """A remote cloud over TCP, in real time, as a link of :func:`~spo.harness.run_episode`.

    A reader thread decodes each response, counts it, and queues it on a
    :class:`~spo.transport.VirtualChannel` keyed by seconds since the episode began,
    so the downlink delay and its FIFO clamp are the virtual mode's. Any receive,
    decode or send error marks the link ``dead``.
    """

    def __init__(self, sock: socket.socket, spec: EnvironmentSpec, latency, blocking: bool):
        self._sock = sock
        self._spec = spec
        self._blocking = blocking
        self._channel = transport.VirtualChannel(latency)
        self._lock = threading.Lock()
        self._t0 = time.monotonic()
        self.horizons: list[int] = []
        self.generated = 0
        self.dead = False
        threading.Thread(target=self._reader, daemon=True).start()

    def _reader(self) -> None:
        try:
            while (frame := transport.recv_frame(self._sock)) is not None:
                rid, resp = transport.decode_response(frame, self._spec.d_s, self._spec.d_a)
                with self._lock:
                    # The wire carries no horizon; the blocking reply's is 0.
                    self.horizons.append(0 if self._blocking else len(resp.tuples))
                    self.generated += len(resp.tuples)
                    self._channel.send_response((rid, resp), time.monotonic() - self._t0)
        except (OSError, transport.FrameError):
            pass
        self.dead = True

    def wait(self, now: float) -> None:
        delay = self._t0 + now - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def due(self, now: float) -> list:
        with self._lock:
            return self._channel.edge_inbox(time.monotonic() - self._t0)

    def send(self, refill, now: float) -> None:
        try:
            transport.send_frame(
                self._sock, transport.encode_request(refill.request_id, refill.request)
            )
        except (OSError, transport.FrameError):
            self.dead = True


def edge_connect_run(
    addr: tuple[str, int], spec: EnvironmentSpec, cfg: SpoConfig, kind: BaselineKind,
    seed: int, weights: WeightMatrix,
) -> RunResult:
    """Run the edge control loop in real time against a remote cloud endpoint."""
    validate_config(cfg)
    start_rng, channel_rng, _ = episode_seeds(cfg, seed)
    latency = transport.one_way_latency(cfg.rtt_base, cfg.jitter_half_width, channel_rng)
    with socket.create_connection(addr, timeout=10.0) as sock:
        sock.settimeout(None)
        link = SocketLink(sock, spec, latency, blocking=(kind is BaselineKind.BLOCKING))
        try:
            return run_episode(kind, spec, cfg, seed, weights, link, start_state(spec, start_rng))
        finally:
            # Closing alone would not wake the reader blocked in recv.
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
