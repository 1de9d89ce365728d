"""Real-socket mode: a TCP cloud endpoint, and a wall-clock link for the episode loop.

The edge runs :func:`spo.harness.run_episode` with a :class:`SocketLink`. A run of
seed S draws its start, delays and drift seed from :func:`~spo.harness.episode_seeds`
as the virtual run of S does; the n-th connection to a server of base seed S serves
episode S+n-1. The server alone emulates the network: it sleeps the uplink and the
downlink delay of each request, as the virtual run of S draws them, before handling it.
"""

from __future__ import annotations

import contextlib
import math
import socket
import threading
import time

from . import transport
from .cloud import CloudSession, RolloutError, make_model, make_policy
from .environments import EnvironmentSpec, start_state
from .harness import BaselineKind, RunResult, episode_seeds, fixed_horizon, run_episode
from .types import SpoConfig, WeightMatrix


class CloudServer:
    """Serves rollout requests over TCP; one isolated session per connection.

    ``world`` is :func:`~spo.cloud.make_model`'s; a bad one is refused before the listener opens.
    """

    def __init__(
        self,
        port: int,
        spec: EnvironmentSpec,
        cfg: SpoConfig,
        kind: BaselineKind = BaselineKind.SPO,
        host: str = "127.0.0.1",
        **world,
    ):
        make_model(spec, seed=0, **world)  # as each session builds it, so a bad world fails here
        self.spec = spec
        self.cfg = cfg
        self.kind = kind
        self.world = world
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
        _, latency, drift_seed = episode_seeds(self.cfg, self.cfg.rng_seed + session_id - 1)
        model = make_model(self.spec, seed=drift_seed, **self.world)
        horizon = fixed_horizon(self.kind, self.cfg)
        cloud = CloudSession(self.cfg, make_policy(self.spec), model, horizon)
        with conn:
            try:
                while (frame := transport.recv_frame(conn)) is not None:
                    delay = latency.sample() + latency.sample()  # uplink, then downlink
                    if delay > 0:
                        time.sleep(delay)
                    rid, req = transport.decode_request(frame)
                    resp = cloud.handle(req)
                    out = transport.encode_response(rid, resp, step_index=req.step_index)
                    transport.send_frame(conn, out)
            except (OSError, transport.FrameError, RolloutError):
                return


class SocketLink:
    """A remote cloud over TCP, in real time, as a link of :func:`~spo.harness.run_episode`.

    A reader thread decodes each response, counts it, and queues it with its arrival time;
    the first tick whose time has reached it takes it, as the server slept both delay legs.
    Any receive, decode or send error marks the link ``dead``.
    """

    def __init__(self, sock: socket.socket, spec: EnvironmentSpec, blocking: bool):
        self._sock = sock
        self._spec = spec
        self._blocking = blocking
        self._inbox: list = []  # (arrival, reply): the reader appends, the loop pops the front
        self._t0 = time.monotonic()
        self.horizons: list[int] = []
        self.generated = 0
        self.dead = False
        threading.Thread(target=self._reader, daemon=True).start()

    def _reader(self) -> None:
        try:
            while (frame := transport.recv_frame(self._sock)) is not None:
                rid, resp = transport.decode_response(frame, self._spec.d_s, self._spec.d_a)
                # The wire carries no horizon; the blocking reply's is 0.
                self.horizons.append(0 if self._blocking else len(resp.tuples))
                self.generated += len(resp.tuples)
                self._inbox.append((time.monotonic() - self._t0, (rid, resp)))  # after counting
        except (OSError, transport.FrameError):
            pass
        self.dead = True

    def wait(self, now: float) -> None:
        delay = self._t0 + now - time.monotonic()
        if delay > 0:
            time.sleep(delay)

    def answer(self, now: float) -> float:
        return -math.inf  # the server answers on its own; the loop steps every tick

    def due(self, now: float) -> list:
        inbox, taken = self._inbox, []
        while inbox and inbox[0][0] <= now:
            taken.append(inbox.pop(0)[1])
        return taken

    def send(self, refill, now: float) -> None:
        try:
            transport.send_frame(self._sock, transport.encode_request(*refill))
        except (OSError, transport.FrameError):
            self.dead = True


def edge_connect_run(
    addr: tuple[str, int], spec: EnvironmentSpec, cfg: SpoConfig, kind: BaselineKind,
    seed: int, weights: WeightMatrix,
) -> RunResult:
    """Run the edge control loop in real time against a remote cloud endpoint."""
    start_rng, _, _ = episode_seeds(cfg, seed)
    with socket.create_connection(addr, timeout=10.0) as sock:
        sock.settimeout(None)
        link = SocketLink(sock, spec, blocking=(kind is BaselineKind.BLOCKING))
        try:
            return run_episode(kind, spec, cfg, seed, weights, link, start_state(spec, start_rng))
        finally:
            # Closing alone would not wake the reader blocked in recv.
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
