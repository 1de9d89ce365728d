"""Real-socket mode: a TCP cloud endpoint, and a wall-clock link for the episode loop.

The edge runs :func:`spo.harness.run_episode` with a :class:`SocketLink`, whose ``due``
sleeps until its tick's time before it takes the replies that have arrived. A run of
seed S draws its start, delays and drift seed from :func:`~spo.harness.episode_seeds`
as the virtual run of S does; the n-th connection to a server of base seed S serves
episode S+n-1. The server alone emulates the network: it sleeps the uplink and the
downlink delay of each request, as the virtual run of S draws them, before handling it.
"""

from __future__ import annotations

import contextlib
import logging
import math
import socket
import threading
import time

from . import transport
from .cloud import CloudSession, RolloutError, make_model, make_policy
from .environments import EnvironmentSpec, start_state
from .harness import BaselineKind, RunResult, episode_seeds, fixed_horizon, run_episode
from .types import SpoConfig, WeightMatrix

log = logging.getLogger(__name__)


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
            except OSError:  # a hang-up
                pass
            except (transport.FrameError, RolloutError) as exc:
                log.warning("session %d dropped: %s: %s", session_id, type(exc).__name__, exc)


class SocketLink:
    """A remote cloud over TCP, in real time, as a link of :func:`~spo.harness.run_episode`.

    A reader thread decodes each response and queues it with its arrival time; the first
    tick whose time has reached it takes it, as the server slept both delay legs, and the
    edge counts it then. Any receive, decode or send error marks the link ``dead``.
    ``lateness`` counts the ticks whose ``due`` began a whole tick or more after the tick's
    wall-clock time, and the largest such lag in whole ticks.
    """

    def __init__(self, sock: socket.socket, spec: EnvironmentSpec, dt: float):
        self._sock, self._spec, self._dt = sock, spec, dt
        self.lateness = {"late_ticks": 0, "max_lag_ticks": 0}  # ticks run a whole tick late
        self._inbox: list = []  # (arrival, reply): the reader appends, the loop pops the front
        self._t0 = time.monotonic()
        self.dead = False
        threading.Thread(target=self._reader, daemon=True).start()

    def _reader(self) -> None:
        try:
            while (frame := transport.recv_frame(self._sock)) is not None:
                rid, resp = transport.decode_response(frame, self._spec.d_s, self._spec.d_a)
                self._inbox.append((time.monotonic() - self._t0, (rid, resp)))
        except (OSError, transport.FrameError):
            pass
        self.dead = True

    def answer(self) -> float:
        """``-inf``: the server answers on its own time, so the loop runs every held tick."""
        return -math.inf

    def due(self, now: float) -> list:
        delay = self._t0 + now - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        elif lag := int(-delay / self._dt):  # this tick begins a whole tick or more late
            self.lateness["late_ticks"] += 1
            self.lateness["max_lag_ticks"] = max(lag, self.lateness["max_lag_ticks"])
        inbox, taken = self._inbox, []
        while inbox and inbox[0][0] <= now:
            taken.append(inbox.pop(0)[1])
        return taken

    def send_request(self, refill, now: float) -> None:
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
        link = SocketLink(sock, spec, cfg.control_interval)
        try:
            result = run_episode(kind, spec, cfg, seed, weights, link, start_state(spec, start_rng))
            result.lateness = link.lateness
            return result
        finally:
            # Closing alone would not wake the reader blocked in recv.
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
