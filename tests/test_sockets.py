"""Socket mode: TCP server and its emulated network delays, real-time edge loop."""

import concurrent.futures
import dataclasses
import json
import logging
import socket
import struct
import threading
import time

import numpy as np
import pytest

import spo.sockets
from spo import cli, transport
from spo.cloud import CloudSession, RolloutRequest, make_model, make_policy
from spo.edge import EdgeSession, Outcome
from spo.environments import EnvironmentSpec, load_environment, start_state
from spo.harness import FIXED_HORIZON, BaselineKind, calibrate_weights, episode_seeds, run_single
from spo.sockets import CloudServer, edge_connect_run
from spo.types import SpoConfig, StateVector, WeightMatrix

FAST = SpoConfig(rtt_base=0.0, jitter_half_width=0.0)


@pytest.fixture()
def quick_spec():
    # Small, fast task so the real-time loop stays around a second.
    return EnvironmentSpec(
        name="quick", d_s=4, d_a=4, max_steps=250, waypoints=(np.array([0.4, -0.4, 0.3, -0.3]),),
        goal_center=np.array([0.4, -0.4, 0.3, -0.3]), goal_radius=0.1,
        gain=2.0,
    )


def _serve(spec, cfg, kind=BaselineKind.SPO):
    server = CloudServer(0, spec, cfg, kind)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def test_socket_roundtrip_run_succeeds(quick_spec):
    cfg = SpoConfig(rtt_base=0.06, jitter_half_width=0.01)
    server = _serve(quick_spec, cfg)
    try:
        weights = calibrate_weights(quick_spec, seed=0)
        result = edge_connect_run(
            ("127.0.0.1", server.port), quick_spec, cfg, BaselineKind.SPO, 0, weights
        )
    finally:
        server.stop()
    m = result.metrics
    assert m.diagnostic is None
    assert m.success
    assert m.misses == 0
    assert m.hits > 0
    assert m.hits + m.misses + m.holds + m.awaiting + m.direct == m.steps_taken


def test_socket_blocking_kind_executes_direct(quick_spec):
    cfg = SpoConfig(rtt_base=0.06, jitter_half_width=0.0)
    server = _serve(quick_spec, cfg, kind=BaselineKind.BLOCKING)
    try:
        weights = calibrate_weights(quick_spec, seed=0)
        result = edge_connect_run(
            ("127.0.0.1", server.port), quick_spec, cfg, BaselineKind.BLOCKING, 0, weights
        )
    finally:
        server.stop()
    m = result.metrics
    assert m.direct > 0
    assert m.hits == 0
    assert m.hit_rate == 0.0


def test_edge_connect_run_json_echoes_only_the_config_the_edge_applies(tmp_path):
    env_path = tmp_path / "quick.cfg"
    env_path.write_text(
        "name = quick\nd_s = 4\nd_a = 4\nmax_steps = 250\ngoal_radius = 0.1\n"
        "waypoints = 0.4,-0.4,0.3,-0.3\n"
    )
    server_cfg = SpoConfig(rtt_base=0.04, jitter_half_width=0.0, k_max=6)
    server = _serve(load_environment(env_path), server_cfg)
    try:
        code = cli.main([
            "edge-connect", "--env", str(env_path), "--epsilon", "25",
            "--addr", f"127.0.0.1:{server.port}", "--out", str(tmp_path / "out"),
        ])
    finally:
        server.stop()
    assert code == 0
    doc = json.loads((tmp_path / "out" / "run_spo_quick_0.json").read_text())
    # The server's rtt_base, jitter and horizon bounds are not the edge's to report.
    assert doc["config"] == {"control_interval": 0.02, "epsilon_base": 25.0, "rng_seed": 0}
    assert doc["mode"] == "socket"
    assert doc["metrics"]["success"]
    assert doc["metrics"]["mean_horizon"] <= server_cfg.k_max


def _join_sessions():
    """Join the stopped servers' accept loops, then their sessions: until one accept timeout
    after ``stop``, a loop may still start a session thread that is not yet joinable."""
    for suffix in ("(serve_forever)", "(_session)"):
        for thread in threading.enumerate():
            if thread.name.endswith(suffix):
                thread.join(timeout=5)
                assert not thread.is_alive()


def test_socket_run_sleeps_the_delays_the_virtual_run_draws(quick_spec, monkeypatch):
    cfg = SpoConfig(rtt_base=0.06, jitter_half_width=0.04, rng_seed=3)
    draws, drawers = [], set()
    sample = transport.LatencyModel.sample

    def recording_sample(model):
        draws.append(sample(model))
        drawers.add(threading.current_thread().name)
        return draws[-1]

    monkeypatch.setattr(transport.LatencyModel, "sample", recording_sample)
    weights = WeightMatrix(np.ones(4))
    server = _serve(quick_spec, cfg)
    try:
        edge_connect_run(("127.0.0.1", server.port), quick_spec, cfg, BaselineKind.SPO, 3, weights)
    finally:
        server.stop()
    _join_sessions()  # the server draws its last delays before it sees the edge hang up
    assert drawers and all(name.endswith("(_session)") for name in drawers)  # none at the edge
    socket_draws = draws[:]
    draws.clear()
    run_single(BaselineKind.SPO, quick_spec, cfg, 3, weights)
    # Both runs take an uplink then a downlink leg per refill from one stream;
    # the runs may end after different numbers of refills.
    n = min(len(socket_draws), len(draws))
    assert n >= 6  # three refills at least
    assert socket_draws[:n] == draws[:n]


def _waits_per_refill(records):
    """Awaiting ticks after each refill record (MISS or STARVED_HOLD) whose response arrived."""
    waits, pending = [], None
    for rec in records:
        if rec.outcome is Outcome.AWAITING_REFILL:
            pending += 1
            continue
        if pending is not None:
            waits.append(pending)
        pending = 0 if rec.outcome in (Outcome.MISS, Outcome.STARVED_HOLD) else None
    return waits


def test_a_socket_run_is_the_episode_its_virtual_twin_plays(quick_spec):
    """Every kind under both models: the same episode over the wire, up to float32 rounding,
    and, for an episode that finishes, the same prediction and cache counts."""
    spec = dataclasses.replace(quick_spec, max_steps=120)  # the baselines run to max_steps
    cfg = SpoConfig(rtt_base=0.06, jitter_half_width=0.01)
    weights = calibrate_weights(spec, seed=0)
    runs = [(kind, model) for kind in BaselineKind for model in ("oracle", "drifted")]

    def socket_run(kind, model):
        server = CloudServer(0, spec, cfg, kind, model_kind=model)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            return edge_connect_run(("127.0.0.1", server.port), spec, cfg, kind, 0, weights)
        finally:
            server.stop()
            thread.join(timeout=5)

    with concurrent.futures.ThreadPoolExecutor(len(runs)) as pool:  # real time, so overlap them
        sockets = list(pool.map(lambda run: socket_run(*run), runs))
    finished = []
    for (kind, model), sock in zip(runs, sockets):
        virt = run_single(kind, spec, cfg, 0, weights, model_kind=model)
        acted = [[rec for rec in run.records if rec.outcome is not Outcome.AWAITING_REFILL]
                 for run in (sock, virt)]
        if sock.metrics.success or virt.metrics.success:
            assert sock.metrics.success == virt.metrics.success, (kind, model)
            assert len(acted[0]) == len(acted[1]), (kind, model)
            counts = [(m.generated_predictions, m.wasted_predictions, m.hits, m.misses)
                      for m in (sock.metrics, virt.metrics)]
            assert counts[0] == counts[1], (kind, model, counts)
            finished.append(kind)
        assert min(map(len, acted)) >= 30, (kind, model)
        for a, b in zip(*acted):
            assert (a.outcome, a.progress) == (b.outcome, b.progress), (kind, model, b.step_index)
            gap = np.max(np.abs(np.subtract(a.action_executed.values, b.action_executed.values)))
            assert gap <= 1e-6, (kind, model, b.step_index, gap)
        waits = [_waits_per_refill(run.records) for run in (sock, virt)]
        assert waits[1] and all(s >= v for s, v in zip(*waits)), (kind, model, waits)
    # The speculating kinds finish; blocking and T1SC run out of steps.
    assert sorted(k.value for k in finished) == ["nftc", "nftc", "spo", "spo"], finished


@pytest.mark.parametrize("rtt, sleeps_per_request", [(0.0, 0), (0.04, 1)])
def test_the_server_sleeps_once_per_request_and_never_for_a_zero_delay(
    quick_spec, monkeypatch, rtt, sleeps_per_request
):
    """Only server session threads count: the edge's ``SocketLink.due`` sleeps too."""
    sleeps, requests = [], []
    sleep, recv_frame = time.sleep, transport.recv_frame

    def recording_sleep(seconds):
        if threading.current_thread().name.endswith("(_session)"):
            sleeps.append(seconds)
        sleep(seconds)

    def recording_recv_frame(sock):
        frame = recv_frame(sock)
        if frame is not None and threading.current_thread().name.endswith("(_session)"):
            requests.append(frame)
        return frame

    monkeypatch.setattr(spo.sockets.time, "sleep", recording_sleep)
    monkeypatch.setattr(transport, "recv_frame", recording_recv_frame)
    cfg = dataclasses.replace(FAST, rtt_base=rtt)
    server = _serve(quick_spec, cfg)
    try:
        m = edge_connect_run(
            ("127.0.0.1", server.port), quick_spec, cfg, BaselineKind.SPO, 0,
            WeightMatrix(np.ones(4)),
        ).metrics
    finally:
        server.stop()
    _join_sessions()
    assert m.diagnostic is None
    assert len(requests) >= 3
    assert len(sleeps) == sleeps_per_request * len(requests)
    assert all(s == rtt for s in sleeps)


def test_a_socket_episode_runs_the_edge_on_every_tick(quick_spec, monkeypatch):
    calls = []
    edge_tick = EdgeSession.edge_tick

    def counting(self, observed, tick_index):
        calls.append(tick_index)
        return edge_tick(self, observed, tick_index)

    monkeypatch.setattr(EdgeSession, "edge_tick", counting)
    cfg = dataclasses.replace(FAST, rtt_base=0.06)
    server = _serve(quick_spec, cfg)
    try:
        result = edge_connect_run(
            ("127.0.0.1", server.port), quick_spec, cfg, BaselineKind.SPO, 0,
            WeightMatrix(np.ones(4)),
        )
    finally:
        server.stop()
    assert result.metrics.awaiting > 0
    assert calls == [r.step_index for r in result.records]


def test_dead_endpoint_reports_diagnostic(quick_spec):
    cfg = SpoConfig(rtt_base=0.06, jitter_half_width=0.0)
    server = _serve(quick_spec, cfg)
    port = server.port
    server.stop()
    # The listener closes after stop(); connecting must fail cleanly.
    time.sleep(0.4)
    with pytest.raises(OSError):
        edge_connect_run(("127.0.0.1", port), quick_spec, cfg, BaselineKind.SPO, 0,
                         calibrate_weights(quick_spec, seed=0))


def _peer(reply):
    """A one-connection TCP peer: reads the first request frame, then ``reply(conn, frame)``.

    Returns the port, the list that receives the first frame, and the thread.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    seen = []

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                seen.append(transport.recv_frame(conn))
                reply(conn, seen[0])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], seen, thread


def _hang_up(conn, frame):
    pass


def _reply_with_request_frame(conn, frame):
    transport.send_frame(conn, frame)
    while conn.recv(4096):  # hold the connection open until the edge ends
        pass


def _cut_length_prefix(conn, frame):
    conn.sendall(b"\x10\x00")


def _cut_body(conn, frame):
    conn.sendall(struct.pack("<I", 16) + b"abc")


@pytest.mark.parametrize(
    "reply", [_hang_up, _reply_with_request_frame, _cut_length_prefix, _cut_body],
    ids=["hang-up", "request-typed-reply", "cut-length-prefix", "cut-body"],
)
def test_socket_episode_ends_when_peer_fails(quick_spec, reply):
    port, _, thread = _peer(reply)
    m = edge_connect_run(
        ("127.0.0.1", port), quick_spec, FAST, BaselineKind.SPO, 0, WeightMatrix(np.ones(4))
    ).metrics
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert m.diagnostic == "connection lost while awaiting refill"
    assert m.steps_taken < 25  # half a second of ticks, not max_steps (250)
    assert not m.success


def test_socket_edge_installs_only_the_response_to_the_request_in_flight(quick_spec):
    granted = []

    def reply(conn, frame):
        # One real rollout, sent twice and then under an id never issued
        # (an episode of 250 ticks issues at most 250); hang up at the next request.
        rid, req = transport.decode_request(frame)
        cloud = CloudSession(FAST, make_policy(quick_spec), make_model(quick_spec, "oracle"), None)
        resp = cloud.handle(req)
        granted.append(len(resp.tuples))
        for sent_id in (rid, rid, rid + 1000):
            transport.send_frame(conn, transport.encode_response(sent_id, resp, req.step_index))
        transport.recv_frame(conn)

    port, _, thread = _peer(reply)
    m = edge_connect_run(
        ("127.0.0.1", port), quick_spec, FAST, BaselineKind.SPO, 0, WeightMatrix(np.ones(4))
    ).metrics
    thread.join(timeout=5)
    assert not thread.is_alive()
    [k] = granted
    assert m.hits + m.misses == k
    assert m.generated_predictions == 3 * k
    assert m.diagnostic == "connection lost while awaiting refill"


def test_socket_first_request_carries_the_virtual_start_state(quick_spec):
    spec = dataclasses.replace(quick_spec, start_jitter=0.05)
    cfg = dataclasses.replace(FAST, rng_seed=7)
    port, seen, thread = _peer(_hang_up)
    edge_connect_run(("127.0.0.1", port), spec, cfg, BaselineKind.SPO, 3, WeightMatrix(np.ones(4)))
    thread.join(timeout=5)
    _, req = transport.decode_request(seen[0])
    expected = start_state(spec, episode_seeds(cfg, 3)[0]).values
    assert np.array_equal(req.observed_state.values, np.float32(expected))
    assert not np.array_equal(expected, start_state(spec).values)


def test_server_session_n_plays_episode_seed_s_plus_n_minus_1(quick_spec):
    cfg = dataclasses.replace(FAST, rng_seed=5)
    drift = {"drift_bias": 8e-4, "drift_noise": 2e-4}
    server = CloudServer(0, quick_spec, cfg, BaselineKind.SPO, model_kind="drifted", **drift)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    req = RolloutRequest(StateVector([0.1, -0.2, 0.3, -0.4]), violation_error=0.0, step_index=4)
    frames = []
    try:
        for _ in range(2):
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as conn:
                transport.send_frame(conn, transport.encode_request(11, req))
                frames.append(transport.recv_frame(conn))
    finally:
        server.stop()
        thread.join(timeout=5)
    assert not thread.is_alive()
    _, req = transport.decode_request(transport.encode_request(11, req))  # float32 on the wire
    for n, frame in enumerate(frames, start=1):
        model = make_model(quick_spec, "drifted", seed=episode_seeds(cfg, 5 + n - 1)[2], **drift)
        cloud = CloudSession(cfg, make_policy(quick_spec), model, FIXED_HORIZON[BaselineKind.SPO])
        assert frame == transport.encode_response(11, cloud.handle(req), step_index=4)
    assert frames[0] != frames[1]


def test_an_nftc_server_speculates_to_its_config_k_max(quick_spec):
    server = _serve(quick_spec, dataclasses.replace(FAST, k_max=6), kind=BaselineKind.NFTC)
    req = RolloutRequest(StateVector([0.1, -0.2, 0.3, -0.4]), violation_error=0.0, step_index=4)
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as conn:
            transport.send_frame(conn, transport.encode_request(1, req))
            frame = transport.recv_frame(conn)
    finally:
        server.stop()
    _join_sessions()
    _, resp = transport.decode_response(frame, 4, 4)
    assert resp.horizon_used == 6
    assert [t.step_index for t in resp.tuples] == [5, 6, 7, 8, 9, 10]


def _request_frame(violation_error, d_s):
    header = struct.pack("<BIIfH", transport.FRAME_TYPE_REQUEST, 1, 0, violation_error, d_s)
    return header + np.zeros(d_s, dtype="<f4").tobytes()


@pytest.mark.parametrize(
    "frame",
    [_request_frame(-1.0, 4), _request_frame(float("nan"), 4), _request_frame(0.0, 0)],
    ids=["negative-violation-error", "nan-violation-error", "zero-d_s"],
)
def test_server_closes_a_connection_on_a_bad_request_and_no_thread_raises(
    quick_spec, frame, monkeypatch, caplog
):
    """The bad request's session logs one warning naming it and the error; a peer
    that resets its connection is dropped without a word."""
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    server = _serve(quick_spec, FAST)
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as conn:
            transport.send_frame(conn, frame)
            assert transport.recv_frame(conn) is None  # closed, with no reply
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as conn:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    finally:
        server.stop()
    _join_sessions()
    assert raised == []
    [warning] = [rec for rec in caplog.records if rec.name == "spo.sockets"]
    assert warning.levelno == logging.WARNING
    assert warning.getMessage().startswith("session 1 dropped: FrameError: bad request: ")


def test_a_request_the_wire_cannot_carry_marks_the_socket_link_dead_without_raising(quick_spec):
    edge_end, peer_end = socket.socketpair()
    with edge_end, peer_end:
        link = spo.sockets.SocketLink(edge_end, quick_spec)
        req = RolloutRequest(StateVector(np.zeros(quick_spec.d_s)), 0.0, 2**32)
        link.send_request((1, req), 0.0)
        assert link.dead
        peer_end.setblocking(False)
        with pytest.raises(BlockingIOError):  # nothing was sent
            peer_end.recv(1)


def test_a_socket_link_takes_a_reply_only_at_a_tick_whose_time_has_reached_its_arrival(
    quick_spec,
):
    """A loop running behind its schedule takes no reply before its virtual twin could."""
    edge_end, peer_end = socket.socketpair()
    with edge_end, peer_end:
        link = spo.sockets.SocketLink(edge_end, quick_spec)
        created = time.monotonic()
        time.sleep(0.02)
        req = RolloutRequest(StateVector(np.full(quick_spec.d_s, 0.1)), 0.0, 3)
        cloud = CloudSession(FAST, make_policy(quick_spec), make_model(quick_spec, "oracle"), None)
        resp = cloud.handle(req)
        sent = time.monotonic()
        transport.send_frame(peer_end, transport.encode_response(7, resp, req.step_index))
        deadline = time.monotonic() + 5.0
        while not link._inbox and time.monotonic() < deadline:
            time.sleep(0.001)
        [(arrival, _)] = link._inbox
        assert arrival >= sent - created > 0.0
        for now in [*np.linspace(0.0, arrival, 50, endpoint=False), np.nextafter(arrival, 0.0)]:
            assert link.due(float(now)) == [], now
        [(rid, got)] = link.due(arrival)
        assert (rid, len(got.tuples)) == (7, len(resp.tuples))
        assert link._inbox == [] and link.due(arrival) == []  # taken once
