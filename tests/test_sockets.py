"""Socket mode: TCP server, receiver-side delay shims, real-time edge loop."""

import dataclasses
import socket
import struct
import threading

import numpy as np
import pytest

from spo import transport
from spo.cloud import CloudSession, RolloutRequest, make_model, make_policy
from spo.environments import Dynamics, EnvironmentSpec, start_state
from spo.harness import FIXED_HORIZON, BaselineKind, calibrate_weights, episode_seeds
from spo.sockets import CloudServer, edge_connect_run
from spo.types import SpoConfig, StateVector, WeightMatrix

FAST = SpoConfig(rtt_base=0.0, jitter_half_width=0.0)


@pytest.fixture()
def quick_spec():
    # Small, fast task so the real-time loop stays around a second.
    return EnvironmentSpec(
        name="quick", d_s=4, d_a=4, dynamics=Dynamics.WAYPOINT_TRACKER,
        max_steps=250, waypoints=(np.array([0.4, -0.4, 0.3, -0.3]),),
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


def test_dead_endpoint_reports_diagnostic(quick_spec):
    cfg = SpoConfig(rtt_base=0.06, jitter_half_width=0.0)
    server = _serve(quick_spec, cfg)
    port = server.port
    server.stop()
    # The listener closes after stop(); connecting must fail cleanly.
    import time

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


def test_socket_first_request_carries_the_virtual_start_state(quick_spec):
    spec = dataclasses.replace(quick_spec, start_jitter=0.05)
    cfg = FAST.replace(rng_seed=7)
    port, seen, thread = _peer(_hang_up)
    edge_connect_run(("127.0.0.1", port), spec, cfg, BaselineKind.SPO, 3, WeightMatrix(np.ones(4)))
    thread.join(timeout=5)
    _, req = transport.decode_request(seen[0])
    expected = start_state(spec, episode_seeds(cfg, 3)[0]).values
    assert np.array_equal(req.observed_state.values, expected.astype(np.float32))
    assert not np.array_equal(expected, start_state(spec).values)


def test_server_session_n_plays_episode_seed_s_plus_n_minus_1(quick_spec):
    cfg = FAST.replace(rng_seed=5)
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


def _request_frame(violation_error, d_s):
    header = struct.pack("<BIIfH", transport.FRAME_TYPE_REQUEST, 1, 0, violation_error, d_s)
    return header + np.zeros(d_s, dtype="<f4").tobytes()


@pytest.mark.parametrize(
    "frame",
    [_request_frame(-1.0, 4), _request_frame(float("nan"), 4), _request_frame(0.0, 0)],
    ids=["negative-violation-error", "nan-violation-error", "zero-d_s"],
)
def test_server_closes_a_connection_on_a_bad_request_and_no_thread_raises(
    quick_spec, frame, monkeypatch
):
    raised = []
    monkeypatch.setattr(threading, "excepthook", raised.append)
    server = _serve(quick_spec, FAST)
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as conn:
            transport.send_frame(conn, frame)
            assert transport.recv_frame(conn) is None  # closed, with no reply
    finally:
        server.stop()
    for thread in threading.enumerate():
        if thread.name.endswith("(_session)"):
            thread.join(timeout=5)
    assert raised == []
