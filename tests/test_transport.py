"""Wire codec byte laws, socket framing, latency model, and virtual channel behavior."""

import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spo.cloud import RolloutRequest, RolloutResponse
from spo.transport import (
    FRAME_TYPE_REQUEST,
    FRAME_TYPE_RESPONSE,
    MAX_FRAME_BYTES,
    FrameError,
    LatencyModel,
    VirtualChannel,
    decode_request,
    decode_response,
    decode_tuple,
    encode_request,
    encode_response,
    encode_tuple,
    one_way_latency,
    recv_frame,
    send_frame,
)
from spo.types import ActionVector, SpeculativeTuple, StateVector


def _random_tuple(rng, d_s, d_a, step=0):
    return SpeculativeTuple(
        StateVector(rng.uniform(-100.0, 100.0, d_s)),
        ActionVector(rng.uniform(-1.0, 1.0, d_a)),
        step,
    )


def test_tuple_size_624_bytes_at_ds148():
    rng = np.random.default_rng(0)
    assert len(encode_tuple(_random_tuple(rng, 148, 8))) == 624


def test_tuple_size_596_bytes_at_ds141():
    rng = np.random.default_rng(0)
    assert len(encode_tuple(_random_tuple(rng, 141, 8))) == 596


def test_ten_tuple_payload_is_6240_bytes():
    rng = np.random.default_rng(0)
    tuples = tuple(_random_tuple(rng, 148, 8, step=i + 1) for i in range(10))
    frame = encode_response(1, RolloutResponse(tuples, 10), step_index=0)
    header = 1 + 4 + 4 + 2  # type, request_id, step_index, tuple_count
    assert len(frame) - header == 6240


def test_byte_length_law_over_ds_range():
    rng = np.random.default_rng(1)
    for d_s in range(1, 513, 7):
        t = _random_tuple(rng, d_s, 8)
        assert len(encode_tuple(t)) == 4 * (d_s + 8)


def test_roundtrip_float32_exact():
    rng = np.random.default_rng(2)
    t = _random_tuple(rng, 16, 4, step=9)
    back = decode_tuple(encode_tuple(t), 16, 4, step_index=9)
    assert np.array_equal(back.predicted_state.values,
                          t.predicted_state.values.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.action.values,
                          t.action.values.astype(np.float32).astype(np.float64))
    assert back.step_index == 9


def test_roundtrip_exactly_representable_is_identity():
    t = SpeculativeTuple(
        StateVector([0.0, 1.5, -2.25, 1024.0]), ActionVector([0.5, -0.125]), 3
    )
    back = decode_tuple(encode_tuple(t), 4, 2, step_index=3)
    assert back.predicted_state == t.predicted_state
    assert back.action == t.action


def test_truncated_tuple_raises():
    rng = np.random.default_rng(3)
    data = encode_tuple(_random_tuple(rng, 148, 8))
    with pytest.raises(FrameError):
        decode_tuple(data[:623], 148, 8)


def test_nonfinite_encode_rejected():
    # Finite in float64 but overflows float32.
    t = SpeculativeTuple(StateVector([1e39]), ActionVector([0.0]), 0)
    with pytest.raises(FrameError):
        encode_tuple(t)


def test_request_roundtrip():
    req = RolloutRequest(StateVector([1.0, -2.5, 0.25]), violation_error=25.0, step_index=42)
    rid, back = decode_request(encode_request(7, req))
    assert rid == 7
    assert back.step_index == 42
    assert back.violation_error == 25.0
    assert back.observed_state == req.observed_state


def test_request_violation_error_beyond_float32_range_is_a_frame_error():
    req = RolloutRequest(StateVector([1.0]), violation_error=1e39, step_index=0)
    with pytest.raises(FrameError, match="beyond float32 range"):
        encode_request(1, req)


def test_request_state_beyond_the_uint16_count_is_a_frame_error():
    req = RolloutRequest(StateVector(np.zeros(0x10000)), violation_error=0.0, step_index=0)
    with pytest.raises(FrameError, match="uint16"):
        encode_request(1, req)
    assert len(encode_request(1, RolloutRequest(StateVector(np.zeros(0xFFFF)), 0.0, 0))) > 0


def test_request_payload_length_checked():
    req = RolloutRequest(StateVector([1.0, 2.0]), 0.0, 0)
    frame = encode_request(1, req)
    with pytest.raises(FrameError):
        decode_request(frame[:-1])


def test_response_roundtrip_reconstructs_step_indices():
    rng = np.random.default_rng(4)
    tuples = tuple(_random_tuple(rng, 6, 2, step=11 + i) for i in range(5))
    frame = encode_response(3, RolloutResponse(tuples, 5), step_index=10)
    rid, resp = decode_response(frame, 6, 2)
    assert rid == 3
    assert [t.step_index for t in resp.tuples] == [11, 12, 13, 14, 15]
    assert resp.horizon_used == 5


def test_response_type_mismatch_raises():
    req = RolloutRequest(StateVector([1.0]), 0.0, 0)
    with pytest.raises(FrameError):
        decode_response(encode_request(1, req), 1, 1)


def test_recv_frame_rejects_every_truncation():
    frame = encode_request(5, RolloutRequest(StateVector([1.0, -2.0, 3.0]), 0.5, 9))
    a, b = socket.socketpair()
    with a, b:
        send_frame(a, frame)
        wire = b.recv(1 << 16)
    assert len(wire) == 4 + len(frame)
    for cut in range(len(wire) + 1):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(wire[:cut])
            a.shutdown(socket.SHUT_WR)
            if cut == 0:
                assert recv_frame(b) is None
            elif cut < len(wire):
                with pytest.raises(FrameError):
                    recv_frame(b)
            else:
                assert recv_frame(b) == frame
                assert recv_frame(b) is None


def test_sample_delay_degenerate_cases():
    rng = np.random.default_rng(0)
    assert LatencyModel(0.075, 0.0, rng).sample() == 0.075
    assert LatencyModel(0.0, 0.0, rng).sample() == 0.0


def test_sample_delay_uniform_moments():
    model = LatencyModel(0.075, 0.015, np.random.default_rng(123))
    draws = np.array([model.sample() for _ in range(100_000)])
    assert draws.min() >= 0.060
    assert draws.max() <= 0.090
    assert abs(draws.mean() - 0.075) < 0.001


def test_latency_model_rejects_negative():
    with pytest.raises(ValueError):
        LatencyModel(-0.01, 0.0, np.random.default_rng(0))


def test_one_way_latency_splits_rtt_symmetrically():
    model = one_way_latency(0.15, 0.03, np.random.default_rng(0))
    assert model.base_one_way == 0.075
    assert model.jitter_half_width_one_way == 0.015


def test_virtual_channel_deliver_basics():
    channel = VirtualChannel(LatencyModel(0.075, 0.0, np.random.default_rng(0)))
    channel.send_response("a", now=0.0)
    assert channel.edge_inbox(0.05) == []  # not due yet
    assert channel.edge_inbox(0.08) == ["a"]
    assert channel.to_edge == []


def test_virtual_channel_deliver_preserves_send_order():
    channel = VirtualChannel(LatencyModel(0.075, 0.0, np.random.default_rng(0)))
    channel.send_response("first", now=0.0)
    channel.send_response("second", now=0.0)  # same deliver-at time
    assert channel.edge_inbox(0.1) == ["first", "second"]


def test_virtual_channel_fifo_under_jitter():
    channel = VirtualChannel(LatencyModel(0.075, 0.015, np.random.default_rng(99)))
    for i in range(50):
        channel.send_request(i, now=i * 0.001)
    deliver_times = [t for t, _ in channel.to_cloud]
    assert deliver_times == sorted(deliver_times)
    assert [item for _, item in channel.cloud_inbox_timed(10.0)] == list(range(50))


def test_virtual_channel_directions_are_independent():
    channel = VirtualChannel(LatencyModel(0.05, 0.0, np.random.default_rng(0)))
    channel.send_request("up", now=0.0)
    channel.send_response("down", now=0.0)
    assert channel.edge_inbox(0.06) == ["down"]
    assert [item for _, item in channel.cloud_inbox_timed(0.06)] == ["up"]


def test_recv_frame_refuses_an_oversized_declared_length_before_the_body():
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(5.0)  # at worst a slow failure, never a hang
        a.sendall((0xFFFFFFF0).to_bytes(4, "little"))  # and the peer stays open
        t0 = time.perf_counter()
        with pytest.raises(FrameError, match="exceeds"):
            recv_frame(b)
        assert time.perf_counter() - t0 < 1.0


def test_frame_at_the_cap_passes_and_one_byte_over_is_refused_by_either_end():
    a, b = socket.socketpair()
    with a, b:
        a.sendall(MAX_FRAME_BYTES.to_bytes(4, "little"))
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(FrameError, match="closed"):  # within the cap: reads the body
            recv_frame(b)
    a, b = socket.socketpair()
    with a, b:
        a.settimeout(5.0)
        b.settimeout(5.0)
        a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "little"))
        with pytest.raises(FrameError, match="exceeds"):
            recv_frame(b)
        with pytest.raises(FrameError, match="exceeds"):
            send_frame(a, bytes(MAX_FRAME_BYTES + 1))


f32 = st.floats(width=32)  # NaN and the infinities included
finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _frames(draw):
    """Any frame: either header, any type byte, and a payload of any length or of the right one."""
    ftype = draw(st.one_of(st.sampled_from([FRAME_TYPE_REQUEST, FRAME_TYPE_RESPONSE]),
                           st.integers(0, 255)))
    common = struct.pack("<BII", ftype, draw(st.integers(0, 2**32 - 1)),
                         draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        count = draw(st.integers(0, 12))  # d_s
        header, n_floats = struct.pack("<fH", draw(f32), count), count
    else:
        count = draw(st.integers(0, 3))  # tuples of d_s + d_a = 2 + 1 floats
        header, n_floats = struct.pack("<H", count), 3 * count
    payload = draw(st.one_of(
        st.binary(max_size=64),
        st.lists(f32, min_size=n_floats, max_size=n_floats).map(
            lambda xs: np.asarray(xs, dtype="<f4").tobytes()
        ),
    ))
    return (common + header + payload)[: draw(st.none() | st.integers(0, 100))]


@settings(max_examples=300, deadline=None)
@given(_frames())
def test_decoders_return_or_raise_frame_error_for_any_frame(frame):
    for decode in (decode_request, lambda f: decode_response(f, 2, 1)):
        try:
            decode(frame)
        except FrameError:
            pass


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.floats(min_value=0.0, width=32, allow_infinity=False),
    st.lists(finite_f32, min_size=1, max_size=12),
    st.integers(1, 4),
    st.lists(st.lists(finite_f32, min_size=5, max_size=5), max_size=6),
)
def test_float32_vectors_round_trip_exactly(rid, step, violation, state, d_s, rows):
    _, req = decode_request(encode_request(rid, RolloutRequest(StateVector(state), violation, step)))
    assert (req.step_index, req.violation_error) == (step, violation)
    assert np.array_equal(req.observed_state.values, state)
    tuples = tuple(
        SpeculativeTuple(StateVector(r[:d_s]), ActionVector(r[d_s:]), step + 1 + i)
        for i, r in enumerate(rows)
    )
    frame = encode_response(rid, RolloutResponse(tuples, len(rows)), step_index=step)
    back_rid, resp = decode_response(frame, d_s, 5 - d_s)
    assert back_rid == rid and resp.horizon_used == len(rows)
    assert resp.tuples == tuples
