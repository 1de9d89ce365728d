"""Wire codec byte laws, socket framing, latency model, and virtual channel behavior."""

import hashlib
import math
import socket
import struct
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spo import harness
from spo.cloud import CloudSession, RolloutRequest, RolloutResponse, make_model, make_policy
from spo.environments import get_spec
from spo.transport import (
    FRAME_TYPE_REQUEST,
    FRAME_TYPE_RESPONSE,
    MAX_FRAME_BYTES,
    ChannelBusyError,
    FrameError,
    LatencyModel,
    VirtualChannel,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    recv_frame,
    send_frame,
)
from spo.types import ActionVector, SpeculativeTuple, SpoConfig, StateVector


def _random_tuple(rng, d_s, d_a, step=0):
    return SpeculativeTuple(
        StateVector(rng.uniform(-100.0, 100.0, d_s)),
        ActionVector(rng.uniform(-1.0, 1.0, d_a)),
        step,
    )


RESPONSE_HEADER = 1 + 4 + 4 + 2  # type, request_id, step_index, tuple_count


def _tuple_frame(t):
    """A one-tuple response frame whose step index decodes back to ``t``'s."""
    return encode_response(1, RolloutResponse((t,), 1), step_index=t.step_index - 1)


def _tuple_bytes(t):
    """One tuple's wire bytes: a one-tuple response frame less its header."""
    return _tuple_frame(t)[RESPONSE_HEADER:]


def _roundtrip(t, d_s, d_a):
    (back,) = decode_response(_tuple_frame(t), d_s, d_a)[1].tuples
    return back


def test_tuple_size_624_bytes_at_ds148():
    rng = np.random.default_rng(0)
    assert len(_tuple_bytes(_random_tuple(rng, 148, 8, step=1))) == 624


def test_tuple_size_596_bytes_at_ds141():
    rng = np.random.default_rng(0)
    assert len(_tuple_bytes(_random_tuple(rng, 141, 8, step=1))) == 596


def test_ten_tuple_payload_is_6240_bytes():
    rng = np.random.default_rng(0)
    tuples = tuple(_random_tuple(rng, 148, 8, step=i + 1) for i in range(10))
    frame = encode_response(1, RolloutResponse(tuples, 10), step_index=0)
    assert len(frame) - RESPONSE_HEADER == 6240


def test_byte_length_law_over_ds_range():
    rng = np.random.default_rng(1)
    for d_s in range(1, 513, 7):
        t = _random_tuple(rng, d_s, 8, step=1)
        assert len(_tuple_bytes(t)) == 4 * (d_s + 8)


def test_roundtrip_float32_exact():
    rng = np.random.default_rng(2)
    t = _random_tuple(rng, 16, 4, step=9)
    back = _roundtrip(t, 16, 4)
    assert np.array_equal(back.predicted_state.values,
                          np.float32(t.predicted_state.values).astype(np.float64))
    assert np.array_equal(back.action.values, np.float32(t.action.values).astype(np.float64))
    assert back.step_index == 9


def test_roundtrip_exactly_representable_is_identity():
    t = SpeculativeTuple(
        StateVector([0.0, 1.5, -2.25, 1024.0]), ActionVector([0.5, -0.125]), 3
    )
    back = _roundtrip(t, 4, 2)
    assert back.predicted_state == t.predicted_state
    assert back.action == t.action


def test_truncated_tuple_raises():
    rng = np.random.default_rng(3)
    frame = _tuple_frame(_random_tuple(rng, 148, 8, step=1))
    assert len(frame) - RESPONSE_HEADER == 624
    with pytest.raises(FrameError):
        decode_response(frame[:-1], 148, 8)


def test_nonfinite_encode_rejected():
    # Finite in float64 but overflows float32.
    t = SpeculativeTuple(StateVector([1e39]), ActionVector([0.0]), 1)
    with pytest.raises(FrameError):
        _tuple_frame(t)


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


def _per_tuple_encode_response(request_id, resp, step_index=0):
    """The per-tuple encoder, the reference for the whole-frame one: each tuple narrowed alone."""
    head = struct.pack("<BIIH", FRAME_TYPE_RESPONSE, request_id, step_index, len(resp.tuples))
    return head + b"".join(_tuple_bytes(t) for t in resp.tuples)


def _per_tuple_decode_payload(payload, d_s, d_a, first_step):
    """The per-tuple decoder, the reference for the whole-frame one: each vector built alone."""
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return tuple(
        SpeculativeTuple(StateVector(row[:d_s]), ActionVector(row[d_s:]), first_step + i)
        for i, row in enumerate(flat.reshape(-1, d_s + d_a))
    )


@pytest.mark.parametrize("d_s", [1, 8, 148])
@pytest.mark.parametrize("k", [1, 2, 10])
def test_whole_frame_codec_matches_the_per_tuple_reference(k, d_s):
    d_a = 8
    rng = np.random.default_rng(100 * k + d_s)
    resp = RolloutResponse(tuple(_random_tuple(rng, d_s, d_a, step=21 + i) for i in range(k)), k)
    frame = encode_response(9, resp, step_index=20)
    assert frame == _per_tuple_encode_response(9, resp, step_index=20)
    rid, back = decode_response(frame, d_s, d_a)
    expected = _per_tuple_decode_payload(frame[11:], d_s, d_a, 21)
    assert rid == 9 and back.horizon_used == k
    assert [t.step_index for t in back.tuples] == [t.step_index for t in expected]
    for got, want in zip(back.tuples, expected, strict=True):
        for vec, ref in ((got.predicted_state, want.predicted_state), (got.action, want.action)):
            assert type(vec) is type(ref) and type(vec.values) is tuple
            assert all(type(x) is float for x in vec.values)
            assert list(map(float.hex, vec.values)) == list(map(float.hex, ref.values))


def test_overflow_only_in_the_last_tuples_action_fails_the_frame_encode():
    rng = np.random.default_rng(5)
    tuples = [_random_tuple(rng, 8, 8, step=1 + i) for i in range(10)]
    action = list(tuples[-1].action.values)
    action[-1] = 1e39  # finite in float64, beyond float32
    tuples[-1] = SpeculativeTuple(tuples[-1].predicted_state, ActionVector(action), 10)
    resp = RolloutResponse(tuple(tuples), 10)
    for encode in (encode_response, _per_tuple_encode_response):
        with pytest.raises(FrameError, match="non-finite"):
            encode(1, resp)


def test_nan_as_the_last_payload_float_fails_the_frame_decode():
    rng = np.random.default_rng(6)
    resp = RolloutResponse(tuple(_random_tuple(rng, 8, 8, step=1 + i) for i in range(10)), 10)
    frame = encode_response(1, resp)[:-4] + struct.pack("<f", math.nan)
    with pytest.raises(FrameError, match="non-finite"):
        decode_response(frame, 8, 8)


def test_decode_refuses_an_empty_state_or_action_dimension():
    tup = SpeculativeTuple(StateVector([1.0, 2.0]), ActionVector([3.0]), 1)
    frame = encode_response(1, RolloutResponse((tup,), 1))
    for d_s, d_a in ((0, 3), (3, 0)):
        with pytest.raises(FrameError):
            decode_response(frame, d_s, d_a)


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


class _Trickle:
    """A socket stand-in that hands over ``wire`` at most ``chunk`` bytes per call, then EOF.

    Any call after ``budget_s`` seconds fails the test, so a slow reader fails
    fast instead of running on.
    """

    def __init__(self, wire: bytes, chunk: int, budget_s: float):
        self.wire, self.chunk, self.pos = memoryview(wire), chunk, 0
        self.deadline = time.perf_counter() + budget_s

    def _take(self, n: int) -> memoryview:
        assert time.perf_counter() < self.deadline, f"still reading after {self.pos} bytes"
        piece = self.wire[self.pos:self.pos + min(n, self.chunk)]
        self.pos += len(piece)
        return piece

    def recv(self, n: int) -> bytes:
        return bytes(self._take(n))

    def recv_into(self, buf) -> int:
        piece = self._take(len(buf))
        buf[:len(piece)] = piece
        return len(piece)


def test_recv_frame_reads_a_frame_in_small_pieces_in_linear_time():
    body = np.random.default_rng(7).bytes(8 * 1024 * 1024)
    wire = struct.pack("<I", len(body)) + body
    # 32 768 reads of 256 bytes: tens of ms if each copies its piece once, and
    # many seconds if each copies everything read so far.
    sock = _Trickle(wire, chunk=256, budget_s=3.0)
    assert recv_frame(sock) == body
    assert recv_frame(sock) is None
    with pytest.raises(FrameError, match="closed after"):
        recv_frame(_Trickle(wire[:-1], chunk=256, budget_s=3.0))
    with pytest.raises(FrameError, match="closed after 2 of 4"):
        recv_frame(_Trickle(wire[:2], chunk=1, budget_s=3.0))


def test_sample_delay_degenerate_cases():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert LatencyModel(0.075, 0.0, rng).sample() == 0.075
    assert LatencyModel(0.0, 0.0, rng).sample() == 0.0
    assert rng.bit_generator.state == before  # zero jitter consumes no draw


@pytest.mark.parametrize("base, half_width", [(0.075, 0.015), (0.01, 0.03)],
                         ids=["jittered", "clamped-at-zero"])
def test_a_latency_draw_is_generator_uniform_draw_for_draw(base, half_width):
    model = LatencyModel(base, half_width, np.random.default_rng(9))
    twin = np.random.default_rng(9)
    lo, hi = base - half_width, base + half_width
    draws = [model.sample() for _ in range(10_000)]
    assert draws == [max(0.0, float(twin.uniform(lo, hi))) for _ in range(10_000)]
    assert (min(draws) == 0.0) == (lo < 0)


def test_sample_delay_uniform_moments():
    model = LatencyModel(0.075, 0.015, np.random.default_rng(123))
    draws = np.array([model.sample() for _ in range(100_000)])
    assert draws.min() >= 0.060
    assert draws.max() <= 0.090
    assert abs(draws.mean() - 0.075) < 0.001


def test_episode_seeds_builds_the_halved_latency_model():
    cfg = SpoConfig(rtt_base=0.15, jitter_half_width=0.03, rng_seed=2)
    _, model, _ = harness.episode_seeds(cfg, 5)
    assert model.base_one_way == 0.075
    assert model.jitter_half_width_one_way == 0.015
    # It draws from the episode's channel stream, the second of its three.
    channel = np.random.default_rng(np.random.SeedSequence([2, 5]).spawn(3)[1])
    expected = [float(channel.uniform(0.075 - 0.015, 0.075 + 0.015)) for _ in range(4)]
    assert [model.sample() for _ in range(4)] == expected


def _channel(base_one_way):
    """A channel whose cloud is never asked: these tests drive its two legs by hand."""
    return VirtualChannel(LatencyModel(base_one_way, 0.0, np.random.default_rng(0)), cloud=None)


def test_virtual_channel_deliver_basics():
    channel = _channel(0.075)
    channel.send_response("a", now=0.0)
    assert channel.edge_inbox(0.05) == []  # not due yet
    assert channel.edge_inbox(0.08) == ["a"]
    assert channel.pending is None


def test_virtual_channel_refuses_a_second_message_in_flight():
    channel = _channel(0.075)
    channel.send_response("first", now=0.0)
    with pytest.raises(ChannelBusyError):
        channel.send_response("second", now=0.0)
    assert channel.edge_inbox(0.1) == ["first"]
    channel.send_response("second", now=0.1)  # the slot is free once the first is taken
    assert channel.edge_inbox(0.2) == ["second"]


def test_a_send_in_either_direction_while_a_message_is_in_flight_raises_and_draws_no_delay():
    rng = np.random.default_rng(0)
    channel = VirtualChannel(LatencyModel(0.05, 0.01, rng), cloud=None)
    channel.send_request("up", now=0.0)
    drawn = rng.bit_generator.state
    with pytest.raises(ChannelBusyError):
        channel.send_response("down", now=0.0)
    with pytest.raises(ChannelBusyError):
        channel.send_request("up again", now=0.0)
    assert rng.bit_generator.state == drawn  # a refused send leaves the next leg's draw alone
    [(_, item)] = channel.cloud_inbox_timed(1.0)
    assert item == "up"
    channel.send_response("down", now=1.0)
    with pytest.raises(ChannelBusyError):
        channel.send_request("next", now=1.0)
    assert channel.edge_inbox(2.0) == ["down"]


def test_virtual_channel_directions_are_used_one_at_a_time():
    channel = _channel(0.05)
    channel.send_request("up", now=0.0)
    assert channel.edge_inbox(0.06) == []  # a request is never delivered to the edge
    assert [item for _, item in channel.cloud_inbox_timed(0.06)] == ["up"]
    channel.send_response("down", now=0.06)
    assert channel.cloud_inbox_timed(0.2) == []  # nor a response to the cloud
    assert channel.edge_inbox(0.2) == ["down"]


def test_virtual_channel_answer_handles_the_request_at_once_and_returns_its_reply_s_deliver_at():
    """``answer()`` has the cloud handle the request in flight once, at once, its reply
    leaving at the request's arrival instant, and returns when the reply reaches the edge."""
    handled = []

    class Cloud:
        def handle(self, req):
            handled.append(req)
            return f"reply to {req}"

    channel = VirtualChannel(LatencyModel(0.05, 0.02, np.random.default_rng(3)), Cloud())
    twin = LatencyModel(0.05, 0.02, np.random.default_rng(3))
    assert channel.answer() == math.inf
    channel.send_request((1, "req"), now=0.3)
    up, down = twin.sample(), twin.sample()  # the uplink at send, the downlink at answer
    assert up != down
    assert channel.answer() == (0.3 + up) + down and handled == ["req"]
    assert channel.answer() == (0.3 + up) + down and handled == ["req"]  # nothing more to handle
    assert channel.edge_inbox((0.3 + up) + down) == [(1, "reply to req")]
    assert channel.answer() == math.inf and handled == ["req"]


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
    decoded = [req.observed_state] + [v for t in resp.tuples for v in (t.predicted_state, t.action)]
    for vec in decoded:
        assert type(vec.values) is tuple
        with pytest.raises(TypeError, match="does not support item assignment"):
            vec.values[0] = 0.0


F32_OVERFLOW = 2.0**128 - 2.0**103  # the least magnitude float32 rounds to infinity


@pytest.mark.parametrize("bad", [F32_OVERFLOW, -F32_OVERFLOW, math.nan, math.inf, -math.inf])
def test_a_value_float32_cannot_hold_is_refused_in_a_request_state_and_a_response(bad):
    # The vector constructors refuse NaN and the infinities, and the encoders must
    # refuse them too, so each value is put into a vector already built.
    state = StateVector([1.0, 2.0])
    object.__setattr__(state, "values", (1.0, bad))
    with pytest.raises(FrameError, match="non-finite"):
        encode_request(1, RolloutRequest(state, 0.0, 0))
    rng = np.random.default_rng(8)
    tuples = [_random_tuple(rng, 2, 2, step=1 + i) for i in range(3)]
    action = ActionVector([0.0, 0.0])
    object.__setattr__(action, "values", (0.5, bad))
    tuples[-1] = SpeculativeTuple(tuples[-1].predicted_state, action, 3)
    with pytest.raises(FrameError, match="non-finite"):
        encode_response(1, RolloutResponse(tuple(tuples), 3))


def test_the_largest_value_below_the_overflow_bound_narrows_to_float32_max():
    below = float(np.nextafter(F32_OVERFLOW, 0.0))
    f32_max = float(np.finfo(np.float32).max)
    assert below > f32_max
    frame = encode_request(1, RolloutRequest(StateVector([below, -below]), 0.0, 0))
    assert np.array_equal(np.frombuffer(frame[-8:], "<f4"), [f32_max, -f32_max])
    t = SpeculativeTuple(StateVector([below]), ActionVector([-below]), 1)
    back = _roundtrip(t, 1, 1)
    assert (back.predicted_state.values[0], back.action.values[0]) == (f32_max, -f32_max)


def _encode_both(values, split):
    """``values`` encoded as a request's state and as one tuple split at ``split``."""
    values = tuple(np.asarray(values, dtype=np.float64).tolist())
    state = StateVector(np.ones(len(values)))
    object.__setattr__(state, "values", values)
    tup_state, action = StateVector(np.ones(split)), ActionVector(np.ones(len(values) - split))
    object.__setattr__(tup_state, "values", values[:split])
    object.__setattr__(action, "values", values[split:])
    tup = SpeculativeTuple(tup_state, action, 1)
    return (lambda: encode_request(1, RolloutRequest(state, 0.0, 0)),
            lambda: encode_response(1, RolloutResponse((tup,), 1)))


def _ulps_around(x, n=3):
    """``x`` and its ``n`` nearest float64 neighbours on each side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(float(np.nextafter(below[-1], -math.inf)))
        above.append(float(np.nextafter(above[-1], math.inf)))
    return below + above[1:]


_EDGE_MAGNITUDES = _ulps_around(F32_OVERFLOW) + _ulps_around(float(np.finfo(np.float32).max))
_special_floats = st.one_of(
    st.sampled_from(_EDGE_MAGNITUDES + [-m for m in _EDGE_MAGNITUDES]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(1e199, 1e201),
    st.floats(-1e201, -1e199),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       st.lists(_special_floats, min_size=1, max_size=2), st.data())
def test_the_encoders_refuse_exactly_what_the_per_value_bound_refuses(ordinary, special, data):
    """Past the hypot's finiteness check, ``struct`` refuses exactly the values at or beyond
    the bound, and packs every other one to numpy's float32 bytes."""
    v = np.array(data.draw(st.permutations(ordinary + special)))
    refused = not np.abs(v).max() < F32_OVERFLOW
    for encode in _encode_both(v, data.draw(st.integers(1, v.size - 1))):
        if refused:
            with pytest.raises(FrameError, match="non-finite"):
                encode()
        else:
            assert encode()[-4 * v.size:] == v.astype("<f4").tobytes()


def test_a_payload_of_values_just_below_the_bound_narrows_to_float32_max():
    v = [float(np.nextafter(F32_OVERFLOW, 0.0))] * 8
    assert math.hypot(*v) > F32_OVERFLOW  # finite: the hypot proves no float32 range
    f32_max = np.full(8, np.finfo(np.float32).max, "<f4").tobytes()
    for encode in _encode_both(v, 4):
        assert encode()[-32:] == f32_max


def test_a_value_whose_square_overflows_float64_is_refused_without_a_warning():
    for encode in _encode_both([1e200, 0.0], 1), _encode_both([1.7e308, 1.7e308], 1):
        for one in encode:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FrameError, match="non-finite"):
                    one()


@pytest.mark.parametrize("tuples", [0, 1])
def test_decode_response_refuses_a_zero_dimension_even_for_an_empty_frame(tuples):
    tup = SpeculativeTuple(StateVector([1.0, 2.0]), ActionVector([3.0]), 1)
    frame = encode_response(1, RolloutResponse((tup,) * tuples, tuples))
    d = 3
    for d_s, d_a in ((0, d), (d, 0)):
        with pytest.raises(FrameError, match="dimensions"):
            decode_response(frame, d_s, d_a)


def test_the_vectors_of_a_decoded_frame_are_the_payload_floats_in_order():
    rng = np.random.default_rng(9)
    tuples = tuple(_random_tuple(rng, 4, 2, step=6 + i) for i in range(5))
    frame = encode_response(1, RolloutResponse(tuples, 5), step_index=5)
    _, resp = decode_response(frame, 4, 2)
    vectors = [v.values for t in resp.tuples for v in (t.predicted_state, t.action)]
    assert [len(v) for v in vectors] == [4, 2] * 5
    assert all(type(v) is tuple and all(type(x) is float for x in v) for v in vectors)
    payload = np.frombuffer(frame, "<f4", offset=RESPONSE_HEADER).astype(np.float64)
    assert [x for v in vectors for x in v] == payload.tolist()


@pytest.mark.parametrize("rid, step", [(2**32, 0), (0, 2**32)], ids=["id", "step"])
def test_an_id_or_step_beyond_uint32_is_a_frame_error_in_either_encoder(rid, step):
    req = RolloutRequest(StateVector([1.0]), 0.0, step)
    resp = RolloutResponse((SpeculativeTuple(StateVector([1.0]), ActionVector([0.0]), 1),), 1)
    with pytest.raises(FrameError, match="uint32"):
        encode_request(rid, req)
    with pytest.raises(FrameError, match="uint32"):
        encode_response(rid, resp, step_index=step)
    rid, step = min(rid, 2**32 - 1), min(step, 2**32 - 1)  # the largest each field holds
    back_rid, back = decode_request(encode_request(rid, RolloutRequest(StateVector([1.0]), 0.0, step)))
    assert (back_rid, back.step_index) == (rid, step)
    back_rid, back = decode_response(encode_response(rid, resp, step_index=step), 1, 1)
    assert (back_rid, back.tuples[0].step_index) == (rid, step + 1)


@pytest.mark.parametrize("step", [0, 7, 2**32 - 11])
@pytest.mark.parametrize("count", [0, 1, 10])
def test_decoded_tuples_carry_the_indices_after_the_header_step(step, count):
    rng = np.random.default_rng(count)
    tuples = tuple(_random_tuple(rng, 3, 2, step=step + 1 + i) for i in range(count))
    _, resp = decode_response(encode_response(4, RolloutResponse(tuples, count), step), 3, 2)
    assert [t.step_index for t in resp.tuples] == list(range(step + 1, step + 1 + count))
    assert all(type(t) is SpeculativeTuple for t in resp.tuples)


# SHA-256 of every refill frame pair of :func:`_refill_frames`, pinned before the codec
# moved from numpy arrays to ``struct``: the wire bytes must not change with it.
REFILL_FRAMES_SHA256 = "055f33d6a3961759ccabb9a59c2c5b141c5756bd85958cd29a228378aa0fc50a"


def _refill_frames(monkeypatch) -> list[bytes]:
    """Request then response frame of every refill of drifted free_space SPO, seeds 0-1, each
    request answered by an in-process oracle ``CloudSession`` from its decoded frame."""
    spec, cfg = get_spec("free_space"), SpoConfig()
    requests = []

    class Recording(VirtualChannel):
        def send_request(self, item, now):
            requests.append(item[1])
            return super().send_request(item, now)

    monkeypatch.setattr(harness, "VirtualChannel", Recording)
    weights = harness.calibrate_weights(spec, seed=cfg.rng_seed)
    for seed in (0, 1):
        harness.run_single(harness.BaselineKind.SPO, spec, cfg, seed, weights,
                           model_kind="drifted", drift_bias=8e-4, drift_noise=2e-4)
    cloud = CloudSession(cfg, make_policy(spec), make_model(spec, "oracle"))
    frames = []
    for rid, req in enumerate(requests, start=1):
        frame = encode_request(rid, req)
        _, decoded = decode_request(frame)
        resp = cloud.handle(decoded)
        frames += [frame, encode_response(rid, resp, step_index=decoded.step_index)]
    return frames


def test_the_refill_frames_are_the_pinned_bytes(monkeypatch):
    frames = _refill_frames(monkeypatch)
    assert len(frames) > 20
    assert hashlib.sha256(b"".join(frames)).hexdigest() == REFILL_FRAMES_SHA256
