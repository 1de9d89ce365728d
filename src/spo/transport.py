"""Wire codec and latency-injecting channels.

Frame layout (all little-endian):

    frame    = [1B type][4B request_id][4B step_index][header][payload]
    request  : header = [4B float32 violation_error][2B d_s],
               payload = d_s float32 state components
    response : header = [2B tuple_count],
               payload = tuple_count * 4 * (d_s + d_a) bytes,
               each tuple packed as state then action float32s

Socket mode prefixes every frame with a 4B length, at most
:data:`MAX_FRAME_BYTES`. Both modes draw delays from one
:class:`LatencyModel`. The harness delivers both legs through a
:class:`VirtualChannel` on virtual time; in socket mode the server sleeps each
request's delay, and the edge queues responses on a channel keyed by wall time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .cloud import RolloutRequest, RolloutResponse
from .types import ActionVector, SpeculativeTuple, StateVector

FRAME_TYPE_REQUEST = 1
FRAME_TYPE_RESPONSE = 2

_COMMON = struct.Struct("<BII")
_REQ_HEADER = struct.Struct("<fH")
_RESP_HEADER = struct.Struct("<H")
_LEN_PREFIX = struct.Struct("<I")

# The longest frame either end sends or reads. A peer's length prefix can
# declare up to 4 GiB; a longer declared length is refused before any of the
# body is read, so a hostile or broken peer cannot make the reader allocate it.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ValueError):
    """Malformed, truncated, or non-finite wire data."""


def encode_tuple(t: SpeculativeTuple) -> bytes:
    """Pack one tuple as float32s, state then action: exactly 4*(d_s+d_a) bytes."""
    with np.errstate(over="ignore"):
        flat = np.concatenate([t.predicted_state.values, t.action.values]).astype("<f4")
    if not np.all(np.isfinite(flat)):
        raise FrameError("non-finite value after float32 narrowing")
    return flat.tobytes()


def decode_tuple(data: bytes, d_s: int, d_a: int, step_index: int = 0) -> SpeculativeTuple:
    expected = 4 * (d_s + d_a)
    if len(data) != expected:
        raise FrameError(f"tuple payload is {len(data)} bytes, expected {expected}")
    flat = np.frombuffer(data, dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise FrameError("non-finite value in tuple payload")
    return SpeculativeTuple(
        predicted_state=StateVector(flat[:d_s]),
        action=ActionVector(flat[d_s:]),
        step_index=step_index,
    )


def encode_request(request_id: int, req: RolloutRequest) -> bytes:
    state = req.observed_state.values.astype("<f4")
    if not np.all(np.isfinite(state)):
        raise FrameError("non-finite state after float32 narrowing")
    try:
        header = _REQ_HEADER.pack(req.violation_error, state.size)
    except OverflowError:
        raise FrameError(
            f"violation_error {req.violation_error!r} is beyond float32 range"
        ) from None
    common = _COMMON.pack(FRAME_TYPE_REQUEST, request_id, req.step_index)
    return common + header + state.tobytes()


def decode_request(frame: bytes) -> tuple[int, RolloutRequest]:
    if len(frame) < _COMMON.size + _REQ_HEADER.size:
        raise FrameError("request frame shorter than headers")
    ftype, request_id, step_index = _COMMON.unpack_from(frame, 0)
    if ftype != FRAME_TYPE_REQUEST:
        raise FrameError(f"expected request frame, got type {ftype}")
    violation_error, d_s = _REQ_HEADER.unpack_from(frame, _COMMON.size)
    payload = frame[_COMMON.size + _REQ_HEADER.size :]
    if len(payload) != 4 * d_s:
        raise FrameError(f"request payload is {len(payload)} bytes, expected {4 * d_s}")
    state = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(state)):
        raise FrameError("non-finite value in request state")
    req = RolloutRequest(
        observed_state=StateVector(state),
        violation_error=float(violation_error),
        step_index=step_index,
    )
    return request_id, req


def encode_response(request_id: int, resp: RolloutResponse, step_index: int = 0) -> bytes:
    body = b"".join(encode_tuple(t) for t in resp.tuples)
    return (
        _COMMON.pack(FRAME_TYPE_RESPONSE, request_id, step_index)
        + _RESP_HEADER.pack(len(resp.tuples))
        + body
    )


def decode_response(frame: bytes, d_s: int, d_a: int) -> tuple[int, RolloutResponse]:
    if len(frame) < _COMMON.size + _RESP_HEADER.size:
        raise FrameError("response frame shorter than headers")
    ftype, request_id, step_index = _COMMON.unpack_from(frame, 0)
    if ftype != FRAME_TYPE_RESPONSE:
        raise FrameError(f"expected response frame, got type {ftype}")
    (count,) = _RESP_HEADER.unpack_from(frame, _COMMON.size)
    payload = frame[_COMMON.size + _RESP_HEADER.size :]
    stride = 4 * (d_s + d_a)
    if len(payload) != count * stride:
        raise FrameError(
            f"response payload is {len(payload)} bytes, expected {count * stride}"
        )
    tuples = tuple(
        decode_tuple(payload[i * stride : (i + 1) * stride], d_s, d_a, step_index + 1 + i)
        for i in range(count)
    )
    return request_id, RolloutResponse(tuples=tuples, horizon_used=count)


@dataclass
class LatencyModel:
    """Uniform one-way delay: base +/- jitter half-width, clamped at zero."""

    base_one_way: float
    jitter_half_width_one_way: float
    rng: np.random.Generator

    def __post_init__(self):
        if self.base_one_way < 0 or self.jitter_half_width_one_way < 0:
            raise ValueError("delays must be nonnegative")

    def sample(self) -> float:
        if self.jitter_half_width_one_way == 0:
            return self.base_one_way
        lo = self.base_one_way - self.jitter_half_width_one_way
        hi = self.base_one_way + self.jitter_half_width_one_way
        return max(0.0, float(self.rng.uniform(lo, hi)))


@dataclass
class VirtualChannel:
    """Deterministic stop-and-wait channel for the virtual-clock harness.

    The round-trip is split into two independently jittered one-way legs.
    Per-direction FIFO is enforced by clamping each deliver-at time to be no
    earlier than the previous message in the same direction.
    """

    latency: LatencyModel
    to_cloud: list = field(default_factory=list)
    to_edge: list = field(default_factory=list)
    _last_to_cloud: float = 0.0
    _last_to_edge: float = 0.0

    def send_request(self, item, now: float) -> float:
        deliver_at = max(now + self.latency.sample(), self._last_to_cloud)
        self._last_to_cloud = deliver_at
        self.to_cloud.append((deliver_at, item))
        return deliver_at

    def send_response(self, item, now: float) -> float:
        deliver_at = max(now + self.latency.sample(), self._last_to_edge)
        self._last_to_edge = deliver_at
        self.to_edge.append((deliver_at, item))
        return deliver_at

    def cloud_inbox_timed(self, now: float) -> list:
        """Pop the ``(deliver_at, item)`` requests due at or before ``now``, in send order."""
        due = []
        while self.to_cloud and self.to_cloud[0][0] <= now:
            due.append(self.to_cloud.pop(0))
        return due

    def edge_inbox(self, now: float) -> list:
        """Pop the responses due at or before ``now``, in send order."""
        due = []
        while self.to_edge and self.to_edge[0][0] <= now:
            due.append(self.to_edge.pop(0)[1])
        return due


def one_way_latency(rtt_base: float, jitter_half_width: float, rng) -> LatencyModel:
    """Split a round-trip spec symmetrically into one one-way model."""
    return LatencyModel(
        base_one_way=rtt_base / 2.0,
        jitter_half_width_one_way=jitter_half_width / 2.0,
        rng=rng,
    )


def send_frame(sock, frame: bytes) -> None:
    if len(frame) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(frame)} bytes exceeds {MAX_FRAME_BYTES}")
    sock.sendall(_LEN_PREFIX.pack(len(frame)) + frame)


def recv_frame(sock) -> bytes | None:
    """Read one length-prefixed frame; None on clean EOF before its first byte."""
    header = _recv_exact(sock, _LEN_PREFIX.size)
    if header is None:
        return None
    (length,) = _LEN_PREFIX.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"declared frame length {length} exceeds {MAX_FRAME_BYTES}")
    frame = _recv_exact(sock, length)
    if frame is None:
        raise FrameError("connection closed mid-frame")
    return frame


def _recv_exact(sock, n: int) -> bytes | None:
    """``n`` bytes; None on EOF before the first, FrameError on EOF after it."""
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise FrameError(f"connection closed after {len(buf)} of {n} bytes")
            return None
        buf += chunk
    return buf
