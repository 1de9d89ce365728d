"""Wire codec and latency-injecting channels.

Frame layout (all little-endian):

    frame    = [1B type][4B request_id][4B step_index][header][payload]
    request  : header = [4B float32 violation_error][2B d_s],
               payload = d_s float32 state components
    response : header = [2B tuple_count],
               payload = tuple_count * 4 * (d_s + d_a) bytes,
               each tuple packed as state then action float32s

Each frame is one header struct and one ``struct`` pack of its floats (``'<Nf'``),
packed and unpacked once. A decoder raises :class:`FrameError`, and nothing else, for
every malformed frame. It unpacks the payload as Python floats and checks it once for
finiteness by one ``math.hypot``, a request's state through :func:`spo.types.owned`,
then gives each tuple slices of those floats. Each encoder narrows a whole frame to
float32 in one pack: ``math.hypot`` refuses NaN and ±inf, and ``struct.pack`` raises
``OverflowError`` exactly where float32 would round a value to infinity.
Socket mode prefixes every frame with a 4B length, at most :data:`MAX_FRAME_BYTES`.
Both modes draw delays from one :class:`LatencyModel`, an uplink leg then a
downlink leg per request. On virtual time a :class:`VirtualChannel` delivers both
legs, one message at a time, and its in-process cloud answers each request once, when
the edge starts to wait, as of its arrival instant; in socket mode the server sleeps
both legs of each request before handling it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .cloud import CloudSession, RolloutRequest, RolloutResponse
from .types import ActionVector, SpeculativeTuple, StateVector, _checked, owned

FRAME_TYPE_REQUEST = 1
FRAME_TYPE_RESPONSE = 2

_REQUEST = struct.Struct("<BIIfH")  # type, request_id, step_index, violation_error, d_s
_RESPONSE = struct.Struct("<BIIH")  # type, request_id, step_index, tuple_count
_LEN_PREFIX = struct.Struct("<I")

# The longest frame either end sends or reads. A peer's length prefix can
# declare up to 4 GiB; a longer declared length is refused before any of the
# body is read, so a hostile or broken peer cannot make the reader allocate it.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ValueError):
    """Malformed, truncated, or non-finite wire data."""


def _narrow(values) -> bytes:
    """``values`` as little-endian float32 bytes, refusing any that overflow (or are NaN).

    A finite ``math.hypot`` proves every value finite; ``struct.pack`` then refuses, with
    ``OverflowError``, exactly the values that float32 narrowing rounds to infinity.
    """
    try:
        if math.isfinite(math.hypot(*values)):
            return struct.pack(f"<{len(values)}f", *values)
    except OverflowError:
        pass
    raise FrameError("non-finite value after float32 narrowing")


def _unpack(frame: bytes, ftype: int, header: struct.Struct, stride: int) -> tuple:
    """``header``'s fields of ``frame``, type first; the last counts ``stride``-byte items."""
    if len(frame) < header.size:
        raise FrameError(f"frame of {len(frame)} bytes is shorter than its header")
    fields = header.unpack_from(frame)
    if fields[0] != ftype:
        raise FrameError(f"expected frame type {ftype}, got type {fields[0]}")
    if (got := len(frame) - header.size) != fields[-1] * stride:
        raise FrameError(f"payload is {got} bytes, expected {fields[-1] * stride}")
    return fields


def encode_request(request_id: int, req: RolloutRequest) -> bytes:
    state = req.observed_state.values
    try:
        header = _REQUEST.pack(
            FRAME_TYPE_REQUEST, request_id, req.step_index, req.violation_error, len(state))
    except OverflowError:
        raise FrameError(f"violation_error {req.violation_error} is beyond float32 range") from None
    except struct.error:  # the id and step are uint32s, the state's size a uint16
        raise FrameError(f"request {request_id} at step {req.step_index} with {len(state)} "
                         "state components overflows its uint32 ids or uint16 count") from None
    return header + _narrow(state)


def decode_request(frame: bytes) -> tuple[int, RolloutRequest]:
    _, rid, step, violation_error, d_s = _unpack(frame, FRAME_TYPE_REQUEST, _REQUEST, 4)
    try:
        state = owned(StateVector, struct.unpack_from(f"<{d_s}f", frame, _REQUEST.size))
        return rid, RolloutRequest(state, violation_error, step)
    except ValueError as exc:
        raise FrameError(f"bad request: {exc}") from None


def encode_response(request_id: int, resp: RolloutResponse, step_index: int = 0) -> bytes:
    """One frame; all tuples' floats are joined, then checked and narrowed once."""
    count = len(resp.tuples)
    try:
        head = _RESPONSE.pack(FRAME_TYPE_RESPONSE, request_id, step_index, count)
    except struct.error:
        raise FrameError(f"response {request_id} at step {step_index} with {count} "
                         "tuples overflows its uint32 ids or uint16 count") from None
    if not count:
        return head
    values = []
    for t in resp.tuples:
        values += t.predicted_state.values
        values += t.action.values
    return head + _narrow(values)


def decode_response(frame: bytes, d_s: int, d_a: int) -> tuple[int, RolloutResponse]:
    """The frame's tuples, each two slices of the payload's floats, checked once.

    Float32 values cannot overflow ``math.hypot``, so it is finite exactly when every value
    is. The uint32 step makes every index >= 1 unchecked.
    """
    if d_s < 1 or d_a < 1:
        raise FrameError(f"row dimensions must be >= 1, got d_s={d_s}, d_a={d_a}")
    _, rid, step, count = _unpack(frame, FRAME_TYPE_RESPONSE, _RESPONSE, 4 * (d_s + d_a))
    width = d_s + d_a
    flat = struct.unpack_from(f"<{count * width}f", frame, _RESPONSE.size)
    if not math.isfinite(math.hypot(*flat)):
        raise FrameError("bad tuple: non-finite value in the payload")
    tuples = tuple([
        tuple.__new__(SpeculativeTuple, (_checked(StateVector, flat[j:j + d_s]),
                                         _checked(ActionVector, flat[j + d_s:j + width]), i))
        for i, j in zip(range(step + 1, step + 1 + count), range(0, count * width, width))])
    return rid, RolloutResponse(tuples, count)


@dataclass
class LatencyModel:
    """Uniform one-way delay: base +/- jitter half-width, clamped at zero."""

    base_one_way: float
    jitter_half_width_one_way: float
    rng: np.random.Generator

    def sample(self) -> float:
        if self.jitter_half_width_one_way == 0:
            return self.base_one_way
        lo = self.base_one_way - self.jitter_half_width_one_way
        hi = self.base_one_way + self.jitter_half_width_one_way
        return max(0.0, lo + (hi - lo) * self.rng.random())  # Generator.uniform's own formula


class ChannelBusyError(RuntimeError):
    """A send on a :class:`VirtualChannel` that still holds a message in flight."""


@dataclass
class VirtualChannel:
    """The in-process ``cloud`` behind a one-slot stop-and-wait channel: the virtual twin of
    :class:`spo.sockets.CloudServer`, as a link of :func:`spo.harness.run_episode`.

    The edge sends a request only once the last response arrived, so the channel holds at
    most one message, ``pending = (deliver_at, item, to_cloud)``; a second send raises
    :class:`ChannelBusyError`. A link only moves messages; the edge counts each reply it
    takes. It has ``answer``, ``due``, ``send_request`` and ``dead``. ``answer()`` has the
    cloud handle the request in flight, if any, at once: its reply leaves at the request's
    arrival instant, so a reply is fixed when its request is sent. It returns the time the
    reply reaches the edge (``inf`` on an empty channel; ``-inf`` for a link stepped every
    tick). ``due(now)`` returns the ``(request_id, response)`` pairs at the edge by ``now``:
    none, at once, on an empty channel. A real-time link's ``due`` first waits for ``now``.
    """

    latency: LatencyModel
    cloud: CloudSession
    pending: tuple | None = None
    dead = False

    def _send(self, item, now: float, to_cloud: bool) -> None:
        if self.pending is not None:
            raise ChannelBusyError(f"send at {now} while a message due at {self.pending[0]} is in flight")
        self.pending = (now + self.latency.sample(), item, to_cloud)

    def send_request(self, item, now: float) -> None:
        self._send(item, now, True)

    def send_response(self, item, now: float) -> None:
        self._send(item, now, False)

    def _take(self, now: float, to_cloud: bool) -> list:
        if self.pending is None or self.pending[2] is not to_cloud or self.pending[0] > now:
            return []
        taken, self.pending = self.pending[:2], None
        return [taken]

    def cloud_inbox_timed(self, now: float) -> list:
        """Take the ``(deliver_at, item)`` request due at the cloud by ``now``, if any."""
        return self._take(now, True)

    def edge_inbox(self, now: float) -> list:
        """Take the response due at the edge by ``now``, if any."""
        return [item for _, item in self._take(now, False)]

    def answer(self) -> float:
        if self.pending is not None and self.pending[2]:  # a request: answer it now
            [(arrived_at, (rid, req))] = self.cloud_inbox_timed(math.inf)
            self.send_response((rid, self.cloud.handle(req)), now=arrived_at)
        return math.inf if self.pending is None else self.pending[0]

    def due(self, now: float) -> list:
        return [] if self.pending is None else self.edge_inbox(now)


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
    """``n`` bytes; None on EOF before the first, FrameError on EOF after it.

    One plain ``recv`` returns every length prefix and frame of a loopback
    serve round trip whole, and is cheaper than the buffered loop. Otherwise
    the rest is read into one buffer of ``n`` bytes, so a frame that arrives
    in many small pieces costs linear, not quadratic, copying.
    """
    first = sock.recv(n)
    if len(first) == n:
        return first
    if not first:
        return None
    buf = bytearray(n)
    view = memoryview(buf)
    got = len(first)
    view[:got] = first
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise FrameError(f"connection closed after {got} of {n} bytes")
        got += k
    return bytes(buf)
