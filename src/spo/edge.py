"""Edge-side control loop state: trajectory cache, per-tick verification,
safe-stop holds, flush-on-violation, and refill request bookkeeping.

Step indexing is by *progress* (number of executed control actions), not by
wall tick: a holding robot does not advance its plan, so a response generated
from the held state resumes exactly where execution stopped. Tuples whose
progress index was already passed while the response was in flight are
dropped on arrival and counted as wasted.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .cloud import RolloutRequest, RolloutResponse
from .types import (
    ActionVector,
    DimensionError,
    SpeculativeTuple,
    SpoConfig,
    StateVector,
    WeightMatrix,
    zero_action,
)
from .verifier import verify


class Outcome(enum.Enum):
    HIT = "hit"
    MISS = "miss"
    STARVED_HOLD = "starved_hold"
    AWAITING_REFILL = "awaiting_refill"
    # Blocking baseline only: unverified direct execution of a cloud action.
    DIRECT = "direct"


@dataclass(frozen=True)
class StepRecord:
    step_index: int  # wall tick
    outcome: Outcome
    error: float | None
    action_executed: ActionVector
    sim_time: float
    progress: int
    source_request_id: int | None = None


@dataclass(frozen=True)
class RefillRequest:
    request_id: int
    request: RolloutRequest


class TrajectoryCache:
    """FIFO buffer of speculative tuples tagged with their source request id."""

    def __init__(self):
        self._entries: deque[tuple[SpeculativeTuple, int]] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, tup: SpeculativeTuple, source_id: int) -> None:
        if self._entries and tup.step_index != self._entries[-1][0].step_index + 1:
            raise ValueError(
                f"cache discontinuity: tail targets {self._entries[-1][0].step_index}, "
                f"pushed {tup.step_index}"
            )
        self._entries.append((tup, source_id))

    def pop(self) -> tuple[SpeculativeTuple, int]:
        return self._entries.popleft()

    def flush(self) -> int:
        n = len(self._entries)
        self._entries.clear()
        return n

    def tail_step_index(self) -> int | None:
        return self._entries[-1][0].step_index if self._entries else None


class EdgeSession:
    """One edge control session; drive it one control tick at a time."""

    def __init__(
        self,
        cfg: SpoConfig,
        weights: WeightMatrix,
        d_a: int,
        blocking: bool = False,
    ):
        self.cfg = cfg
        self.weights = weights
        self.d_a = d_a
        self.blocking = blocking
        self.cache = TrajectoryCache()
        self.progress = 0
        self.in_flight_id: int | None = None
        self._next_request_id = 1
        self.stale_dropped = 0
        self.superseded_dropped = 0
        self.flushed = 0

    def _issue_request(self, observed: StateVector, violation_error: float) -> RefillRequest:
        rid = self._next_request_id
        self._next_request_id += 1
        self.in_flight_id = rid  # supersedes any response still in flight
        return RefillRequest(
            request_id=rid,
            request=RolloutRequest(
                observed_state=observed,
                violation_error=violation_error,
                step_index=self.progress,
            ),
        )

    def edge_tick(
        self, observed: StateVector, tick_index: int, now: float
    ) -> tuple[StepRecord, RefillRequest | None]:
        """Verify-and-execute (or hold) for one control tick."""
        if observed.dim != self.weights.dim:
            raise DimensionError(
                f"observed dimension {observed.dim} != calibrated d_s {self.weights.dim}"
            )
        hold = zero_action(self.d_a)
        if len(self.cache) > 0:
            tup, src = self.cache.pop()
            if self.blocking:
                self.progress = tup.step_index
                rec = StepRecord(
                    tick_index, Outcome.DIRECT, None, tup.action, now, self.progress, src
                )
                return rec, None
            outcome = verify(observed, tup, self.weights, self.cfg.epsilon_base)
            if outcome.is_hit:
                self.progress = tup.step_index
                rec = StepRecord(
                    tick_index, Outcome.HIT, outcome.error, tup.action, now,
                    self.progress, src,
                )
                return rec, None
            self.flushed += 1 + self.cache.flush()  # the missed tuple is wasted too
            rec = StepRecord(
                tick_index, Outcome.MISS, outcome.error, hold, now, self.progress, src
            )
            return rec, self._issue_request(observed, outcome.error)
        if self.in_flight_id is None:
            rec = StepRecord(tick_index, Outcome.STARVED_HOLD, None, hold, now, self.progress)
            return rec, self._issue_request(observed, 0.0)
        rec = StepRecord(tick_index, Outcome.AWAITING_REFILL, None, hold, now, self.progress)
        return rec, None

    def install_response(self, request_id: int, resp: RolloutResponse) -> None:
        """Buffer an arrived rollout, dropping superseded or already-passed tuples."""
        if request_id != self.in_flight_id:
            self.superseded_dropped += len(resp.tuples)
            return
        self.in_flight_id = None
        tail = self.cache.tail_step_index()
        floor = self.progress if tail is None else max(self.progress, tail)
        for tup in resp.tuples:
            if tup.step_index <= floor:
                self.stale_dropped += 1
                continue
            self.cache.push(tup, request_id)
