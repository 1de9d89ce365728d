"""Edge-side control loop state: rollout cache, per-tick verification,
safe-stop holds, flush-on-violation, and refill request bookkeeping.

Refills are stop-and-wait: a request goes out only when the cache is empty
(starved) or just flushed (miss), and the robot holds until its response
arrives, so the cache is empty at every install and holds one response. A reply
to another request id, or a tuple for a step already executed, is dropped and
counted; only a socket peer can send either.

Step indexing is by *progress* (number of executed control actions), not by
wall tick: a holding robot does not advance its plan, so a response generated
from the held state resumes exactly where execution stopped.
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


@dataclass(slots=True)
class StepRecord:
    """One control tick's record. Plain, not frozen: the loop builds one per tick,
    and a frozen dataclass costs about three times as much to build."""

    step_index: int  # wall tick
    outcome: Outcome
    error: float | None
    action_executed: ActionVector
    progress: int
    source_request_id: int | None = None


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
        self.blocking = blocking
        self.cache: deque[SpeculativeTuple] = deque()
        self.progress = 0
        self.in_flight_id: int | None = None
        self.installed_id: int | None = None  # the request whose tuples fill the cache
        self._next_request_id = 1
        self.stale_dropped = 0
        self.superseded_dropped = 0
        self.flushed = 0
        self._hold = zero_action(d_a)  # immutable, so every hold tick shares it

    def _issue_request(
        self, observed: StateVector, violation_error: float
    ) -> tuple[int, RolloutRequest]:
        rid = self._next_request_id
        self._next_request_id += 1
        self.in_flight_id = rid
        return rid, RolloutRequest(observed, violation_error, self.progress)

    def edge_tick(
        self, observed: StateVector, tick_index: int
    ) -> tuple[StepRecord, tuple[int, RolloutRequest] | None]:
        """Verify-and-execute (or hold) for one control tick."""
        if observed.values.size != self.weights.inverse_variances.size:
            raise DimensionError(
                f"observed dimension {observed.dim} != calibrated d_s {self.weights.dim}"
            )
        hold = self._hold
        if self.cache:
            tup, src = self.cache.popleft(), self.installed_id
            if self.blocking:
                self.progress = tup.step_index
                rec = StepRecord(tick_index, Outcome.DIRECT, None, tup.action, self.progress, src)
                return rec, None
            outcome = verify(observed, tup, self.weights, self.cfg.epsilon_base)
            if outcome.is_hit:
                self.progress = tup.step_index
                rec = StepRecord(
                    tick_index, Outcome.HIT, outcome.error, tup.action, self.progress, src
                )
                return rec, None
            self.flushed += 1 + len(self.cache)  # the missed tuple is wasted too
            self.cache.clear()
            rec = StepRecord(tick_index, Outcome.MISS, outcome.error, hold, self.progress, src)
            return rec, self._issue_request(observed, outcome.error)
        if self.in_flight_id is None:
            rec = StepRecord(tick_index, Outcome.STARVED_HOLD, None, hold, self.progress)
            return rec, self._issue_request(observed, 0.0)
        return self.awaiting_record(tick_index), None

    def awaiting_record(self, tick_index: int) -> StepRecord:
        """The record of a tick held while the refill in flight has not arrived."""
        return StepRecord(tick_index, Outcome.AWAITING_REFILL, None, self._hold, self.progress)

    def install_response(self, request_id: int, resp: RolloutResponse) -> None:
        """Cache the rollout of the request in flight; drop other replies and passed steps."""
        if request_id != self.in_flight_id:
            self.superseded_dropped += len(resp.tuples)
            return
        self.in_flight_id = None
        self.installed_id = request_id
        for tup in resp.tuples:
            if tup.step_index <= self.progress:
                self.stale_dropped += 1
            else:
                self.cache.append(tup)
