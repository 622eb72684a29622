"""Retry, backoff and circuit-breaking policies for the serving path.

The paper's CPU–GPU pipeline assumes the device always answers; a
production server cannot.  This module provides the three policy pieces
the degradation ladder in :class:`~repro.core.ggrid.GGridIndex` is built
from:

* :class:`RetryPolicy` — bounded retries with exponential backoff whose
  cost is charged to *modelled* time (the replay never sleeps);
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine over the index's modelled clock (event timestamps), so a
  repeatedly failing device is routed around instead of probed by every
  query;
* :class:`ResiliencePolicy` — the bundle of both plus the ladder knobs.

The ladder itself (GPU with retries → vectorised-CPU SDist → exact
Dijkstra) lives in the index; every rung returns *exact* answers — what
degrades is latency and device utilisation, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Degradation rungs, from healthiest to most degraded.  ``RUNG_GPU`` is
#: the normal path and is never reported as a degradation.
RUNG_GPU = "gpu"
RUNG_GPU_RETRY = "gpu_retry"
RUNG_CPU_SDIST = "cpu_sdist"
RUNG_DIJKSTRA = "dijkstra"

RUNGS: tuple[str, ...] = (RUNG_GPU, RUNG_GPU_RETRY, RUNG_CPU_SDIST, RUNG_DIJKSTRA)


def tag_ladder_outcome(answers: list, rung: str | None, retries: int, backoff_s: float) -> list:
    """Stamp a ladder outcome onto a batch of answers.

    ``answers`` holds objects carrying the ``degraded_rung`` /
    ``retries`` / ``backoff_s`` diagnostic fields —
    :class:`~repro.core.knn.KnnAnswer` in practice.  The rung lands on
    every answer; retry backoff is charged once — to the first answer —
    so a replay summing per-query backoff never double-counts it.
    Returns ``answers``.
    """
    if rung is not None:
        for a in answers:
            a.degraded_rung = rung
    if answers:
        answers[0].retries = retries
        answers[0].backoff_s = backoff_s
    return answers


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff, in modelled seconds.

    Attributes:
        max_retries: GPU re-attempts after the first failure (0 disables
            retrying; the ladder then degrades immediately).
        backoff_base_s: modelled delay before the first retry.
        backoff_factor: multiplier applied per subsequent retry.
    """

    max_retries: int = 2
    backoff_base_s: float = 1e-3
    backoff_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ConfigError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Modelled delay before retry number ``attempt`` (0-based)."""
        return self.backoff_base_s * self.backoff_factor**attempt


# Breaker states, exposed both as strings (logs, labels) and as the
# numeric encoding the ``repro_breaker_state`` gauge publishes.
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"

_STATE_CODES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


class CircuitBreaker:
    """Closed → open → half-open breaker over the modelled clock.

    ``now`` is the replay's event time (query/update timestamps), not
    wall-clock: replays are deterministic, so the breaker must be too.

    * **closed** — GPU attempts allowed; ``failure_threshold``
      consecutive failures trip the breaker open.
    * **open** — GPU attempts denied until ``reset_timeout_s`` modelled
      seconds have passed, then the breaker half-opens.
    * **half-open** — exactly one probe launch is allowed; success
      closes the breaker, failure reopens it (and restarts the timeout).
    """

    def __init__(
        self, failure_threshold: int = 4, reset_timeout_s: float = 10.0
    ) -> None:
        if failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ConfigError(
                f"reset_timeout_s must be positive, got {reset_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.trips = 0  # times the breaker went closed/half-open -> open
        #: every state change as ``(from, to) -> count`` — the gauge
        #: (``repro_breaker_state``) only samples the state at
        #: publication time, so a half-open probe that fails and reopens
        #: between two queries would be invisible without this
        self.transitions: dict[tuple[str, str], int] = {}
        #: optional ``(from, to)`` observer the server wires to the
        #: ``repro_breaker_transitions_total`` counter
        self.on_transition: "object | None" = None

    def _set_state(self, new: str) -> None:
        old = self.state
        if new == old:
            return
        self.state = new
        key = (old, new)
        self.transitions[key] = self.transitions.get(key, 0) + 1
        if self.on_transition is not None:
            self.on_transition(old, new)

    @property
    def state_code(self) -> int:
        """0 = closed, 1 = half-open, 2 = open (the gauge encoding)."""
        return _STATE_CODES[self.state]

    def allow_gpu(self, now: float) -> bool:
        """Whether the next operation may try the device at time ``now``."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if now - self.opened_at >= self.reset_timeout_s:
                self._set_state(BREAKER_HALF_OPEN)
                return True  # this caller becomes the probe
            return False
        # half-open: the probe is in flight (serial replay resolves it
        # immediately); a second caller in this state probes again
        return True

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self._set_state(BREAKER_CLOSED)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            # failed probe: straight back to open, timeout restarts
            self._set_state(BREAKER_OPEN)
            self.opened_at = now
            self.trips += 1
        elif (
            self.state == BREAKER_CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._set_state(BREAKER_OPEN)
            self.opened_at = now
            self.trips += 1

    def reset(self) -> None:
        """Back to pristine closed state (fresh replay)."""
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.trips = 0
        self.transitions = {}


@dataclass(frozen=True)
class ResiliencePolicy:
    """All knobs of the serving-path degradation ladder.

    Attributes:
        enabled: master switch; off means device faults propagate to the
            caller (the pre-resilience behaviour).
        retry: bounded-retry/backoff policy for the GPU rung.
        breaker_failure_threshold: consecutive device failures that trip
            the circuit breaker open.
        breaker_reset_s: modelled seconds the breaker stays open before
            half-opening for a probe launch.
    """

    enabled: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 4
    breaker_reset_s: float = 10.0

    def make_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(self.breaker_failure_threshold, self.breaker_reset_s)
