"""Reusable retry policy: capped exponential backoff with seeded jitter.

Every resilience seam in the engine — worker-pool recovery in
:class:`~repro.engine.BatchRunner`, the first-open and write retries of
:class:`~repro.engine.SqliteResultCache` on a locked database — needs
the same three decisions: how many attempts, how long to wait between
them, and how to jitter the waits so colliding retriers de-synchronise.
:class:`RetryPolicy` makes those decisions data, and makes the jitter
**deterministic**: it is drawn from a seeded generator, so a retried
batch remains reproducible end to end (the determinism contract extends
into the failure paths).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

__all__ = ["RetryPolicy", "RetryExhausted"]

T = TypeVar("T")


class RetryExhausted(RuntimeError):
    """Every attempt a :class:`RetryPolicy` allowed has failed.

    Attributes:
        attempts: how many attempts ran.
        last: the exception the final attempt raised.
    """

    def __init__(self, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"all {attempts} attempts failed; last error: "
            f"{type(last).__name__}: {last}")
        self.attempts = attempts
        self.last = last


@dataclass
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempt ``k`` (0-based) that fails waits
    ``min(cap_delay_s, base_delay_s * backoff**k) * (1 + U[-jitter, +jitter])``
    before attempt ``k + 1``, where ``U`` is drawn from a generator
    seeded with ``seed`` — the same policy instance replays the same
    waits, so retried runs stay byte-reproducible.

    Attributes:
        max_attempts: total attempts allowed, >= 1 (1 = no retry).
        base_delay_s: first backoff wait; 0 retries immediately.
        backoff: multiplier per attempt, >= 1.
        cap_delay_s: upper bound on any single wait.
        jitter: relative wait perturbation in [0, 1).
        seed: jitter generator seed.
        attempts_made: attempts started through :meth:`call` over this
            instance's lifetime.
        retries: failed attempts that were retried.
        total_wait_s: backoff time actually slept.
    """

    max_attempts: int = 2
    base_delay_s: float = 0.0
    backoff: float = 2.0
    cap_delay_s: float = 30.0
    jitter: float = 0.0
    seed: int = 0
    attempts_made: int = field(default=0, compare=False)
    retries: int = field(default=0, compare=False)
    total_wait_s: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0.0:
            raise ValueError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.cap_delay_s < 0.0:
            raise ValueError(
                f"cap_delay_s must be >= 0, got {self.cap_delay_s}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    # ------------------------------------------------------------------
    def delay_s(self, attempt: int) -> float:
        """The wait after failed attempt ``attempt`` (0-based), jittered.

        Consumes one jitter draw per call, so successive delays for the
        same attempt index differ (they are successive retrier waits),
        while a fresh policy with the same seed replays the identical
        sequence.
        """
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        base = min(self.cap_delay_s,
                   self.base_delay_s * self.backoff ** attempt)
        if base <= 0.0:
            return 0.0
        if self.jitter == 0.0:
            return base
        factor = 1.0 + float(self._rng.uniform(-self.jitter, self.jitter))
        return base * factor

    def delays(self) -> list[float]:
        """Every backoff wait a full retry cycle would sleep, in order."""
        return [self.delay_s(k) for k in range(self.max_attempts - 1)]

    # ------------------------------------------------------------------
    def call(self, fn: Callable[[], T],
             retry_on: tuple[type[BaseException], ...] = (Exception,),
             sleep: Callable[[float], None] = time.sleep) -> T:
        """Run ``fn`` under this policy; return its first success.

        Args:
            fn: zero-argument callable to attempt.
            retry_on: exception types that trigger a retry; anything
                else propagates immediately.
            sleep: the wait primitive (injectable for tests).

        Raises:
            RetryExhausted: when the final attempt fails with a
                retryable error (the original is chained as its
                ``last`` / ``__cause__``).
        """
        from ..obs.events import active_events
        from ..obs.registry import active_registry

        last: BaseException | None = None
        for attempt in range(self.max_attempts):
            self.attempts_made += 1
            try:
                return fn()
            except retry_on as exc:
                last = exc
                if attempt == self.max_attempts - 1:
                    break
                self.retries += 1
                registry = active_registry()
                if registry is not None:
                    registry.counter(
                        "retry_attempts_total",
                        {"error": type(exc).__name__}).inc()
                log = active_events()
                if log is not None:
                    log.emit("retry", attempt=attempt,
                             error=type(exc).__name__)
                wait = self.delay_s(attempt)
                if wait > 0.0:
                    self.total_wait_s += wait
                    sleep(wait)
        registry = active_registry()
        if registry is not None:
            registry.counter(
                "retry_exhausted_total",
                {"error": type(last).__name__}).inc()
        log = active_events()
        if log is not None:
            log.emit("retry_exhausted", attempts=self.max_attempts,
                     error=type(last).__name__)
        raise RetryExhausted(self.max_attempts, last) from last
