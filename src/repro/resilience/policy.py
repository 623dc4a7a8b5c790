"""Retry budgets and exponential backoff with deterministic jitter.

The jitter is seeded from the retry token (usually the task id) and the
attempt number, so a re-run of the same scenario produces the same delays —
chaos tests stay reproducible while distinct tasks still spread their
retries instead of thundering back in lockstep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy", "tightest"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: ``base * multiplier^(attempt-1)``.

    ``max_attempts`` counts *executions*, not retries: ``max_attempts=3``
    means one initial dispatch plus at most two re-dispatches.  ``jitter``
    is the fraction of each delay that is randomised (0 disables it).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def allows_retry(self, attempts_so_far: int) -> bool:
        """True when a task that has run ``attempts_so_far`` times may rerun."""
        return attempts_so_far < self.max_attempts

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Delay before dispatching attempt number ``attempt`` (2-based).

        Deterministic for a given ``(token, attempt)`` pair: the jittered
        fraction comes from a :class:`random.Random` seeded on both, never
        from global randomness.
        """
        if attempt <= 1:
            return 0.0
        raw = min(self.max_delay_s,
                  self.base_delay_s * self.multiplier ** (attempt - 2))
        if self.jitter == 0.0:
            return raw
        fraction = random.Random(f"{token}|{attempt}").random()
        # Spread over [raw * (1 - jitter), raw]: never longer than the
        # un-jittered delay, so budgets stay easy to reason about.
        return raw * (1.0 - self.jitter * fraction)


def tightest(*budgets: Optional[float]) -> Optional[float]:
    """The smallest non-``None`` budget, or ``None`` when all are unbounded."""
    bounded = [budget for budget in budgets if budget is not None]
    return min(bounded) if bounded else None
