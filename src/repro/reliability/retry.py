"""Bounded retry with exponential backoff and deterministic jitter.

The jitter draw is a pure function of ``(seed, key, attempt)`` — the same
SplitMix64 mapping the fault registry uses — so two runs of the same retry
schedule sleep identical durations and chaos tests replay exactly.  A policy
with ``max_attempts=1`` disables retrying entirely, which is the default.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.reliability.faults import _unit_float


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and deterministic jitter."""

    #: Total attempts including the first one; 1 disables retrying.
    max_attempts: int = 1
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    multiplier: float = 2.0
    #: Fraction of the backoff delay randomised away (0 = fixed delays).
    jitter: float = 0.5
    #: Seed of the deterministic jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RetryPolicy":
        """Policy from ``REPRO_RETRY_*`` in ``environ`` (default ``os.environ``).

        Unset variables keep the defaults (attempts 1 = disabled); unparsable
        or out-of-range values raise ``ValueError``.
        """
        env = os.environ if environ is None else environ
        return cls(
            max_attempts=int(env.get("REPRO_RETRY_ATTEMPTS", "1")),
            base_delay_s=float(env.get("REPRO_RETRY_BASE_DELAY_S", "0.05")),
            max_delay_s=float(env.get("REPRO_RETRY_MAX_DELAY_S", "2.0")),
            seed=int(env.get("REPRO_RETRY_SEED", "0")),
        )

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before retrying after failed attempt ``attempt`` (1-based).

        Exponential in the attempt index, capped at ``max_delay_s``, with a
        deterministic jitter drawn from ``(seed, key, attempt)`` shaving off
        up to ``jitter`` of the raw delay.
        """
        raw = min(self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s)
        if self.jitter <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * _unit_float(self.seed, f"retry:{key}", attempt))

    def call(self, fn, *, key: str = "", retry_on=(Exception,), sleep=time.sleep):
        """Run ``fn()`` with up to ``max_attempts`` attempts.

        Exceptions matching ``retry_on`` are retried after the backoff
        delay; the last attempt's exception propagates unchanged.
        """
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except retry_on:
                if attempt >= self.max_attempts:
                    raise
                sleep(self.delay_s(attempt, key))
