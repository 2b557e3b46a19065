"""Resilience substrate: deadlines, retries, fault injection, degradation.

The simulation/measure/pipeline stack imports this package for four
cross-cutting facilities (see the README's "Failure semantics" section):

* :mod:`repro.reliability.deadline` — cooperative deadlines, so a
  simulation budget (``RuntimeConfig.timeout_s``) bounds a hung candidate
  instead of being ignored;
* :mod:`repro.reliability.retry` — bounded retry with exponential backoff
  and deterministic jitter;
* :mod:`repro.reliability.faults` — the ``REPRO_FAULT_INJECT`` registry
  behind the chaos test suite;
* the structured degradation warnings below, emitted when a layer falls
  back (process pool → threads → serial, native kernels → NumPy) so the
  degraded mode is visible without failing the run.

The package is a leaf: it imports nothing from the rest of ``repro``, so
every layer can depend on it without cycles.
"""

from repro.reliability.breaker import CircuitBreaker
from repro.reliability.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from repro.reliability.faults import (
    FaultRegistry,
    FaultSpec,
    InjectedFault,
    InjectedWorkerCrash,
    fault_injection_enabled,
)
from repro.reliability.retry import RetryPolicy


class BackendDegradationWarning(RuntimeWarning):
    """A worker backend was demoted (e.g. ``processes`` → ``threads``)."""

    def __init__(self, from_backend: str, to_backend: str, reason: str):
        super().__init__(
            f"simulator pool degraded from {from_backend!r} to {to_backend!r}: {reason}"
        )
        self.from_backend = from_backend
        self.to_backend = to_backend
        self.reason = reason


class NativeKernelDemotionWarning(RuntimeWarning):
    """The compiled kernels were demoted to the NumPy fallback for this process."""

    def __init__(self, reason: str):
        super().__init__(f"native simulation kernels demoted to NumPy fallback: {reason}")
        self.reason = reason


__all__ = [
    "BackendDegradationWarning",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FaultRegistry",
    "FaultSpec",
    "InjectedFault",
    "InjectedWorkerCrash",
    "NativeKernelDemotionWarning",
    "RetryPolicy",
    "current_deadline",
    "deadline_scope",
    "fault_injection_enabled",
]
