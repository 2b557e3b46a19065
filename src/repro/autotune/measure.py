"""Measurement interfaces shared by all tuners (mirrors ``tvm.autotvm.measure``).

Tuners never talk to hardware or simulators directly; they submit batches of
``MeasureInput`` objects to a :class:`Builder` (compilation) and a
:class:`Runner` (execution) and receive ``MeasureResult`` objects back.  The
paper swaps the runner — native board vs. parallel simulators — without
touching anything else, and this module defines exactly that seam.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.autotune.space import ConfigEntity
from repro.autotune.task import Task
from repro.codegen.program import Program
from repro.reliability import RetryPolicy


class MeasureErrorNo:
    """Error codes attached to measurement results (subset of AutoTVM's)."""

    NO_ERROR = 0
    INSTANTIATION_ERROR = 1
    COMPILE_ERROR = 2
    RUNTIME_ERROR = 3
    #: The candidate exceeded its simulation budget (``RuntimeConfig.timeout_s``).
    RUN_TIMEOUT = 4
    #: The worker executing the candidate died (e.g. a broken process pool).
    WORKER_CRASH = 5


@dataclass
class MeasureInput:
    """A request to measure one configuration of one task."""

    task: Task
    config: ConfigEntity

    def __repr__(self) -> str:
        return f"MeasureInput({self.task.name}, config #{self.config.index})"


@dataclass
class BuildResult:
    """The artefact produced by a builder for one measure input."""

    program: Optional[Program]
    build_seconds: float
    error_no: int = MeasureErrorNo.NO_ERROR
    error_msg: str = ""

    @property
    def ok(self) -> bool:
        """Whether compilation succeeded."""
        return self.error_no == MeasureErrorNo.NO_ERROR and self.program is not None


@dataclass
class MeasureResult:
    """The outcome of running one built implementation.

    ``costs`` holds the per-repetition run times for native execution, or the
    (single) score returned by a simulator-backed runner.  Lower is better in
    both cases.
    """

    costs: List[float]
    error_no: int = MeasureErrorNo.NO_ERROR
    error_msg: str = ""
    all_cost: float = 0.0
    timestamp: float = field(default_factory=time.time)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the measurement succeeded."""
        return self.error_no == MeasureErrorNo.NO_ERROR and bool(self.costs)

    @property
    def mean_cost(self) -> float:
        """Mean cost (infinite for failed measurements)."""
        if not self.ok:
            return float("inf")
        return float(sum(self.costs) / len(self.costs))

    def __repr__(self) -> str:
        return f"MeasureResult(mean_cost={self.mean_cost:.6g}, error_no={self.error_no})"


class Builder:
    """Compiles measure inputs into runnable artefacts."""

    def build(self, measure_inputs: Sequence[MeasureInput]) -> List[BuildResult]:
        """Build all ``measure_inputs`` and return one result per input."""
        raise NotImplementedError


class Runner:
    """Executes built artefacts and reports their cost.

    Subclasses implement :meth:`run`; the paper's ``SimulatorRunner``
    (Listing 3) is one such subclass.
    """

    def __init__(self, n_parallel: int = 1):
        self.n_parallel = n_parallel

    def run(
        self,
        measure_inputs: Sequence[MeasureInput],
        build_results: Sequence[BuildResult],
    ) -> List[MeasureResult]:
        """Run all built implementations and return one result per input."""
        raise NotImplementedError


#: Error codes :func:`measure_batch` re-runs by default: transient
#: infrastructure failures, not properties of the candidate itself.
RETRYABLE_ERROR_NOS = (MeasureErrorNo.WORKER_CRASH, MeasureErrorNo.RUN_TIMEOUT)


def measure_batch(
    builder: Builder,
    runner: Runner,
    measure_inputs: Sequence[MeasureInput],
    retry: Optional[RetryPolicy] = None,
    retryable: Sequence[int] = RETRYABLE_ERROR_NOS,
) -> List[MeasureResult]:
    """Build then run a batch of measure inputs, re-running transient failures.

    Builds happen once.  After the first run, results whose ``error_no`` is
    in ``retryable`` are re-run — only that failed slice, with the original
    build artefacts — up to ``retry.max_attempts`` total attempts with
    deterministic backoff between rounds.  ``retry=None`` retries nothing:
    the historical single-shot behaviour.
    """
    build_results = builder.build(measure_inputs)
    results = list(runner.run(measure_inputs, build_results))
    policy = retry if retry is not None else RetryPolicy()
    retryable_set = set(retryable)
    for attempt in range(1, policy.max_attempts):
        failed = [i for i, result in enumerate(results) if result.error_no in retryable_set]
        if not failed:
            break
        time.sleep(policy.delay_s(attempt, key="measure_batch"))
        retried = runner.run(
            [measure_inputs[i] for i in failed],
            [build_results[i] for i in failed],
        )
        for i, result in zip(failed, retried):
            results[i] = result
    return results
