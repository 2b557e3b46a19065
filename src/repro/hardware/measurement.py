"""The paper's native measurement protocol (Section IV).

Each implementation is executed ``n_exe`` = 15 times with a ``cooldown`` = 1 s
pause between repetitions; the median is the reference run time.  The record
also keeps the total wall-clock cost of benchmarking one implementation,
which is the denominator of the parallel-simulation break-even factor K
(Equation 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class MeasurementProtocol:
    """Benchmarking protocol for native execution."""

    n_exe: int = 15
    cooldown_s: float = 1.0
    discard_outliers: int = 0

    def __post_init__(self) -> None:
        if self.n_exe <= 0:
            raise ValueError("n_exe must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s cannot be negative")
        if self.discard_outliers < 0 or 2 * self.discard_outliers >= self.n_exe:
            raise ValueError("discard_outliers must leave at least one sample")


@dataclass
class MeasurementRecord:
    """Result of benchmarking one implementation natively."""

    times_s: List[float]
    cooldown_s: float
    discarded: int = 0

    @property
    def n_exe(self) -> int:
        """Number of repetitions that were run."""
        return len(self.times_s)

    @property
    def median_s(self) -> float:
        """The reference run time t_ref (median over the kept repetitions)."""
        kept = self.kept_times()
        return float(np.median(kept))

    @property
    def mean_s(self) -> float:
        """Mean of the kept repetitions."""
        return float(np.mean(self.kept_times()))

    @property
    def std_s(self) -> float:
        """Standard deviation of the kept repetitions."""
        return float(np.std(self.kept_times()))

    def kept_times(self) -> np.ndarray:
        """Repetition times after symmetric outlier removal."""
        times = np.sort(np.asarray(self.times_s, dtype=float))
        if self.discarded:
            times = times[self.discarded : len(times) - self.discarded]
        return times

    @property
    def benchmarking_seconds(self) -> float:
        """Total wall-clock cost of the protocol: (cooldown + t_ref) * N_exe.

        This matches the denominator of Equation 4 in the paper.
        """
        return (self.cooldown_s + self.median_s) * self.n_exe

    def __repr__(self) -> str:
        return (
            f"MeasurementRecord(median={self.median_s:.6f}s, n={self.n_exe}, "
            f"std={self.std_s:.6f}s)"
        )
