"""Typed runtime configuration: the resolved plan of one simulation stack.

:class:`RuntimeConfig` is a frozen dataclass of concrete settings.  It is
the only route by which engine, replacement policy, memoization, budget
and retry reach a :class:`~repro.sim.Simulator`, a
:class:`~repro.sim.BatchSimulator` or the runners built on them; nothing
below it reads the environment.  Constructing one never reads the
environment either: ``RuntimeConfig()`` is the default plan.  The trace
representation is not a setting: it follows the engine (descriptor runs
on the vectorized engine, expanded address chunks on the reference one).

:meth:`RuntimeConfig.from_env` is the one reader of the simulation
variables, and ``repro.cli simulate`` and ``repro.cli serve`` call it once
at start-up:

========================  =========================  ===========================
``RuntimeConfig`` field   environment variable       meaning
========================  =========================  ===========================
``engine``                ``REPRO_SIM_ENGINE``       cache-simulation engine
                                                     (``reference``/``vectorized``;
                                                     default ``vectorized``)
``replacement``           ``REPRO_SIM_REPLACEMENT``  uniform replacement policy
                                                     for every hierarchy level
                                                     (registry name; default:
                                                     per-level Table I policies)
``retry``                 ``REPRO_RETRY_*``          retry policy of the resilient
                                                     APIs (attempts/base delay/max
                                                     delay/seed; default disabled)
========================  =========================  ===========================

``memoize`` and ``timeout_s`` have no variable.  ``REPRO_SIM_NATIVE=0`` is
not a field: it is a process-wide switch, read once by the native-kernel
loader (:mod:`repro.sim._native`) before the first simulation.
:meth:`RuntimeConfig.describe` reports the loader's state alongside the
fields for ``repro.cli serve --check``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.reliability import RetryPolicy
from repro.sim.engine import ENGINE_VECTORIZED, ENGINES, arena_batching_available
from repro.sim.policies import get_policy

#: ``(setting, env var, description)`` rows of the documented toggle surface:
#: the env-backed fields, then the process-wide native-kernel switch.
ENV_SURFACE: Tuple[Tuple[str, str, str], ...] = (
    ("engine", "REPRO_SIM_ENGINE", "cache-simulation engine (reference/vectorized)"),
    ("replacement", "REPRO_SIM_REPLACEMENT",
     "replacement policy of every hierarchy level (registry name; default Table I)"),
    ("retry", "REPRO_RETRY_ATTEMPTS (+_BASE_DELAY_S/_MAX_DELAY_S/_SEED)",
     "retry policy of the resilient APIs"),
    ("native", "REPRO_SIM_NATIVE",
     "compiled C kernels, process-wide, not a field (0 disables)"),
)


@dataclass(frozen=True)
class RuntimeConfig:
    """The settings of one simulation stack instance, validated on construction.

    Instances are frozen: derive variants with :func:`dataclasses.replace`.
    """

    #: Cache-simulation engine.
    engine: str = ENGINE_VECTORIZED
    #: Replacement policy applied to every hierarchy level (a
    #: :data:`repro.sim.policies.POLICIES` name); ``None`` keeps the Table I
    #: per-level policies.
    replacement: Optional[str] = None
    #: Whether simulators memoize results at all.
    memoize: bool = True
    #: Per-candidate simulation budget in seconds (0 = unlimited).
    timeout_s: float = 0.0
    #: Retry policy of the resilient APIs (the default retries nothing).
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown simulation engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.replacement is not None:
            get_policy(self.replacement)
        if self.timeout_s < 0:
            raise ValueError(f"timeout_s must be >= 0, got {self.timeout_s}")
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(f"retry must be a RetryPolicy, got {self.retry!r}")

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RuntimeConfig":
        """The config the ``REPRO_SIM_*`` and ``REPRO_RETRY_*`` variables name.

        The one reader of those variables (see the module table); unset or
        empty variables keep the field defaults, and unparsable values raise
        ``ValueError``.
        """
        env = os.environ if environ is None else environ
        return cls(
            engine=env.get("REPRO_SIM_ENGINE") or ENGINE_VECTORIZED,
            replacement=env.get("REPRO_SIM_REPLACEMENT") or None,
            retry=RetryPolicy.from_env(env),
        )

    def describe(self) -> List[Tuple[str, str, str]]:
        """``(setting, env var, value)`` rows for ``serve --check``."""
        values = {
            "engine": self.engine,
            "replacement": self.replacement or "per-level default",
            "retry": repr(self.retry),
            "native": "on" if arena_batching_available() else "off",
        }
        return [(name, env_var, values[name]) for name, env_var, _ in ENV_SURFACE]
