"""Typed runtime configuration: one resolution point for the toggle surface.

The simulation stack grew one environment variable per PR — engine selection,
trace representation, replacement policy, retry policy.  Each used to be read
ad hoc at its point of use (``os.environ.get`` scattered through
``engine.py``, ``simulator.py``, ``runner.py``), which made the effective
configuration of a run impossible to inspect or to pin down for a service
process.

:class:`RuntimeConfig` consolidates that surface into a frozen dataclass with
**one documented env-resolution point**, :meth:`RuntimeConfig.from_env`:

========================  =======================  ==============================
``RuntimeConfig`` field   environment variable     meaning
========================  =======================  ==============================
``engine``                ``REPRO_SIM_ENGINE``     cache-simulation engine
                                                   (``reference``/``vectorized``;
                                                   default ``vectorized``)
``trace``                 ``REPRO_SIM_TRACE``      trace representation
                                                   (``expanded``/``descriptor``;
                                                   default by engine)
``replacement``           ``REPRO_SIM_REPLACEMENT``  uniform replacement policy
                                                   for every hierarchy level
                                                   (registry name; default:
                                                   per-level Table I policies)
``retry``                 ``REPRO_RETRY_*``        retry policy of the resilient
                                                   APIs (attempts/base delay/max
                                                   delay/seed; default disabled)
========================  =======================  ==============================

Every field defaults to *unset* (``None``), which defers to the environment at
use time — exactly the pre-config behaviour, so exporting a ``REPRO_*``
variable keeps working unchanged for code that never touches a config object.
An explicit field value overrides the environment.  ``from_env()`` snapshots
the current environment into explicit values, pinning them against later
environment changes; it is the one place the variables above are read into
structured form.

``REPRO_SIM_NATIVE=0`` is not a field: it is a process-wide switch, read once
by the native-kernel loader (:mod:`repro.sim._native`) before the first
simulation.  :meth:`RuntimeConfig.describe` reports it alongside the fields
for ``repro.cli serve --check``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import List, Mapping, Optional, Tuple

from repro.reliability import RetryPolicy
from repro.sim.engine import resolve_engine, resolve_trace_mode

#: ``(setting, env var, description)`` rows of the documented toggle surface:
#: the env-backed fields, then the process-wide native-kernel switch.
ENV_SURFACE: Tuple[Tuple[str, str, str], ...] = (
    ("engine", "REPRO_SIM_ENGINE", "cache-simulation engine (reference/vectorized)"),
    ("trace", "REPRO_SIM_TRACE", "trace representation (expanded/descriptor)"),
    ("replacement", "REPRO_SIM_REPLACEMENT",
     "replacement policy of every hierarchy level (registry name; default Table I)"),
    ("retry", "REPRO_RETRY_ATTEMPTS (+_BASE_DELAY_S/_MAX_DELAY_S/_SEED)",
     "retry policy of the resilient APIs"),
    ("native", "REPRO_SIM_NATIVE",
     "compiled C kernels, process-wide, not a field (0 disables)"),
)


@dataclass(frozen=True)
class RuntimeConfig:
    """The consolidated toggle surface of one simulation stack instance.

    ``None`` fields defer to the environment at use time (the pre-config
    behaviour); explicit values override it.  Instances are frozen — derive
    variants with :func:`dataclasses.replace` or :meth:`with_overrides`.
    """

    #: Cache-simulation engine; ``None`` defers to ``REPRO_SIM_ENGINE``.
    engine: Optional[str] = None
    #: Trace representation; ``None`` defers to ``REPRO_SIM_TRACE`` / engine.
    trace: Optional[str] = None
    #: Replacement policy applied to every hierarchy level (a
    #: :data:`repro.sim.policies.POLICIES` name); ``None`` defers to
    #: ``REPRO_SIM_REPLACEMENT`` and then the Table I per-level defaults.
    replacement: Optional[str] = None
    #: Whether simulators memoize results at all (no env var; default on).
    memoize: Optional[bool] = None
    #: Per-candidate simulation budget in seconds (0 = unlimited).
    timeout_s: float = 0.0
    #: Retry policy of the resilient APIs; ``None`` defers to ``REPRO_RETRY_*``.
    retry: Optional[RetryPolicy] = field(default=None)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RuntimeConfig":
        """Snapshot the current environment into explicit field values.

        This is the one documented resolution point of every ``REPRO_*``
        toggle (see the module table); the returned config reproduces the
        pre-config env-var semantics exactly and pins them against later
        environment changes.
        """
        env = os.environ if environ is None else environ
        return cls(
            engine=env.get("REPRO_SIM_ENGINE") or None,
            trace=env.get("REPRO_SIM_TRACE") or None,
            replacement=env.get("REPRO_SIM_REPLACEMENT") or None,
            memoize=True,
            retry=RetryPolicy(
                max_attempts=int(env.get("REPRO_RETRY_ATTEMPTS", "1")),
                base_delay_s=float(env.get("REPRO_RETRY_BASE_DELAY_S", "0.05")),
                max_delay_s=float(env.get("REPRO_RETRY_MAX_DELAY_S", "2.0")),
                seed=int(env.get("REPRO_RETRY_SEED", "0")),
            ),
        )

    # -- resolution ---------------------------------------------------------
    def resolved_engine(self, override: Optional[str] = None) -> str:
        """The effective engine: ``override`` > field > environment > default."""
        return resolve_engine(override or self.engine)

    def resolved_trace(self, engine: str, override: Optional[str] = None) -> str:
        """The effective trace mode for ``engine`` (same precedence chain)."""
        return resolve_trace_mode(override or self.trace, engine)

    def resolved_replacement(self) -> Optional[str]:
        """The effective uniform replacement override, validated against the
        policy registry; ``None`` keeps the hierarchy's per-level defaults."""
        value = self.replacement or os.environ.get("REPRO_SIM_REPLACEMENT") or None
        if value is not None:
            from repro.sim.policies import get_policy

            get_policy(value)  # raises ValueError on unknown names
        return value

    def resolved_memoize(self) -> bool:
        """The effective memoization toggle (default on; no env var)."""
        return True if self.memoize is None else self.memoize

    def resolved_retry(self) -> RetryPolicy:
        """The effective retry policy (field, else ``REPRO_RETRY_*``)."""
        return self.retry if self.retry is not None else RetryPolicy.from_env()

    def validate(self) -> "RuntimeConfig":
        """Resolve and type-check every field; raises ``ValueError`` on nonsense."""
        engine = self.resolved_engine()
        self.resolved_trace(engine)
        self.resolved_replacement()
        self.resolved_retry()
        if self.timeout_s < 0:
            raise ValueError(f"timeout_s must be >= 0, got {self.timeout_s}")
        return self

    def describe(self) -> List[Tuple[str, str, str]]:
        """``(setting, env var, resolved value)`` rows for ``serve --check``."""
        engine = self.resolved_engine()
        resolved = {
            "engine": engine,
            "trace": self.resolved_trace(engine),
            "replacement": self.resolved_replacement() or "per-level default",
            "retry": repr(self.resolved_retry()),
            "native": "off" if os.environ.get("REPRO_SIM_NATIVE") == "0" else "on",
        }
        return [(name, env_var, resolved[name]) for name, env_var, _ in ENV_SURFACE]

    def with_overrides(self, **overrides) -> "RuntimeConfig":
        """A copy with ``overrides`` applied; unknown keys raise ``TypeError``."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(f"unknown RuntimeConfig fields: {sorted(unknown)}")
        return replace(self, **overrides)
