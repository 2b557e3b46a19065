"""Deterministic fault injection for the chaos test harness.

Production code is sprinkled with *injection sites* — named points where a
fault can be provoked on demand: the simulator pool workers
(``worker_crash``), the native kernel dispatch (``native_fault``), the
first-use library probe (``native_probe``), and the service layer — a
dropped client connection (``service_conn_drop``), a failing result-store
query (``store_io_error``), a dying service worker thread
(``worker_thread_crash``) and a garbled journaled program blob
(``journal_corrupt``).  With no profile configured every site is a no-op
costing one dictionary lookup, so the fault-free path is unchanged.

A profile is a semicolon-separated list of clauses::

    REPRO_FAULT_INJECT="worker_crash:p=0.2;native_fault:once;seed=42"

Each clause names a site plus parameters: ``p=<float>`` fires with that
probability per query (default 1.0), ``once`` fires on exactly the first
eligible query, ``n=<int>`` caps the total number of fires, ``after=<int>``
skips the first queries.  The ``seed=<int>`` clause seeds every decision.

Decisions are a pure function of ``(seed, site, per-site query ordinal)`` —
the SplitMix64 finalizer mapped to a unit float — so a failing run replays
exactly under the same profile and query order (serial backends are fully
deterministic; thread backends determine the *set* of fired ordinals but may
interleave which worker observes them).  Worker processes inherit the
environment and replay their own ordinal streams from zero.

Tests configure profiles explicitly with :func:`configure` (which overrides
the environment) and restore the fault-free default with :func:`reset`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

ENV_VAR = "REPRO_FAULT_INJECT"

_MASK64 = (1 << 64) - 1


class InjectedFault(RuntimeError):
    """A fault raised by the injection registry (never by real code paths)."""

    def __init__(self, site: str, ordinal: int):
        super().__init__(f"injected fault at site {site!r} (query #{ordinal})")
        self.site = site
        self.ordinal = ordinal


class InjectedWorkerCrash(InjectedFault):
    """An injected simulator-worker crash (thread/serial flavour)."""


def _unit_float(seed: int, site: str, ordinal: int) -> float:
    """Deterministic uniform draw in [0, 1) for one site query."""
    key = seed & _MASK64
    for ch in site:
        key = (key * 0x100000001B3 ^ ord(ch)) & _MASK64
    key = (key ^ ordinal * 0x165667B19E3779F9) & _MASK64
    z = ((key ^ (key >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return (z >> 11) / float(1 << 53)


@dataclass
class FaultSpec:
    """Parsed parameters of one injection site."""

    site: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    skip_first: int = 0


@dataclass
class FaultRegistry:
    """Per-process fault state: specs, per-site query/fire counters."""

    specs: Dict[str, FaultSpec] = field(default_factory=dict)
    seed: int = 0
    queries: Dict[str, int] = field(default_factory=dict)
    fires: Dict[str, int] = field(default_factory=dict)

    def should_inject(self, site: str) -> bool:
        """Whether the next query at ``site`` fires; advances the ordinal."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        with _LOCK:
            ordinal = self.queries.get(site, 0)
            self.queries[site] = ordinal + 1
            if ordinal < spec.skip_first:
                return False
            fired = self.fires.get(site, 0)
            if spec.max_fires is not None and fired >= spec.max_fires:
                return False
            if spec.probability < 1.0 and _unit_float(self.seed, site, ordinal) >= spec.probability:
                return False
            self.fires[site] = fired + 1
            return True


def parse_profile(text: str) -> FaultRegistry:
    """Parse a ``REPRO_FAULT_INJECT`` profile string into a registry."""
    registry = FaultRegistry()
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            registry.seed = int(clause[len("seed="):])
            continue
        site, _, params = clause.partition(":")
        spec = FaultSpec(site=site.strip())
        for param in params.split(","):
            param = param.strip()
            if not param:
                continue
            if param == "once":
                spec.max_fires = 1
            elif param.startswith("p="):
                spec.probability = float(param[2:])
            elif param.startswith("n="):
                spec.max_fires = int(param[2:])
            elif param.startswith("after="):
                spec.skip_first = int(param[6:])
            else:
                raise ValueError(f"unknown fault parameter {param!r} in clause {clause!r}")
        registry.specs[spec.site] = spec
    return registry


_LOCK = threading.Lock()
#: Explicit override installed by :func:`configure`; ``None`` defers to the
#: environment.  The env-derived registry is cached on the raw profile text.
_override: Optional[FaultRegistry] = None
_env_cache: tuple = ("", None)


def configure(profile: Optional[str], seed: Optional[int] = None) -> FaultRegistry:
    """Install a profile (overriding the environment) and return its registry."""
    global _override
    registry = parse_profile(profile or "")
    if seed is not None:
        registry.seed = seed
    _override = registry
    return registry


def reset() -> None:
    """Drop any configured override and forget the cached environment parse."""
    global _override, _env_cache
    _override = None
    _env_cache = ("", None)


def active_registry() -> Optional[FaultRegistry]:
    """The registry in effect, or ``None`` when injection is fully disabled."""
    global _env_cache
    if _override is not None:
        return _override if _override.specs else None
    text = os.environ.get(ENV_VAR, "")
    if not text:
        return None
    cached_text, cached = _env_cache
    if cached_text != text:
        cached = parse_profile(text)
        _env_cache = (text, cached)
    return cached


def fault_injection_enabled() -> bool:
    """Whether any injection site is armed in this process."""
    return active_registry() is not None


def should_inject(site: str) -> bool:
    """Whether ``site`` fires on this query (advances its ordinal)."""
    registry = active_registry()
    return registry is not None and registry.should_inject(site)


def maybe_raise(site: str) -> None:
    """Raise :class:`InjectedFault` when ``site`` fires; no-op otherwise."""
    registry = active_registry()
    if registry is not None and registry.should_inject(site):
        raise InjectedFault(site, registry.queries.get(site, 1) - 1)


def maybe_crash_worker(site: str = "worker_crash") -> None:
    """Simulate a dying pool worker when ``site`` fires.

    Inside a child process the worker hard-exits — exactly what a segfault
    looks like to the parent (``BrokenProcessPool``).  In the parent process
    (thread/serial backends) an :class:`InjectedWorkerCrash` is raised
    instead, which the resilient dispatch paths contain per program.
    """
    registry = active_registry()
    if registry is None or not registry.should_inject(site):
        return
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        os._exit(70)
    raise InjectedWorkerCrash(site, registry.queries.get(site, 1) - 1)
