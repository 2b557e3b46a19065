"""Simulation-as-a-service: shared result store, HTTP front door, workers.

The serving layer on top of the simulation engine (the ROADMAP's
"millions of users" direction): a SQLite-backed
:class:`~repro.service.store.ResultStore`, the one persistent memo tier,
an asyncio HTTP service
(:class:`~repro.service.server.ServiceServer`) with per-tenant API keys,
quotas and in-flight request coalescing, a
:class:`~repro.service.worker.SimulationWorker` pool draining misses through
arena-batched :class:`~repro.sim.BatchSimulator` waves, and a stdlib HTTP
:class:`~repro.service.client.ServiceClient` that plugs into the autotuning
registry.  Run one with ``python -m repro.cli serve``.

Survivability (see the README's failure-semantics section): ``wait=false``
jobs are written ahead to a durable journal in the store before they are
acknowledged, claimed under time-bounded leases and settled idempotently by
content digest, so a restarted service replays every pre-crash job to the
same bits; the worker pool is supervised; a circuit breaker sheds miss
traffic while the backend is faulting; and the client retries transport
faults and ``503`` shedding under a bounded, jittered policy.
"""

from repro.service.client import DEFAULT_CLIENT_RETRY, ServiceClient, ServiceError
from repro.service.server import (
    ServiceServer,
    SimulationService,
    Tenant,
    hierarchy_from_dict,
)
from repro.service.store import SERVICE_SCHEMA_VERSION, JournalJob, ResultStore
from repro.service.worker import SimulationJob, SimulationWorker

__all__ = [
    "DEFAULT_CLIENT_RETRY",
    "JournalJob",
    "SERVICE_SCHEMA_VERSION",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SimulationJob",
    "SimulationService",
    "SimulationWorker",
    "Tenant",
    "hierarchy_from_dict",
]
