"""Async HTTP front door for simulation-as-a-service.

A deliberately small HTTP/1.1 layer over stdlib :mod:`asyncio` (no new
dependencies): the event loop owns connection handling, every request
handler runs on a thread pool because the interesting ones block on
simulation.  Endpoints:

* ``POST /simulate`` — body ``{"program": <base64 pickle>, "hierarchy":
  {...}?, "wait": true?}``.  Served from the result store when the digest is
  known; otherwise the miss is queued to the worker pool (``wait=true``
  blocks for the outcome, ``wait=false`` returns ``202 queued``; journal
  rows hold no hierarchy, so ``wait=false`` with another one gets ``400``).
  Concurrent requests for one digest coalesce onto a single computation
  through :meth:`~repro.sim.memo.SimulationCache.get_or_compute` — the
  leader simulates, twins wait, everyone gets the same bits.
* ``GET /results/{digest}`` — a stored result, a journaled failure record,
  ``202`` while the digest is still queued/leased, or ``404``.
* ``GET /stats`` — service, store, journal, cache, worker, breaker and
  per-tenant counters.
* ``GET /healthz`` — unauthenticated health probe: ``200 ok`` or ``503
  degraded`` with machine-readable reasons (worker dead, breaker open/half
  open, recent store I/O errors).

Survivability: ``wait=false`` misses are written ahead to the store's
durable job journal before the ``202`` is sent, so a crashed service
settles them on restart; the worker is supervised (dead threads restart,
leases recover); a :class:`~repro.reliability.CircuitBreaker` trips on
consecutive whole-wave faults and sheds store-miss traffic with ``503`` +
``Retry-After`` while store hits keep serving; and the miss queue is depth
bounded — saturation sheds with ``503`` instead of queueing unboundedly.

Multi-tenancy: requests carry an ``X-Api-Key`` header resolved against the
configured :class:`Tenant` table (401 on unknown keys, 429 once a tenant's
lifetime request quota is spent or its sliding-window rate limit is hot —
the rate limit resets as the window slides, the quota never does).  An
empty tenant table disables authentication — the single-user dev mode.
Programs travel as pickled payloads, which is an arbitrary-code-execution
surface by design of :mod:`pickle`: the service is built for *trusted*
tenants behind API keys, not the open internet.
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, Optional, Tuple

from repro.reliability import CircuitBreaker, faults
from repro.sim.cpu import TraceOptions
from repro.sim.hierarchy import CacheHierarchyConfig, CacheLevelConfig
from repro.sim.memo import SimulationCache
from repro.sim.runtime_config import RuntimeConfig
from repro.sim.simulator import BatchSimulator, SimulationFailure
from repro.service.store import ResultStore
from repro.service.worker import SimulationWorker

#: Upper bound on accepted request bodies (pickled programs are small; a
#: multi-megabyte body is a client bug or abuse, not a schedule).
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass
class Tenant:
    """One API tenant: key, display name, lifetime quota and rate limit.

    ``quota`` caps lifetime requests (0 = unlimited) and never resets;
    ``rate_limit`` caps requests per sliding ``rate_window_s`` window
    (0 = no rate limit) and frees up as the window slides past old
    requests — burst control next to the quota's budget control.
    """

    name: str
    api_key: str
    quota: int = 0
    requests: int = 0
    rate_limit: int = 0
    rate_window_s: float = 1.0
    #: Monotonic admission timestamps inside the current window.
    window: Deque[float] = field(default_factory=deque, repr=False, compare=False)


def hierarchy_from_dict(payload: dict) -> CacheHierarchyConfig:
    """Rebuild a :class:`CacheHierarchyConfig` from its ``asdict`` JSON form."""

    def level(entry) -> Optional[CacheLevelConfig]:
        if entry is None:
            return None
        return CacheLevelConfig(
            size_bytes=int(entry["size_bytes"]),
            sets=int(entry["sets"]),
            associativity=int(entry["associativity"]),
            replacement=str(entry.get("replacement", "lru")),
        )

    return CacheHierarchyConfig(
        name=str(payload["name"]),
        l1d=level(payload["l1d"]),
        l1i=level(payload["l1i"]),
        l2=level(payload["l2"]),
        l3=level(payload.get("l3")),
        line_bytes=int(payload.get("line_bytes", 64)),
    )


class _JobFailed(Exception):
    """Internal: carries a SimulationFailure out of a coalesced computation."""

    def __init__(self, failure: SimulationFailure):
        super().__init__(failure.error)
        self.failure = failure


class SimulationService:
    """The service's request logic, independent of the HTTP transport."""

    def __init__(
        self,
        arch: str,
        store: ResultStore,
        config: Optional[RuntimeConfig] = None,
        tenants: Optional[Dict[str, Tenant]] = None,
        hierarchy_config: Optional[CacheHierarchyConfig] = None,
        trace_options: Optional[TraceOptions] = None,
        wait_timeout_s: float = 300.0,
        max_queue_depth: int = 256,
        lease_s: float = 30.0,
        breaker: Optional[CircuitBreaker] = None,
        supervise: bool = True,
        io_error_window_s: float = 60.0,
    ):
        self.arch = arch
        self.store = store
        self.config = config if config is not None else RuntimeConfig()
        #: Tenants keyed by API key; empty disables authentication (dev mode).
        self.tenants = dict(tenants or {})
        self.wait_timeout_s = float(wait_timeout_s)
        #: Miss-queue bound; saturation sheds with 503 (0 = unbounded).
        self.max_queue_depth = max_queue_depth
        #: Recent-store-trouble window for the health report.
        self.io_error_window_s = float(io_error_window_s)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cache = SimulationCache(store=store)
        self.simulator = BatchSimulator(
            arch,
            hierarchy_config,
            trace_options if trace_options is not None else TraceOptions(),
            memo_cache=self.cache,
            config=self.config,
        )
        self.worker = SimulationWorker(
            self.simulator,
            journal=store,
            lease_s=lease_s,
            breaker=self.breaker,
            supervise=supervise,
        )
        self.started_at = time.time()
        self.requests = 0
        self.served_cached = 0
        self.computed = 0
        self.queued = 0
        self.failed = 0
        self.shed_queue_full = 0
        self.shed_breaker = 0
        self.rate_limited = 0
        self._lock = threading.Lock()

    # -- auth ---------------------------------------------------------------
    def authenticate(
        self, api_key: Optional[str]
    ) -> Tuple[Optional[Tenant], Optional[Tuple[int, dict]]]:
        """Resolve a tenant; returns ``(tenant, None)`` or ``(None, error)``."""
        if not self.tenants:
            return None, None  # dev mode: no auth configured
        tenant = self.tenants.get(api_key or "")
        if tenant is None:
            return None, (401, {"error": "unknown or missing API key"})
        with self._lock:
            # Check-and-admit is atomic under the lock: N requests racing
            # one remaining quota slot admit exactly one.
            if tenant.quota > 0 and tenant.requests >= tenant.quota:
                return None, (
                    429,
                    {"error": f"tenant {tenant.name!r} exceeded quota {tenant.quota}"},
                )
            if tenant.rate_limit > 0:
                now = time.monotonic()
                window = tenant.window
                while window and window[0] <= now - tenant.rate_window_s:
                    window.popleft()
                if len(window) >= tenant.rate_limit:
                    self.rate_limited += 1
                    return None, (
                        429,
                        {
                            "error": (
                                f"tenant {tenant.name!r} exceeded "
                                f"{tenant.rate_limit} requests per "
                                f"{tenant.rate_window_s:g}s"
                            ),
                            "retry_after": max(
                                window[0] + tenant.rate_window_s - now, 0.0
                            ),
                        },
                    )
                window.append(now)
            tenant.requests += 1
        return tenant, None

    # -- request handlers ---------------------------------------------------
    def _digest_for(self, program, hierarchy_config) -> str:
        return SimulationCache.make_key(
            program, hierarchy_config, self.simulator.trace_options, self.simulator.engine
        )

    def _result_body(self, digest: str, flat: Dict[str, float], cached: bool,
                     program_name: str) -> dict:
        return {
            "status": "done",
            "digest": digest,
            "cached": cached,
            "program_name": program_name,
            "arch": self.arch,
            "trace_accesses": int(flat.get("sim.trace_accesses", 0.0)),
            "stats": flat,
        }

    @staticmethod
    def _failure_body(digest: str, failure: SimulationFailure) -> dict:
        return {
            "status": "failed",
            "digest": digest,
            "program_name": failure.program_name,
            "kind": failure.kind,
            "error": failure.error,
            "attempts": failure.attempts,
        }

    def _shed_miss(self) -> Optional[Tuple[int, dict]]:
        """503 shedding for store misses: breaker first, then queue depth.

        Store *hits* never come through here — a degraded backend still
        serves everything already computed.
        """
        if not self.breaker.allow():
            with self._lock:
                self.shed_breaker += 1
            return 503, {
                "error": "simulation backend unavailable (circuit breaker "
                f"{self.breaker.state})",
                "retry_after": self.breaker.retry_after_s(),
            }
        if self.max_queue_depth > 0 and self.worker.backlog() >= self.max_queue_depth:
            with self._lock:
                self.shed_queue_full += 1
            return 503, {
                "error": f"simulation queue is full ({self.max_queue_depth} jobs)",
                "retry_after": 1.0,
            }
        return None

    def handle_simulate(
        self, payload: dict, tenant: Optional[Tenant] = None
    ) -> Tuple[int, dict]:
        """``POST /simulate``: memoized result, queued miss, or failure record."""
        with self._lock:
            self.requests += 1
        try:
            program_blob = base64.b64decode(payload["program"])
            program = pickle.loads(program_blob)
        except KeyError:
            return 400, {"error": "missing required field 'program'"}
        except Exception as error:  # noqa: BLE001 — client payload boundary
            return 400, {"error": f"undecodable program payload: {error}"}
        hierarchy = self.simulator.hierarchy_config
        if payload.get("hierarchy") is not None:
            try:
                hierarchy = hierarchy_from_dict(payload["hierarchy"])
            except (KeyError, TypeError, ValueError) as error:
                return 400, {"error": f"malformed hierarchy config: {error}"}
        wait = payload.get("wait", True)
        if not wait and hierarchy != self.simulator.hierarchy_config:
            # Journal rows carry no hierarchy: the worker would simulate the
            # service's own and the request's digest would never settle.
            return 400, {
                "error": "wait=false requests simulate the service's hierarchy only"
            }
        digest = self._digest_for(program, hierarchy)
        cached = self.cache.get(digest)
        if cached is not None:
            with self._lock:
                self.served_cached += 1
            return 200, self._result_body(digest, cached.as_dict(), True, program.name)
        shed = self._shed_miss()
        if shed is not None:
            return shed
        if not wait:
            # Write-ahead: the job is durable before the 202 leaves the
            # building, so a crash between here and the worker loses nothing.
            self.store.journal_enqueue(
                digest, program_blob, tenant.name if tenant is not None else ""
            )
            with self._lock:
                self.queued += 1
            return 202, {"status": "queued", "digest": digest}

        def compute():
            # Runs on the leader only: concurrent POSTs for one digest
            # coalesce here via get_or_compute; twins block until the leader
            # settles and are served the freshly cached statistics.
            outcome = self._compute_miss(digest, program, hierarchy)
            if isinstance(outcome, SimulationFailure):
                raise _JobFailed(outcome)
            return outcome.stats

        try:
            stats, computed = self.cache.get_or_compute(digest, compute)
        except _JobFailed as error:
            with self._lock:
                self.failed += 1
            return 500, self._failure_body(digest, error.failure)
        with self._lock:
            if computed:
                self.computed += 1
            else:
                self.served_cached += 1
        return 200, self._result_body(digest, stats.as_dict(), not computed, program.name)

    def _compute_miss(self, digest: str, program, hierarchy):
        """Simulate one miss: worker wave for the service hierarchy, inline
        one-off simulation for a request-supplied hierarchy."""
        if hierarchy == self.simulator.hierarchy_config:
            return self.worker.run_sync(digest, program, self.wait_timeout_s)
        from repro.sim.simulator import Simulator, _attempt_program

        # Unmemoized on purpose: this runs inside the leader slot of
        # ``cache.get_or_compute(digest, ...)``, and the leader writes the
        # result through the service's cache (and store) under ``digest``
        # when this returns; a memoizing simulator would only add a second
        # copy to the process-wide default cache, which the service never
        # reads.
        one_off = Simulator(
            self.arch,
            hierarchy,
            self.simulator.trace_options,
            config=replace(self.config, memoize=False),
        )
        return _attempt_program(one_off, program, self.config.timeout_s, self.config.retry)

    def handle_result(self, digest: str) -> Tuple[int, dict]:
        """``GET /results/{digest}``: stored statistics, journal state or 404."""
        with self._lock:
            self.requests += 1
        stats = self.cache.get(digest)
        if stats is not None:
            return 200, self._result_body(digest, stats.as_dict(), True, "")
        journaled = self.store.journal_status(digest)
        if journaled is not None:
            state, error, attempts = journaled
            if state in ("queued", "leased"):
                return 202, {"status": "queued", "digest": digest}
            if state == "failed":
                return 500, {
                    "status": "failed",
                    "digest": digest,
                    "program_name": "",
                    "kind": SimulationFailure.ERROR,
                    "error": error or "journaled job failed",
                    "attempts": attempts,
                }
            # state == "done" but the result row was evicted: fall through to
            # 404 — the digest is recomputable by re-posting the program.
        return 404, {"error": f"no result stored for digest {digest}"}

    def health(self) -> Tuple[int, dict]:
        """``GET /healthz``: 200 ok, or 503 degraded with reasons."""
        reasons = []
        if not self.worker.healthy():
            reasons.append("worker dead")
        breaker_state = self.breaker.state
        if breaker_state != CircuitBreaker.CLOSED:
            reasons.append(f"breaker {breaker_state}")
        last_io = getattr(self.store, "last_io_error_at", 0.0)
        if last_io and time.time() - last_io < self.io_error_window_s:
            reasons.append("store io errors")
        if reasons:
            return 503, {
                "status": "degraded",
                "reasons": reasons,
                "retry_after": max(self.breaker.retry_after_s(), 1.0),
            }
        return 200, {"status": "ok"}

    def handle_stats(self) -> Tuple[int, dict]:
        """``GET /stats``: every layer's counters plus the service hit rate."""
        served = self.served_cached + self.computed
        return 200, {
            "arch": self.arch,
            "uptime_s": time.time() - self.started_at,
            "requests": self.requests,
            "served_cached": self.served_cached,
            "computed": self.computed,
            "queued": self.queued,
            "failed": self.failed,
            "shed_queue_full": self.shed_queue_full,
            "shed_breaker": self.shed_breaker,
            "rate_limited": self.rate_limited,
            "hit_rate": (self.served_cached / served) if served else 0.0,
            "store": self.store.counters(),
            "journal": self.store.journal_counters(),
            "breaker": self.breaker.counters(),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "coalesced": self.cache.coalesced,
            },
            "worker": self.worker.counters(),
            "tenants": {
                tenant.name: {"requests": tenant.requests, "quota": tenant.quota}
                for tenant in self.tenants.values()
            },
        }

    def close(self, drain: bool = False) -> None:
        """Stop the worker; ``drain=True`` finishes the in-flight wave and
        journals everything still queued in memory before returning."""
        self.worker.stop(drain=drain)


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes


class _HttpError(Exception):
    """A protocol-level request defect with a definite status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class ServiceServer:
    """asyncio HTTP server wiring one :class:`SimulationService` to a socket."""

    def __init__(self, service: SimulationService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    # -- HTTP plumbing ------------------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length header") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as error:
            raise _HttpError(
                400,
                f"request body truncated: got {len(error.partial)} of {length} bytes",
            ) from None
        return _Request(method=method, path=path, headers=headers, body=body)

    @staticmethod
    def _encode_response(status: int, payload: dict) -> bytes:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   401: "Unauthorized", 404: "Not Found", 405: "Method Not Allowed",
                   413: "Payload Too Large", 429: "Too Many Requests",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        body = json.dumps(payload).encode("utf-8")
        extra = ""
        retry_after = payload.get("retry_after") if isinstance(payload, dict) else None
        if status in (429, 503) and retry_after is not None:
            extra = f"Retry-After: {max(int(math.ceil(float(retry_after))), 1)}\r\n"
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        )
        return head.encode("latin-1") + body

    def _route(self, request: _Request) -> Tuple[int, dict]:
        """Dispatch one request; runs on the executor thread pool."""
        if request.path == "/healthz":
            return self.service.health()
        tenant, error = self.service.authenticate(request.headers.get("x-api-key"))
        if error is not None:
            return error
        if request.method == "POST" and request.path == "/simulate":
            try:
                payload = json.loads(request.body.decode("utf-8") or "{}")
            except ValueError:
                return 400, {"error": "request body is not valid JSON"}
            return self.service.handle_simulate(payload, tenant=tenant)
        if request.method == "GET" and request.path.startswith("/results/"):
            return self.service.handle_result(request.path[len("/results/"):])
        if request.method == "GET" and request.path == "/stats":
            return self.service.handle_stats()
        return 404, {"error": f"no route for {request.method} {request.path}"}

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if faults.should_inject("service_conn_drop"):
            # A mid-request network fault: the peer sees the connection
            # reset without a response — exactly what a crash looks like.
            writer.close()
            return
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            # Handlers block on simulation; keep the loop responsive by
            # running them on the default thread-pool executor.
            status, payload = await asyncio.get_running_loop().run_in_executor(
                None, self._route, request
            )
        except _HttpError as error:
            status, payload = error.status, {"error": error.message}
        except Exception as error:  # noqa: BLE001 — one bad connection only
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        try:
            writer.write(self._encode_response(status, payload))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    # -- lifecycle ----------------------------------------------------------
    async def _serve(self) -> None:
        # Record the running loop here — not only in ``start_in_thread`` —
        # so ``shutdown()``/``stop()`` also work on the ``serve_forever()``
        # CLI path (where the loop is created by ``asyncio.run``).
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        async with self._server:
            await self._server.serve_forever()

    def serve_forever(self) -> None:
        """Run the server on the calling thread (the CLI entry point)."""
        try:
            asyncio.run(self._serve())
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass

    def start_in_thread(self, timeout: float = 10.0) -> "ServiceServer":
        """Run the server on a daemon thread; returns once the port is bound."""

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self._serve())
            except asyncio.CancelledError:
                pass
            finally:
                loop.close()

        self._thread = threading.Thread(target=run, name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service server did not come up in time")
        return self

    def shutdown(self) -> None:
        """Ask the event loop to stop accepting and cancel in-flight tasks.

        Thread-safe and signal-safe: does not block, so it can run inside a
        SIGTERM handler while ``serve_forever`` owns the calling thread.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def _shutdown() -> None:
            if self._server is not None:
                self._server.close()
            for task in asyncio.all_tasks(loop):
                task.cancel()

        try:
            loop.call_soon_threadsafe(_shutdown)
        except RuntimeError:
            pass  # loop already torn down

    def stop(self, timeout: float = 5.0, drain: bool = False) -> None:
        """Stop the server (either entry path) and the worker behind it.

        ``drain=True`` lets the worker finish its in-flight wave and journal
        the rest; ``drain=False`` models a crash — jobs stay journaled and a
        restarted service settles them.
        """
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout)
        self.service.close(drain=drain)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"
