"""Span recorder and per-layer instrumentation for the benchmark.

The recorder wraps public callables of the ``repro`` package at their layer
boundaries; nothing under ``src/`` is edited.  Each wrapped call becomes a
span (name, start, end, parent span, thread role).  Spans nest per thread,
so a layer's *self* time is its span duration minus the time covered by
its child spans, and the self times of all spans on a thread add up to the
time that thread spent inside instrumented calls.

Three kinds of callable need special wrapping:

* generators (``Program.memory_trace_descriptors``,
  ``BatchSimulator.iter_batch``) run their body lazily, so each ``next()``
  is timed as its own span in the caller's context;
* staticmethods (``SimulationCache.make_key``) must be re-wrapped as
  staticmethods, or the instance becomes an extra positional argument;
* functions imported by name (``pack_descriptor_arena``) are patched at
  every module that bound them, not only where they are defined.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

SpanName = Union[str, Callable[..., str]]


class SpanRecorder:
    """Thread-aware span recorder; spans and counter events stay in memory.

    Times come from ``time.perf_counter``, the system-wide monotonic clock
    on Linux, so spans recorded in a server process can be cut to a window
    measured in the client process.
    """

    def __init__(self, role_of: Callable[[str], str] = lambda thread_name: "main"):
        self.role_of = role_of
        #: (id, parent id, name, role, start, end, self seconds)
        self.spans: List[tuple] = []
        #: (time, counter name, amount)
        self.events: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.role = self.role_of(threading.current_thread().name)
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        frame = [name, next(self._ids), stack[-1][1] if stack else 0,
                 time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        finish = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        name, span_id, parent, start, children = frame
        duration = finish - start
        if stack:
            stack[-1][4] += duration
        record = (span_id, parent, name, self._local.role, start, finish, duration - children)
        with self._lock:
            self.spans.append(record)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(frame[0] == name for frame in self._stack())

    def parent_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        event = (time.perf_counter(), name, amount)
        with self._lock:
            self.events.append(event)

    def export(self) -> dict:
        with self._lock:
            return {"spans": list(self.spans), "events": list(self.events)}


class Aggregate:
    """Per-(span name, role) totals and counter sums over a time window."""

    def __init__(self):
        #: (name, role) -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[Tuple[str, str], List[float]] = {}
        self.counters: Dict[str, float] = {}

    def add(self, exported: dict, start: float = float("-inf"),
            end: float = float("inf")) -> "Aggregate":
        """Fold in one process's :meth:`SpanRecorder.export`, cut to a window."""
        for _, _, name, role, begin, finish, own in exported["spans"]:
            if begin >= start and finish <= end:
                entry = self.totals.setdefault((name, role), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += finish - begin
                entry[2] += own
        for moment, name, amount in exported["events"]:
            if start <= moment <= end:
                self.counters[name] = self.counters.get(name, 0.0) + amount
        return self

    def _sum(self, name: str, index: int, roles=None) -> float:
        return sum(
            entry[index]
            for (span, role), entry in self.totals.items()
            if span == name and (roles is None or role in roles)
        )

    def calls(self, name: str, roles=None) -> float:
        return self._sum(name, 0, roles)

    def inclusive(self, name: str, roles=None) -> float:
        return self._sum(name, 1, roles)

    def self_time(self, name: str, roles=None) -> float:
        return self._sum(name, 2, roles)

    def self_by_role(self, roles) -> float:
        return sum(entry[2] for (_, role), entry in self.totals.items() if role in roles)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


# -- wrapping ---------------------------------------------------------------


def _resolve(name: SpanName, args, kwargs) -> str:
    return name if isinstance(name, str) else name(*args, **kwargs)


def timed(recorder: SpanRecorder, fn, name: SpanName, after=None):
    """``fn`` wrapped in a span; ``after(result, *args)`` runs on return."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.begin(_resolve(name, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(frame)
        if after is not None:
            after(result, *args)
        return result

    return wrapper


def timed_generator(recorder: SpanRecorder, fn, name: SpanName, on_item=None):
    """A generator function whose every ``next()`` is its own span.

    The name is resolved per ``next()``, in the consumer's context, so a
    lazily consumed trace is attributed to whoever pulls it.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def steps():
            try:
                while True:
                    frame = recorder.begin(_resolve(name, args, kwargs))
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.end(frame)
                    if on_item is not None:
                        on_item(item)
                    yield item
            finally:
                inner.close()

        return steps()

    return wrapper


def patch_method(owner: type, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(original function)``.

    A staticmethod is re-wrapped as one: a plain function stored on the
    class would receive the instance as an extra first argument.
    """
    raw = owner.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def patch_bindings(modules, attr: str, make) -> None:
    """Replace every module-level binding of one function by one wrapper."""
    original = getattr(modules[0], attr)
    wrapper = make(original)
    for module in modules:
        if getattr(module, attr) is original:
            setattr(module, attr, wrapper)


def _after(fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result, *args)
        return result

    return wrapper


# -- the repro layers ---------------------------------------------------------


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer boundaries of the repro package in spans."""
    import repro.codegen.program as program_module
    import repro.sim.cache as cache_module
    import repro.sim.simulator as simulator_module
    from repro.autotune.runner import SimulatorRunner
    from repro.autotune.sketch.auto_scheduler import SketchPolicy
    from repro.autotune.sketch.cost_model import LearnedCostModel
    from repro.codegen.program import Program
    from repro.hardware.board import TargetBoard
    from repro.predictor.training import ScorePredictor
    from repro.predictor.xgboost import GradientBoostedTrees
    from repro.service.client import ServiceClient
    from repro.service.server import SimulationService
    from repro.service.store import ResultStore
    from repro.service.worker import SimulationWorker
    from repro.sim.cache import Cache
    from repro.sim.cpu import AtomicSimpleCPU
    from repro.sim.memo import SimulationCache
    from repro.sim.simulator import BatchSimulator, SimulationResult, Simulator

    def span(name, after=None):
        return lambda fn: timed(recorder, fn, name, after)

    # autotune.sketch and codegen
    patch_method(SketchPolicy, "next_batch", span("sketch.next_batch"))
    patch_method(SketchPolicy, "sample_candidates", span("sketch.sample"))

    def count_builds(result, *_args):
        builds = result[1]
        built = sum(1 for build in builds if build.ok)
        recorder.count("codegen.built", built)
        recorder.count("codegen.compile_errors", len(builds) - built)

    patch_method(SketchPolicy, "build_candidates", span("codegen.build", count_builds))
    patch_method(LearnedCostModel, "update", span("sketch.cost_model_fit"))

    # predictor.xgboost and predictor
    def gbt_fit_name(*_args, **_kwargs):
        if recorder.parent_name() == "sketch.cost_model_fit":
            recorder.count("sketch.cost_model_fits")
        return "gbt.fit"

    patch_method(GradientBoostedTrees, "fit", span(gbt_fit_name))
    patch_method(GradientBoostedTrees, "predict", span("gbt.predict"))
    patch_method(ScorePredictor, "fit", span("predictor.fit"))
    patch_method(ScorePredictor, "predict_dataset", span("predictor.score"))

    def score_function(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(recorder, fn(*args, **kwargs), "predictor.score")

        return wrapper

    patch_method(ScorePredictor, "score_function", score_function)

    # autotune.runner and sim.memo
    patch_method(SimulatorRunner, "run", span("runner"))
    patch_method(SimulationCache, "make_key", span("memo.key"))

    # codegen.program trace front-end and arena packing
    def trace_name(*_args, **_kwargs):
        if recorder.inside("board.measure"):
            return "trace.descriptors.board"
        return "trace.descriptors.sim"

    def count_chunk(chunk):
        recorder.count("trace.chunks")
        recorder.count("trace.accesses", chunk.total)

    patch_method(
        Program,
        "memory_trace_descriptors",
        lambda fn: timed_generator(recorder, fn, trace_name, count_chunk),
    )
    patch_method(Program, "instruction_counts", span("trace.instruction_counts"))
    patch_bindings(
        [program_module, simulator_module, cache_module],
        "pack_descriptor_arena",
        span("arena.pack"),
    )

    # sim.cache per-level kernel: one span name per level, nested along the
    # miss-forwarding chain, so a level's self time excludes the levels below.
    def level_name(cache, *_args, **_kwargs):
        return "kernel." + cache.config.name

    for attr in ("access_batch", "access_lines", "access_descriptors",
                 "access_descriptor_stream", "access_descriptor_arena"):
        patch_method(Cache, attr, span(level_name))

    # sim.simulator, sim.cpu and hardware.board
    def count_outcome(outcome):
        recorder.count("sim.candidates")
        if isinstance(outcome, SimulationResult) and not outcome.cached:
            recorder.count("sim.accesses", outcome.trace_accesses)

    patch_method(
        BatchSimulator,
        "iter_batch",
        lambda fn: timed_generator(recorder, fn, "sim.wave", count_outcome),
    )
    patch_method(Simulator, "run", span("sim.wave"))
    patch_method(AtomicSimpleCPU, "assemble_stats", span("stats.assemble"))
    patch_method(TargetBoard, "measure", span("board.measure"))

    # service: request handlers, store, journal, worker and client
    patch_method(SimulationService, "handle_simulate", span("service.handle"))
    patch_method(SimulationService, "handle_result", span("service.handle"))
    patch_method(ResultStore, "get", span("store.get"))
    patch_method(ResultStore, "put", span("store.put"))
    enqueued_at: Dict[str, float] = {}

    def stamp_enqueue(_result, _store, digest, *_args):
        enqueued_at.setdefault(digest, time.perf_counter())

    patch_method(ResultStore, "journal_enqueue", span("journal.enqueue", stamp_enqueue))
    patch_method(ResultStore, "journal_claim", span("journal.claim"))
    patch_method(ResultStore, "journal_settle", span("journal.settle"))

    def stamp_submit(job, *_args):
        job.perfbench_submitted_at = time.perf_counter()

    patch_method(SimulationWorker, "submit", lambda fn: _after(fn, stamp_submit))
    patch_method(SimulationWorker, "run_sync", span("worker.sync_wait"))

    # The worker's wave loop is private; wrapping it is the only way to see
    # how long jobs queued before their wave started.
    def wave(fn):
        inner = timed(recorder, fn, "worker.wave")

        @functools.wraps(fn)
        def wrapper(worker, jobs, *args, **kwargs):
            start = time.perf_counter()
            waited = 0.0
            for job in jobs:
                submitted = getattr(job, "perfbench_submitted_at", None)
                if submitted is None:
                    submitted = enqueued_at.pop(job.digest, start)
                waited += start - submitted
            recorder.count("worker.queue_wait_s", waited)
            recorder.count("worker.jobs", len(jobs))
            return inner(worker, jobs, *args, **kwargs)

        return wrapper

    patch_method(SimulationWorker, "_process_wave", wave)
    patch_method(ServiceClient, "simulate", span("client.request"))

    def result_name(*_args, **_kwargs):
        if recorder.parent_name() == "client.poll":
            recorder.count("client.polls")
        return "client.request"

    patch_method(ServiceClient, "result", span(result_name))
    patch_method(ServiceClient, "wait_result", span("client.poll"))
