"""The benchmark's metric catalogue and the arithmetic behind each metric.

End-to-end metrics are measured with tracing off and are reported by every
workload, each in the workload's own unit of work:

* ``throughput_per_s`` — training samples per second (``train``), tuning
  trials per second (``tune``), requests per second (``serve``), over the
  whole window;
* ``peak_rss_mb`` — peak resident memory of the process doing the work
  (the service process for ``serve``);
* ``setup_s`` — from a fresh interpreter to a workload ready to measure;
  the median of several set-ups per run.

Latencies (a train pass, a tune session, serve requests by class) are
printed in the report with their quartiles but carry no bound: a pass or a
session is the inverse of its throughput, and the median serve request
latency moved by up to a third between runs on a shared two-vCPU host.

Per-layer metrics come from a separate traced run.  Times are self times
(span duration minus child spans) and counts are totals, both divided by
the number of jobs in the traced window, so they read "per train pass",
"per tune session" or "per serve request".  ``other_s`` is the job's wall
time no span covers; layer self times plus ``other_s`` add up to ``wall_s``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

END_TO_END = {
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: name -> (unit, better, end-to-end metric and workload it should move)
LAYERS = {
    # autotune.sketch
    "sketch.next_batch_s": ("s", "lower", "throughput_per_s on tune"),
    "sketch.sample_s": ("s", "lower", "throughput_per_s on train and tune"),
    "sketch.cost_model_fit_s": ("s", "lower", "throughput_per_s on tune"),
    "sketch.cost_model_fits": ("count", "lower", "throughput_per_s on tune"),
    # predictor.xgboost
    "gbt.fit_s": ("s", "lower", "throughput_per_s on tune and train"),
    "gbt.fit_calls": ("count", "lower", "throughput_per_s on tune and train"),
    "gbt.predict_s": ("s", "lower", "throughput_per_s on tune and train"),
    "gbt.predict_calls": ("count", "lower", "throughput_per_s on tune and train"),
    # predictor
    "predictor.fit_s": ("s", "lower", "throughput_per_s on train (and setup_s on tune)"),
    "predictor.score_s": ("s", "lower", "throughput_per_s on tune and train"),
    "predictor.score_calls": ("count", "lower", "throughput_per_s on tune and train"),
    "predictor.rtop1_pct": ("%", "lower", "ranking quality on train and tune (not a speed)"),
    "features.cache_hits": ("count", "higher", "throughput_per_s on tune"),
    "features.cache_misses": ("count", "lower", "throughput_per_s on tune and train"),
    # codegen
    "codegen.build_s": ("s", "lower", "throughput_per_s on tune and train"),
    "codegen.built": ("count", "higher", "throughput_per_s on tune and train"),
    "codegen.compile_errors": ("count", "lower", "throughput_per_s on tune and train"),
    # autotune.runner
    "runner.self_s": ("s", "lower", "throughput_per_s on tune"),
    "runner.dedupe_lookups": ("count", "higher", "throughput_per_s on tune"),
    "runner.dedupe_hits": ("count", "higher", "throughput_per_s on tune"),
    # sim.memo
    "memo.key_s": ("s", "lower", "throughput_per_s on serve (serve_hit_ms in the report)"),
    "memo.hits": ("count", "higher", "throughput_per_s on serve (serve_hit_ms in the report)"),
    "memo.misses": ("count", "lower", "throughput_per_s on serve and tune"),
    "memo.coalesced": ("count", "higher", "throughput_per_s on serve"),
    # codegen.program trace front-end
    "trace.descriptors_sim_s": ("s", "lower", "throughput_per_s on train, tune and serve"),
    "trace.descriptors_board_s": ("s", "lower", "throughput_per_s on train"),
    "trace.instruction_counts_s": ("s", "lower", "throughput_per_s on train and tune"),
    "trace.chunks": ("count", "lower", "throughput_per_s on train and tune"),
    "trace.accesses": ("count", "higher", "throughput_per_s on train and tune"),
    # arena packing
    "arena.pack_s": ("s", "lower", "throughput_per_s on train, tune and serve"),
    "arena.packs": ("count", "lower", "throughput_per_s on train, tune and serve"),
    # sim.cache per-level kernel and simulated counts
    "kernel.l1d_s": ("s", "lower", "throughput_per_s on train"),
    "kernel.l1i_s": ("s", "lower", "throughput_per_s on train"),
    "kernel.l2_s": ("s", "lower", "throughput_per_s on train"),
    "kernel.l3_s": ("s", "lower", "throughput_per_s on train"),
    "sim.l1d.misses": ("count", "lower", "none: simulated, must not change"),
    "sim.l2.misses": ("count", "lower", "none: simulated, must not change"),
    "sim.l3.misses": ("count", "lower", "none: simulated, must not change"),
    # sim.simulator and sim.cpu
    "sim.wave_s": ("s", "lower", "throughput_per_s on train, tune and serve"),
    "sim.candidates": ("count", "higher", "throughput_per_s on train, tune and serve"),
    "sim.accesses_per_s": ("1/s", "higher", "throughput_per_s on train"),
    "stats.assemble_s": ("s", "lower", "throughput_per_s on train and tune"),
    # hardware.board
    "board.measure_s": ("s", "lower", "throughput_per_s on train"),
    "board.measures": ("count", "lower", "throughput_per_s on train"),
    # service
    "service.handle_s": ("s", "lower", "throughput_per_s on serve (serve_hit_ms in the report)"),
    "service.transport_s": ("s", "lower", "throughput_per_s on serve (serve_hit_ms in the report)"),
    "store.get_s": ("s", "lower", "throughput_per_s on serve (serve_hit_ms in the report)"),
    "store.gets": ("count", "lower", "throughput_per_s on serve (serve_hit_ms in the report)"),
    "store.put_s": ("s", "lower", "throughput_per_s on serve"),
    "store.puts": ("count", "lower", "throughput_per_s on serve"),
    "journal.enqueue_s": ("s", "lower", "throughput_per_s on serve"),
    "journal.claim_s": ("s", "lower", "throughput_per_s on serve"),
    "journal.settle_s": ("s", "lower", "throughput_per_s on serve"),
    "worker.sync_wait_s": ("s", "lower", "throughput_per_s on serve"),
    "worker.queue_wait_s": ("s", "lower", "throughput_per_s on serve"),
    "worker.wave_s": ("s", "lower", "throughput_per_s on serve"),
    "worker.waves": ("count", "lower", "throughput_per_s on serve"),
    "worker.jobs_per_wave": ("count", "higher", "throughput_per_s on serve"),
    "client.poll_s": ("s", "lower", "throughput_per_s on serve"),
    "client.polls_per_queued": ("count", "lower", "throughput_per_s on serve"),
    # the whole traced job
    "wall_s": ("s", "lower", "the sum of every time above plus other_s"),
    "other_s": ("s", "lower", "unattributed: grows when a layer is missing"),
    "trace.overhead_pct": ("%", "lower", "none: cost of tracing itself"),
}

#: Per-layer times read as the self time of one span name.
SELF_TIMES = {
    "sketch.next_batch_s": "sketch.next_batch",
    "sketch.sample_s": "sketch.sample",
    "sketch.cost_model_fit_s": "sketch.cost_model_fit",
    "gbt.fit_s": "gbt.fit",
    "gbt.predict_s": "gbt.predict",
    "predictor.fit_s": "predictor.fit",
    "predictor.score_s": "predictor.score",
    "codegen.build_s": "codegen.build",
    "runner.self_s": "runner",
    "memo.key_s": "memo.key",
    "trace.descriptors_sim_s": "trace.descriptors.sim",
    "trace.descriptors_board_s": "trace.descriptors.board",
    "trace.instruction_counts_s": "trace.instruction_counts",
    "arena.pack_s": "arena.pack",
    "kernel.l1d_s": "kernel.l1d",
    "kernel.l1i_s": "kernel.l1i",
    "kernel.l2_s": "kernel.l2",
    "kernel.l3_s": "kernel.l3",
    "sim.wave_s": "sim.wave",
    "stats.assemble_s": "stats.assemble",
    "board.measure_s": "board.measure",
    "service.handle_s": "service.handle",
    "store.get_s": "store.get",
    "store.put_s": "store.put",
    "journal.enqueue_s": "journal.enqueue",
    "journal.claim_s": "journal.claim",
    "journal.settle_s": "journal.settle",
    "worker.sync_wait_s": "worker.sync_wait",
    "client.poll_s": "client.poll",
}

#: Per-layer counts read as the number of calls of one span name.
CALLS = {
    "gbt.fit_calls": "gbt.fit",
    "gbt.predict_calls": "gbt.predict",
    "predictor.score_calls": "predictor.score",
    "arena.packs": "arena.pack",
    "board.measures": "board.measure",
    "store.gets": "store.get",
    "store.puts": "store.put",
    "worker.waves": "worker.wave",
}

#: Per-layer counts read from counter events.
COUNTERS = {
    "sketch.cost_model_fits": "sketch.cost_model_fits",
    "codegen.built": "codegen.built",
    "codegen.compile_errors": "codegen.compile_errors",
    "trace.chunks": "trace.chunks",
    "trace.accesses": "trace.accesses",
    "sim.candidates": "sim.candidates",
    "worker.queue_wait_s": "worker.queue_wait_s",
}

#: Values that are ratios already and are not divided by the job count.
RATIOS = {"sim.accesses_per_s", "worker.jobs_per_wave", "client.polls_per_queued",
          "predictor.rtop1_pct", "trace.overhead_pct"}


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of ``values``."""
    values = list(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile (inclusive method) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def layer_metrics(aggregate, window: dict, on_path: List[str], extra: Dict[str, float],
                  overhead_pct: float) -> Dict[str, float]:
    """Per-job layer metrics of one traced window (see the module docstring).

    ``on_path`` names the span roles whose time is the window's wall time:
    the workload's own thread for ``train``/``tune``, the client processes for
    ``serve``.  A serve request's round trip is a ``client.request`` span;
    the server-side spans inside it run in another process, so the round
    trip splits into the server's handler layers and ``service.transport_s``.
    """
    values: Dict[str, float] = {name: 0.0 for name in LAYERS}
    for metric, span in SELF_TIMES.items():
        values[metric] = aggregate.self_time(span)
    for metric, span in CALLS.items():
        values[metric] = aggregate.calls(span)
    for metric, counter in COUNTERS.items():
        values[metric] = aggregate.counter(counter)
    for metric, value in window["counts"].items():
        if metric in values:
            values[metric] = value
    handled = aggregate.inclusive("service.handle")
    values["service.transport_s"] = max(aggregate.inclusive("client.request") - handled, 0.0)
    values["worker.wave_s"] = aggregate.inclusive("worker.wave")
    waves = values["worker.waves"]
    values["worker.jobs_per_wave"] = aggregate.counter("worker.jobs") / waves if waves else 0.0
    queued = window.get("queued_ops", 0)
    polls = aggregate.counter("client.polls")
    values["client.polls_per_queued"] = polls / queued if queued else 0.0
    simulating = aggregate.inclusive("sim.wave")
    values["sim.accesses_per_s"] = (
        aggregate.counter("sim.accesses") / simulating if simulating else 0.0
    )
    values["wall_s"] = window["wall_s"]
    values["other_s"] = window["wall_s"] - aggregate.self_by_role(on_path)
    values["trace.overhead_pct"] = overhead_pct
    values.update(extra)
    jobs = max(window["jobs"], 1)
    return {
        name: (value if name in RATIOS else value / jobs) for name, value in values.items()
    }
