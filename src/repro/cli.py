"""Command-line interface for the reproduction experiments.

Usage examples::

    python -m repro.cli simulate --arch riscv --group 1 --scale 0.2
    python -m repro.cli table --arch x86 --implementations 36 --repeats 2
    python -m repro.cli fig5 --arch arm
    python -m repro.cli eq4
    python -m repro.cli serve --arch riscv --port 8642 --db results.db
    python -m repro.cli serve --check
    python -m repro.cli query --url http://127.0.0.1:8642 --stats

Each experiment sub-command prints the same artefact the corresponding
benchmark regenerates; the CLI exists so the experiments can be driven
without pytest.  ``serve`` runs the simulation service (``--check``
validates the runtime configuration and store without binding a port) and
``query`` talks to a running one.

``simulate`` and ``serve`` are the entry points that read the ``REPRO_SIM_*``
and ``REPRO_RETRY_*`` variables, once, through
:meth:`repro.sim.RuntimeConfig.from_env`; ``serve`` also reads the
``REPRO_SERVICE_*`` knobs.  The dataset commands (``table``, ``fig5``,
``eq4``) run the default configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

from repro.autotune.sketch import SearchTask, SketchPolicy, TuningOptions
from repro.autotune.sketch.cost_model import RandomCostModel
from repro.codegen import Target
from repro.hardware import TargetBoard
from repro.pipeline import (
    DatasetConfig,
    ExperimentConfig,
    format_comparison_table,
    generalization_curves,
    load_or_generate_dataset,
    predictor_comparison_table,
    speedup_summary,
)
from repro.sim import RuntimeConfig, Simulator, TraceOptions
from repro.utils.tabulate import format_table
from repro.workloads import conv2d_bias_relu_workload, scaled_group_params


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", choices=["x86", "arm", "riscv"], default="riscv")
    parser.add_argument("--implementations", type=int, default=36,
                        help="implementations per group (paper: 500)")
    parser.add_argument("--scale", type=float, default=0.18,
                        help="workload scale relative to Table II (paper: 1.0)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="training repetitions (paper: 10)")
    parser.add_argument("--trace", type=int, default=100_000,
                        help="simulated memory references per implementation")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for cached datasets (optional)")
    parser.add_argument("--seed", type=int, default=0)


def _dataset(args: argparse.Namespace):
    config = DatasetConfig(
        arch=args.arch,
        implementations_per_group=args.implementations,
        scale=args.scale,
        trace_max_accesses=args.trace,
        seed=args.seed,
    )
    return load_or_generate_dataset(config, cache_dir=args.cache_dir, verbose=True)


def _experiment(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        implementations_per_group=args.implementations,
        n_training_repeats=args.repeats,
        scale=args.scale,
        trace_max_accesses=args.trace,
        seed=args.seed,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate a few random schedules of one kernel group and print their statistics."""
    params = scaled_group_params(args.group, args.scale)
    target = Target.from_name(args.arch)
    task = SearchTask(conv2d_bias_relu_workload, params.as_args(), target, name="cli")
    policy = SketchPolicy(
        task, TuningOptions(seed=args.seed), cost_model=RandomCostModel(args.seed)
    )
    candidates = policy.sample_candidates(args.count)
    _, builds = policy.build_candidates(candidates)
    try:
        trace_options = TraceOptions(max_accesses=args.trace, rng_seed=args.rng_seed)
        config = RuntimeConfig.from_env()
        if args.replacement is not None:
            config = replace(config, replacement=args.replacement)
    except ValueError as error:
        print(f"invalid runtime configuration: {error}", file=sys.stderr)
        return 2
    simulator = Simulator(args.arch, trace_options=trace_options, config=config)
    board = TargetBoard(args.arch, trace_options=trace_options, seed=args.seed)
    rows = []
    for index, build in enumerate(builds):
        if not build.ok:
            continue
        stats = simulator.run(build.program).flat_stats()
        record = board.measure(build.program)
        rows.append(
            [
                index,
                f"{stats['cpu.num_insts']:.3e}",
                f"{stats['l1d.miss_rate'] * 100:.2f}",
                f"{stats['l2.miss_rate'] * 100:.2f}",
                f"{record.median_s * 1e3:.3f}",
            ]
        )
    print(
        format_table(
            ["impl", "instructions", "L1D miss %", "L2 miss %", "t_ref [ms]"],
            rows,
            title=f"group {args.group} on {args.arch} (scale {args.scale})",
        )
    )
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    """Regenerate the predictor-comparison table (Table III/IV/V) for one architecture."""
    dataset = _dataset(args)
    rows = predictor_comparison_table(dataset, _experiment(args))
    titles = {"x86": "Table III", "arm": "Table IV", "riscv": "Table V"}
    print(format_comparison_table(
        rows, title=f"{titles[args.arch]} - prediction results ({args.arch})"
    ))
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    """Regenerate the Figure 5 generalisation experiment for one architecture."""
    dataset = _dataset(args)
    curves = generalization_curves(
        dataset, held_out_group=args.group, config=_experiment(args), predictor_name="bayes"
    )
    rows = []
    for variant, data in curves.items():
        metrics = data["metrics"]
        rows.append([variant, metrics.e_top1, metrics.q_low, metrics.q_high, metrics.r_top1])
    print(
        format_table(
            ["training", "Etop1 %", "Qlow %", "Qhigh %", "Rtop1 %"],
            rows,
            title=f"Figure 5 ({args.arch}) - group {args.group} included vs. excluded",
        )
    )
    return 0


def cmd_eq4(args: argparse.Namespace) -> int:
    """Recompute the Equation 4 break-even parallelism ranges."""
    summary = speedup_summary(
        scale=args.scale, n_schedules=args.count, trace_max_accesses=args.trace
    )
    rows = [[arch, data["k_min"], data["k_max"]] for arch, data in summary.items()]
    print(format_table(["arch", "K min", "K max"], rows, title="Equation 4 - break-even K"))
    return 0


#: The service knobs ``serve`` reads once at start-up:
#: ``(setting, environment variable, parser, default)``.  ``--queue-depth``
#: and ``--lease`` win over their variables.
SERVICE_KNOBS = (
    ("queue_depth", "REPRO_SERVICE_QUEUE_DEPTH", int, 256),
    ("lease_s", "REPRO_SERVICE_LEASE_S", float, 30.0),
    ("breaker_threshold", "REPRO_SERVICE_BREAKER_THRESHOLD", int, 3),
    ("breaker_reset_s", "REPRO_SERVICE_BREAKER_RESET_S", float, 5.0),
)


def _service_knobs(args: argparse.Namespace) -> dict:
    """The service knobs by setting name; raises ``ValueError`` on bad values."""
    knobs = {"queue_depth": args.queue_depth, "lease_s": args.lease}
    for name, variable, parse, default in SERVICE_KNOBS:
        if knobs.get(name) is None:
            knobs[name] = parse(os.environ.get(variable) or default)
    if knobs["queue_depth"] < 0 or knobs["breaker_reset_s"] < 0 or not knobs["lease_s"] > 0:
        raise ValueError(
            f"queue_depth and breaker_reset_s must be >= 0 and lease_s > 0, got {knobs}"
        )
    return knobs


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service (or just validate its configuration)."""
    from repro.reliability import CircuitBreaker
    from repro.service import ResultStore, ServiceServer, SimulationService, Tenant

    try:
        trace_options = TraceOptions(max_accesses=args.trace) if args.trace else None
        config = RuntimeConfig.from_env()
        knobs = _service_knobs(args)
        breaker = CircuitBreaker(
            failure_threshold=knobs["breaker_threshold"],
            reset_timeout_s=knobs["breaker_reset_s"],
        )
    except ValueError as error:
        print(f"invalid runtime configuration: {error}", file=sys.stderr)
        return 2
    if args.check:
        rows = [list(row) for row in config.describe()]
        rows += [[name, variable, str(knobs[name])] for name, variable, _, _ in SERVICE_KNOBS]
        print(format_table(
            ["setting", "environment variable", "resolved value"],
            rows,
            title="runtime configuration",
        ))
        store = ResultStore(args.db, max_entries=args.max_entries, max_age_s=args.max_age)
        print(f"store: {store!r}")
        store.close()
        print("configuration OK")
        return 0
    tenants = {}
    for index, spec in enumerate(args.api_key or []):
        name, _, key = spec.rpartition(":")
        tenants[key] = Tenant(
            name=name or f"tenant{index}", api_key=key, quota=args.quota,
            rate_limit=args.rate_limit, rate_window_s=args.rate_window,
        )
    store = ResultStore(args.db, max_entries=args.max_entries, max_age_s=args.max_age)
    if args.import_memo_dir:
        imported = store.import_disk_cache(args.import_memo_dir)
        print(f"imported {imported} entries from {args.import_memo_dir}")
    service = SimulationService(
        args.arch, store, config=config, tenants=tenants, trace_options=trace_options,
        max_queue_depth=knobs["queue_depth"], lease_s=knobs["lease_s"], breaker=breaker,
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    # SIGTERM/SIGINT trigger a graceful drain: the event loop unwinds (the
    # shutdown call is non-blocking and signal-safe), serve_forever returns,
    # and the finally block finishes the in-flight wave and journals the
    # rest — a restarted service settles them from the same database.
    import signal

    def _graceful(_signo, _frame) -> None:
        server.shutdown()

    for signo in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signo, _graceful)
        except (ValueError, OSError):  # not the main thread (tests)
            break
    print(f"serving {args.arch} simulations on http://{args.host}:{args.port} "
          f"(db {args.db}, {len(tenants)} tenant(s))")
    try:
        server.serve_forever()
    finally:
        service.close(drain=True)
        store.close()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Query a running simulation service (stats or one stored digest)."""
    import json

    from repro.service import ServiceClient

    client = ServiceClient(args.url, api_key=args.key)
    if args.stats:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    if args.digest:
        result = client.result(args.digest)
        if result is None:
            print(f"no result stored for digest {args.digest}", file=sys.stderr)
            return 1
        print(result.dump())
        return 0
    print("nothing to do: pass --stats or --digest", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Instruction-accurate simulators for autotuning performance estimation "
        "(DAC 2025 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="simulate random schedules of one group")
    _add_dataset_arguments(simulate)
    simulate.add_argument("--group", type=int, default=1, choices=range(5))
    simulate.add_argument("--count", type=int, default=5, help="number of schedules")
    simulate.add_argument("--rng-seed", type=int, default=0,
                          help="seed of the replayable random-replacement victim stream "
                          "(only relevant for hierarchies with a random-policy level)")
    from repro.sim.policies import POLICY_NAMES

    simulate.add_argument("--replacement", choices=POLICY_NAMES, default=None,
                          help="replacement policy for every cache level "
                          "(default: the per-level Table I policies)")
    simulate.set_defaults(func=cmd_simulate)

    table = commands.add_parser("table", help="regenerate Table III/IV/V for one architecture")
    _add_dataset_arguments(table)
    table.set_defaults(func=cmd_table)

    fig5 = commands.add_parser("fig5", help="regenerate the Figure 5 experiment")
    _add_dataset_arguments(fig5)
    fig5.add_argument("--group", type=int, default=3, choices=range(5), help="held-out group")
    fig5.set_defaults(func=cmd_fig5)

    eq4 = commands.add_parser("eq4", help="recompute the Equation 4 K ranges")
    eq4.add_argument("--scale", type=float, default=1.0)
    eq4.add_argument("--count", type=int, default=3, help="schedules per group")
    eq4.add_argument("--trace", type=int, default=120_000)
    eq4.set_defaults(func=cmd_eq4)

    serve = commands.add_parser("serve", help="run the simulation service")
    serve.add_argument("--arch", choices=["x86", "arm", "riscv"], default="riscv")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--db", default=":memory:",
                       help="SQLite database path of the shared result store")
    serve.add_argument("--api-key", action="append", metavar="NAME:KEY",
                       help="register one tenant (repeatable); no keys = open dev mode")
    serve.add_argument("--quota", type=int, default=0,
                       help="per-tenant lifetime request quota (0 = unlimited)")
    serve.add_argument("--rate-limit", type=int, default=0,
                       help="per-tenant requests per sliding window (0 = no limit)")
    serve.add_argument("--rate-window", type=float, default=1.0,
                       help="sliding rate-limit window in seconds")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="miss-queue bound before 503 shedding; wins over "
                       "REPRO_SERVICE_QUEUE_DEPTH, which serve reads at start-up "
                       "(default 256; 0 = unbounded)")
    serve.add_argument("--lease", type=float, default=None,
                       help="journal lease seconds before a claimed job is "
                       "reclaimable; wins over REPRO_SERVICE_LEASE_S, which serve "
                       "reads at start-up (default 30)")
    serve.add_argument("--max-entries", type=int, default=100_000,
                       help="LRU bound of the result store")
    serve.add_argument("--max-age", type=float, default=0.0,
                       help="age eviction window in seconds (0 = none)")
    serve.add_argument("--trace", type=int, default=None,
                       help="simulated memory references per request (default: unbounded)")
    serve.add_argument("--import-memo-dir", default=None,
                       help="import an existing flat-file memo directory on startup")
    serve.add_argument("--check", action="store_true",
                       help="validate the runtime configuration and store, then exit")
    serve.set_defaults(func=cmd_serve)

    query = commands.add_parser("query", help="query a running simulation service")
    query.add_argument("--url", default="http://127.0.0.1:8642")
    query.add_argument("--key", default=None, help="API key (X-Api-Key header)")
    query.add_argument("--stats", action="store_true", help="print GET /stats")
    query.add_argument("--digest", default=None, help="fetch one result by digest")
    query.set_defaults(func=cmd_query)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
