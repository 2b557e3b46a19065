"""The benchmark's three workloads: ``train``, ``tune`` and ``serve``.

Each workload builds its inputs from the seed in :meth:`setup`, runs its
user-level jobs for a fixed number of seconds in :meth:`window` and checks
its outputs in :meth:`check`.  A window returns:

* ``throughput`` — the window's work per second;
* ``attempted``/``failed`` operation counts;
* ``digest`` — a hash of the deterministic outputs, identical for every
  run of one seed, traced or not;
* ``details`` — the workload's own named metrics (samples per second,
  R_top1, latency per request class, ...) as lists of samples;
* ``counts`` — per-layer counters the spans cannot see (memo and feature
  caches, runner dedupe, simulated misses per cache level).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.utils.rng import derive_seed, new_generator

HERE = Path(__file__).resolve().parent


def flat_without_host_time(flat: Dict[str, float]) -> Dict[str, float]:
    """Simulation statistics minus ``sim.host_seconds``, the one field that
    legitimately differs between two runs of the same program."""
    return {key: value for key, value in flat.items() if key != "sim.host_seconds"}


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def simulated_misses(flat_stats_iterable) -> Dict[str, float]:
    counts = {"sim.l1d.misses": 0.0, "sim.l2.misses": 0.0, "sim.l3.misses": 0.0}
    for flat in flat_stats_iterable:
        for level in ("l1d", "l2", "l3"):
            counts[f"sim.{level}.misses"] += flat.get(f"{level}.misses", 0.0)
    return counts


def add_counts(total: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0.0) + value


class _JobWorkload:
    """A workload made of repeated user-level jobs.

    Job ``j`` of a window draws its inputs from ``derive_seed(seed, j)``, so
    a window averages over several input draws while two windows of one
    seed see the same sequence.  Every job starts from empty process-wide
    simulation and feature caches, so no job is served another's results.
    """

    def window(self, seconds: float, traced: bool = False) -> dict:
        from repro.predictor.features import default_feature_cache
        from repro.sim.memo import default_simulation_cache

        memo, features = default_simulation_cache(), default_feature_cache()
        jobs: List[dict] = []
        counts: Dict[str, float] = {}
        elapsed = 0.0
        while elapsed < seconds or not jobs:
            memo.clear()
            features.clear()
            job = self.job(derive_seed(self.seed, "perfbench", "job", len(jobs)))
            payload = job.pop("payload")  # kept for the first job's checks only
            if not jobs:
                first = payload
            jobs.append(job)
            elapsed += job["seconds"]
            add_counts(counts, job["counts"])
            add_counts(counts, {
                "memo.hits": memo.hits,
                "memo.misses": memo.misses,
                "memo.coalesced": memo.coalesced,
                "features.cache_hits": features.hits,
                "features.cache_misses": features.misses,
            })
        details = self.details(jobs)
        return {
            "wall_s": elapsed,
            "jobs": len(jobs),
            # Work over time of the whole window: a ratio of sums averages
            # the jobs' different input draws instead of picking one.
            "throughput": sum(job["units"] for job in jobs) / elapsed,
            "attempted": sum(job["attempted"] for job in jobs),
            "failed": sum(job["failed"] for job in jobs),
            "digest": jobs[0]["digest"],
            "details": details,
            "counts": counts,
            "first": first,
        }

    def close(self) -> None:
        pass


class TrainWorkload(_JobWorkload):
    """Figure 4-I on x86: dataset generation, predictor fit, held-out scoring."""

    ARCH = "x86"
    IMPLEMENTATIONS = 12

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.pipeline.dataset import DatasetConfig

        self.config = DatasetConfig(
            arch=self.ARCH, implementations_per_group=self.IMPLEMENTATIONS, n_parallel=1
        )

    def job(self, seed: int) -> dict:
        from repro.metrics.evaluation import r_top1
        from repro.pipeline.dataset import DatasetGenerationError, generate_dataset
        from repro.predictor.training import ScorePredictor

        failed = 0
        start = time.perf_counter()
        config = replace(self.config, seed=seed)
        try:
            dataset = generate_dataset(config)
        except DatasetGenerationError as error:
            dataset = error.dataset
            failed = len(error.failures) * self.IMPLEMENTATIONS
        train, test = dataset.train_test_split(0.2, seed=seed)
        predictor = ScorePredictor("xgboost", seed=seed).fit(train)
        scored = []
        for group_id in test.group_ids():
            samples = test.group(group_id)
            scores = predictor.predict_dataset(samples, window="exact")
            scored.append((group_id, [s.measured_time_s for s in samples], scores.tolist()))
        seconds = time.perf_counter() - start
        rtop1 = sum(r_top1(times, scores) for _, times, scores in scored) / len(scored)
        return {
            "seconds": seconds,
            "units": len(dataset),
            "attempted": len(dataset) + failed,
            "failed": failed,
            "rtop1": rtop1,
            "digest": digest_of([
                [(s.implementation_id, flat_without_host_time(s.flat_stats), s.measured_time_s)
                 for s in dataset.samples],
                scored,
            ]),
            "counts": simulated_misses(s.flat_stats for s in dataset.samples),
            "payload": (config, dataset),
        }

    def details(self, jobs) -> dict:
        return {
            "train_samples_per_s": ("1/s", [job["units"] / job["seconds"] for job in jobs]),
            "train_pass_s": ("s", [job["seconds"] for job in jobs]),
            "train_rtop1_pct": ("%", [jobs[0]["rtop1"]]),
        }

    def layer_values(self, window: dict) -> dict:
        return {"predictor.rtop1_pct": window["details"]["train_rtop1_pct"][1][0]}

    def check(self, window: dict) -> List[str]:
        """Re-simulate a seeded subset with the reference engine."""
        from repro.hardware.board import TargetBoard
        from repro.hardware.measurement import MeasurementProtocol
        from repro.pipeline.dataset import generate_group_samples
        from repro.sim import RuntimeConfig, Simulator
        from repro.sim.cpu import TraceOptions

        problems = []
        config, dataset = window["first"]
        trace = TraceOptions(max_accesses=config.trace_max_accesses)
        reference = Simulator(
            self.ARCH, trace_options=trace,
            config=RuntimeConfig(engine="reference", memoize=False),
        )
        rng = new_generator(self.seed, "perfbench", "train-check")
        picks = sorted(rng.choice(len(dataset.samples), size=4, replace=False).tolist())
        by_group: Dict[int, List[int]] = {}
        for index in picks:
            sample = dataset.samples[index]
            position = dataset.group(sample.group_id).index(sample)
            by_group.setdefault(sample.group_id, []).append(position)
        # One board measurement per kept sample, in sample order: capturing
        # the measured programs recovers each sample's program.
        original_measure = TargetBoard.measure
        for group_id, positions in sorted(by_group.items()):
            programs = []

            def capture(board, program, _programs=programs):
                _programs.append(program)
                return original_measure(board, program)

            TargetBoard.measure = capture
            try:
                samples = generate_group_samples(
                    self.ARCH, group_id, config.group_parameters()[group_id],
                    self.IMPLEMENTATIONS, seed=config.seed, trace_options=trace,
                    protocol=MeasurementProtocol(
                        n_exe=config.n_exe, cooldown_s=config.cooldown_s
                    ),
                )
            finally:
                TargetBoard.measure = original_measure
            kept = dataset.group(group_id)
            for position in positions:
                expected = flat_without_host_time(kept[position].flat_stats)
                if flat_without_host_time(samples[position].flat_stats) != expected:
                    problems.append(f"group {group_id} sample {position}: regeneration differs")
                got = flat_without_host_time(reference.run(programs[position]).flat_stats())
                if got != expected:
                    problems.append(
                        f"group {group_id} sample {position}: reference engine differs"
                    )
        return problems


class TuneWorkload(_JobWorkload):
    """Figure 4-II on arm, Table II group 3: simulator-guided sketch search."""

    ARCH = "arm"
    GROUP = 3
    TRIALS = 128
    PER_ROUND = 16
    TRAINING_IMPLEMENTATIONS = 6

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.pipeline.dataset import DatasetConfig, generate_dataset
        from repro.predictor.training import ScorePredictor
        from repro.sim.cpu import TraceOptions
        from repro.workloads.resnet import scaled_group_params

        dataset = generate_dataset(DatasetConfig(
            arch=self.ARCH,
            implementations_per_group=self.TRAINING_IMPLEMENTATIONS,
            n_parallel=1,
            seed=self.seed,
        ))
        self.predictor = ScorePredictor("xgboost", seed=self.seed).fit(dataset)
        self.params = scaled_group_params(self.GROUP, 0.2)
        self.trace = TraceOptions(max_accesses=120_000)

    def _task(self):
        from repro.autotune.sketch.auto_scheduler import SearchTask
        from repro.codegen.target import Target
        from repro.workloads.conv2d import conv2d_bias_relu_workload

        return SearchTask(
            conv2d_bias_relu_workload, self.params.as_args(), Target.from_name(self.ARCH),
            name=f"exec_{self.ARCH}",
        )

    def job(self, seed: int) -> dict:
        from repro.autotune.measure import MeasureErrorNo
        from repro.autotune.runner import SimulatorRunner
        from repro.autotune.sketch.auto_scheduler import SketchPolicy, TuningOptions

        # Mirrors ExecutionPhase.run: the task, the runner scored by the
        # predictor, and the policy with its default learned cost model.
        start = time.perf_counter()
        task = self._task()
        runner = SimulatorRunner(
            self.ARCH, n_parallel=1, trace_options=self.trace,
            score_function=self.predictor.score_function(window="dynamic"),
        )
        policy = SketchPolicy(task, TuningOptions(
            num_measure_trials=self.TRIALS,
            num_measures_per_round=self.PER_ROUND,
            seed=seed,
        ))
        best = policy.search(runner=runner)
        seconds = time.perf_counter() - start
        failed = sum(
            1 for record in policy.records
            if record.result.error_no
            not in (MeasureErrorNo.NO_ERROR, MeasureErrorNo.COMPILE_ERROR)
        )
        counts = simulated_misses(result.flat_stats() for result in runner.simulation_results)
        counts["runner.dedupe_lookups"] = runner.dedupe_lookups
        counts["runner.dedupe_hits"] = runner.dedupe_hits
        return {
            "seconds": seconds,
            "units": len(policy.records),
            "attempted": len(policy.records),
            "failed": failed,
            "digest": digest_of([
                [(record.candidate.key(), record.cost) for record in policy.records],
                best.key() if best is not None else None,
            ]),
            "counts": counts,
            "payload": (seed, task, policy, runner),
        }

    def details(self, jobs) -> dict:
        return {
            "tune_trials_per_s": ("1/s", [job["units"] / job["seconds"] for job in jobs]),
            "tune_session_s": ("s", [job["seconds"] for job in jobs]),
        }

    def check(self, window: dict) -> List[str]:
        """Score replay, per-candidate re-simulation and R_top1 validation."""
        from repro.autotune.measure import MeasureErrorNo
        from repro.codegen.codegen import build_program
        from repro.hardware.board import TargetBoard
        from repro.metrics.evaluation import r_top1
        from repro.sim import RuntimeConfig, Simulator
        from repro.te.lower import lower

        seed, task, policy, runner = window["first"]
        simulated = [
            record for record in policy.records
            if record.result.error_no != MeasureErrorNo.COMPILE_ERROR
        ]
        if len(simulated) != len(runner.simulation_results):
            return ["tune: failed candidates; cannot map records to simulations"]

        def program_of(record):
            schedule = record.candidate.apply(task.output_tensors)
            func = lower(schedule, task.arg_tensors, name="check")
            return build_program(func, task.target, name="check")

        problems = []
        results = list(runner.simulation_results)
        per_candidate = Simulator(
            self.ARCH, trace_options=self.trace, config=RuntimeConfig(memoize=False)
        )
        rng = new_generator(self.seed, "perfbench", "tune-check")
        for index in sorted(rng.choice(len(results), size=6, replace=False).tolist()):
            again = per_candidate.run(program_of(simulated[index]))
            if flat_without_host_time(again.flat_stats()) != flat_without_host_time(
                results[index].flat_stats()
            ):
                problems.append(f"tune candidate {index}: per-candidate simulation differs")
            results[index] = again
        score = self.predictor.score_function(window="dynamic")
        for record, result in zip(simulated, results):
            if score(result, None) != record.cost:
                problems.append("tune: replayed score differs from the session's cost")
                break

        board = TargetBoard(self.ARCH, trace_options=self.trace, seed=seed)
        times = [board.measure(program_of(record)).median_s for record in simulated]
        self.rtop1 = r_top1(times, [record.cost for record in simulated])
        window["details"]["tune_rtop1_pct"] = ("%", [self.rtop1])
        return problems

    def layer_values(self, window: dict) -> dict:
        return {"predictor.rtop1_pct": self.rtop1}


# -- serve ---------------------------------------------------------------------


class Op(NamedTuple):
    """One serve request as a client saw it."""

    kind: str  # "hit", "miss" or "queued"
    index: int  # into ServeWorkload.programs
    finished: float
    latency_s: float
    stats: Optional[Dict[str, float]]  # None when the request failed


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServeWorkload:
    """``repro.cli serve --arch arm`` driven by a closed loop of two client
    processes (see :func:`serve_client`)."""

    ARCH = "arm"
    SHAPE = (64, 64, 64)
    HOT = 256
    CLIENTS = 2
    #: Each client repeats seeded shuffles of this block: 70 % hot-set
    #: repeats, 20 % fresh wait=true, 10 % fresh wait=false, exactly.
    MIX = ("hit",) * 7 + ("miss",) * 2 + ("queued",)
    DIGEST_OPS = 100
    #: Poll interval of ``wait_result``: short, so the journal's drain time
    #: shows in the queued latency instead of a 50 ms polling quantum.
    POLL_S = 0.01

    def __init__(self, seed: int, build_dir: Path):
        self.seed = seed
        self.build_dir = build_dir
        self.server: Optional[subprocess.Popen] = None
        self.programs: Optional[list] = None

    def setup(self, traced: bool = False) -> None:
        if self.programs is None:
            self.programs = serve_programs(self.seed)
        self._start_server(traced)
        self._warm()

    def _start_server(self, traced: bool) -> None:
        from repro.service import ServiceClient

        tag = f"serve-{os.getpid()}-{int(traced)}"
        self.db = self.build_dir / "tmp" / f"{tag}.db"
        self.report = self.build_dir / "tmp" / f"{tag}.json"
        for path in (self.report, *self._db_files()):
            path.unlink(missing_ok=True)
        port = _free_port()
        self.url = f"http://127.0.0.1:{port}"
        with open(self.build_dir / "logs" / f"{tag}.log", "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                [sys.executable, str(HERE / "serve_launcher.py"),
                 "--report", str(self.report), "--trace", str(int(traced)), "--",
                 "serve", "--arch", self.ARCH, "--port", str(port), "--db", str(self.db)],
                stdout=log, stderr=subprocess.STDOUT,
            )
        client = ServiceClient(self.url, timeout_s=10.0)
        deadline = time.monotonic() + 60.0
        while not client.healthy():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"service did not come up (see logs/{tag}.log)")
            time.sleep(0.05)

    def _db_files(self):
        return [Path(str(self.db) + suffix) for suffix in ("", "-wal", "-shm")]

    def _warm(self) -> None:
        """Compute the hot set once, so the window's repeats are store hits."""
        from repro.service import ServiceClient
        from repro.sim.simulator import SimulationResult

        client = ServiceClient(self.url)
        for program in self.programs[: self.HOT]:
            if not isinstance(client.simulate(program), SimulationResult):
                raise RuntimeError("warming the hot set failed")

    def stop_server(self) -> dict:
        """Gracefully stop the service; returns the launcher's report."""
        report: dict = {}
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None
            if self.report.exists():
                report = json.loads(self.report.read_text(encoding="utf-8"))
                self.report.unlink()
            for path in self._db_files():
                path.unlink(missing_ok=True)
        return report

    def close(self) -> None:
        self.stop_server()

    def server_stats(self) -> dict:
        from repro.service import ServiceClient

        return ServiceClient(self.url).stats()

    def window(self, seconds: float, traced: bool = False) -> dict:
        """Run the closed loop; each client is its own process, so the
        clients never contend for one interpreter lock while timing."""
        context = multiprocessing.get_context("spawn")
        pipes, processes = [], []
        for client in range(self.CLIENTS):
            ours, theirs = context.Pipe()
            process = context.Process(
                target=serve_client, args=(theirs, self.url, self.seed, client, traced),
                name=f"perfbench-client-{client}",
            )
            process.start()
            theirs.close()
            pipes.append(ours)
            processes.append(process)
        for pipe in pipes:
            pipe.recv()  # the client has built its programs
        stats_before = self.server_stats()
        start = time.perf_counter()
        for pipe in pipes:
            pipe.send(start + seconds)
        results = [pipe.recv() for pipe in pipes]
        for process in processes:
            process.join()
        end = max(result[2] for result in results)
        wall = end - start
        stats_after = self.server_stats()
        ops = [result[0] for result in results]
        every = [op for client_ops in ops for op in client_ops]
        failed = sum(1 for op in every if op.stats is None) + sum(result[1] for result in results)
        buckets = [0] * int(wall)
        for op in every:
            second = int(op.finished - start)
            if second < len(buckets):
                buckets[second] += 1
        by_kind = {
            kind: [op.latency_s * 1000.0 for op in every if op.kind == kind]
            for kind in ("hit", "miss", "queued")
        }
        cache_before, cache_after = stats_before["cache"], stats_after["cache"]
        counts = {
            f"memo.{name}": cache_after[name] - cache_before[name]
            for name in ("hits", "misses", "coalesced")
        }
        add_counts(counts, simulated_misses(
            op.stats for op in every if op.stats is not None and op.kind != "hit"
        ))
        return {
            "wall_s": wall * self.CLIENTS,
            "jobs": len(every),
            "throughput": len(every) / wall,
            "attempted": len(every),
            "failed": failed,
            "digest": digest_of([
                [(op.kind, op.index, op.stats) for op in client_ops[: self.DIGEST_OPS]]
                for client_ops in ops
            ]),
            "details": {
                "serve_req_per_s": ("1/s", buckets),
                "serve_hit_ms": ("ms", by_kind["hit"]),
                "serve_miss_ms": ("ms", by_kind["miss"]),
                "serve_queued_ms": ("ms", by_kind["queued"]),
            },
            "counts": counts,
            "ops": ops,
            "queued_ops": len(by_kind["queued"]),
            "short_clients": sum(1 for client_ops in ops if len(client_ops) < self.DIGEST_OPS),
            "span_window": (start, end),
            "spans": [result[3] for result in results if result[3] is not None],
        }

    def check(self, window: dict) -> List[str]:
        """Every response must equal a local BatchSimulator run."""
        from repro.sim import BatchSimulator, RuntimeConfig, TraceOptions

        problems = []
        if window["short_clients"]:
            problems.append(f"serve: a client finished fewer than {self.DIGEST_OPS} requests")
        used = sorted({op.index for client_ops in window["ops"] for op in client_ops})
        local = BatchSimulator(
            self.ARCH, trace_options=TraceOptions(), config=RuntimeConfig(memoize=False)
        )
        expected = {
            index: flat_without_host_time(result.flat_stats())
            for index, result in zip(
                used, local.run_batch([self.programs[index] for index in used])
            )
        }
        wrong = sum(
            1 for client_ops in window["ops"] for op in client_ops
            if op.stats is not None and op.stats != expected[op.index]
        )
        if wrong:
            problems.append(f"serve: {wrong} responses differ from local simulation")
        return problems

    def layer_values(self, window: dict) -> dict:
        return {}


def serve_programs(seed: int) -> list:
    """The serve workload's programs: the matmul space in a seeded order."""
    import repro.workloads  # noqa: F401 — registers the tuning templates
    from repro.autotune import LocalBuilder, MeasureInput, create_task
    from repro.codegen.target import Target

    task = create_task("matmul", ServeWorkload.SHAPE, Target.from_name(ServeWorkload.ARCH))
    space = task.config_space
    order = new_generator(seed, "perfbench", "serve-order").permutation(len(space))
    builds = LocalBuilder().build([MeasureInput(task, space.get(int(i))) for i in order])
    return [build.program for build in builds if build.ok]


def serve_client(pipe, url: str, seed: int, client: int, traced: bool) -> None:
    """One closed-loop caller: waits for the deadline, then requests until it.

    Sends back ``(ops, retries, end time, spans or None)``.  Client
    ``client`` owns every ``CLIENTS``-th fresh program, so both callers'
    request sequences are fixed by the seed.
    """
    import spans
    from repro.service import ServiceClient, ServiceError
    from repro.sim.simulator import SimulationFailure, SimulationResult

    programs = serve_programs(seed)
    recorder = None
    if traced:
        recorder = spans.SpanRecorder(role_of=lambda _thread: "client")
        spans.install(recorder)
    service = ServiceClient(url, timeout_s=60.0)
    rng = new_generator(seed, "perfbench", "serve-client", client)
    fresh = iter(range(ServeWorkload.HOT + client, len(programs), ServeWorkload.CLIENTS))
    kinds: List[str] = []
    ops: List[Op] = []
    pipe.send("ready")
    deadline = pipe.recv()
    while time.perf_counter() < deadline:
        if not kinds:
            kinds = [ServeWorkload.MIX[i] for i in rng.permutation(len(ServeWorkload.MIX))]
        kind = kinds.pop()
        if kind == "hit":
            index = int(rng.integers(ServeWorkload.HOT))
        else:
            index = next(fresh, None)
            if index is None:
                break  # every fresh program has been requested once
        begin = time.perf_counter()
        try:
            if kind == "queued":
                outcome = service.simulate(programs[index], wait=False)
                if isinstance(outcome, SimulationFailure) and outcome.error.startswith(
                    "queued as "
                ):
                    digest = outcome.error.split()[2].rstrip(";")
                    outcome = service.wait_result(
                        digest, deadline_s=60.0, poll_s=ServeWorkload.POLL_S
                    )
            else:
                outcome = service.simulate(programs[index])
        except (ServiceError, TimeoutError, OSError):
            outcome = None
        finish = time.perf_counter()
        stats = (
            flat_without_host_time(outcome.flat_stats())
            if isinstance(outcome, SimulationResult) else None
        )
        ops.append(Op(kind, index, finish, finish - begin, stats))
    pipe.send((ops, service.retries, time.perf_counter(),
               recorder.export() if recorder is not None else None))
    pipe.close()


WORKLOADS = {"train": TrainWorkload, "tune": TuneWorkload, "serve": ServeWorkload}
