"""Training-dataset generation: paired simulator statistics and native run times.

For every kernel group the Auto-Scheduler's annotation sampler generates many
schedule implementations; each implementation is executed on the
instruction-accurate simulator (statistics) and on the target board (reference
run time).  Because generation is the most expensive part of the reproduction,
datasets can be cached on disk as JSON, and the per-group work — which is
fully independent (every group seeds its own sampler, simulator and board) —
runs on a worker pool like the :class:`~repro.sim.simulator.BatchSimulator`
backends (``threads`` by default: the simulation hot path lives inside NumPy
kernels and the compiled event kernel, both of which release the interpreter
lock).
Results are assembled in group order, so parallel generation is
bit-identical to serial generation.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.autotune.sketch.auto_scheduler import SearchTask, SketchPolicy, TuningOptions
from repro.autotune.sketch.cost_model import RandomCostModel
from repro.codegen.target import Target
from repro.hardware.board import TargetBoard
from repro.hardware.measurement import MeasurementProtocol
from repro.predictor.training import PredictorDataset, TrainingSample
from repro.reliability import RetryPolicy
from repro.reliability import faults
from repro.sim.cpu import TraceOptions
from repro.sim.simulator import BatchSimulator, SimulationFailure
from repro.utils.serialization import dump_json, load_json
from repro.workloads.conv2d import Conv2DParams, conv2d_bias_relu_workload
from repro.workloads.resnet import scaled_group_params


@dataclass(frozen=True)
class DatasetConfig:
    """Configuration of one dataset-generation run."""

    arch: str
    implementations_per_group: int = 60
    groups: tuple = (0, 1, 2, 3, 4)
    scale: float = 0.2
    trace_max_accesses: int = 120_000
    n_exe: int = 15
    cooldown_s: float = 1.0
    seed: int = 0
    kernel_type: str = "conv2d_bias_relu"
    #: Concurrent group workers: 0 = one per group (capped by CPU count),
    #: 1 = serial.  Parallel generation is bit-identical to serial.
    n_parallel: int = 0
    #: Worker backend for group generation: "threads" or "processes".
    backend: str = "threads"

    BACKENDS = ("threads", "processes")

    def __post_init__(self) -> None:
        if self.backend not in self.BACKENDS:
            raise ValueError(
                f"unknown dataset backend {self.backend!r}; expected one of {self.BACKENDS}"
            )

    def group_parameters(self) -> Dict[int, Conv2DParams]:
        """Conv2D parameters per group at the configured scale."""
        return {gid: scaled_group_params(gid, self.scale) for gid in self.groups}

    def cache_key(self) -> str:
        """A stable hash identifying this configuration."""
        payload = json.dumps(
            {
                "arch": self.arch,
                "implementations_per_group": self.implementations_per_group,
                "groups": list(self.groups),
                "scale": self.scale,
                "trace_max_accesses": self.trace_max_accesses,
                "n_exe": self.n_exe,
                "cooldown_s": self.cooldown_s,
                "seed": self.seed,
                "kernel_type": self.kernel_type,
                # NOTE: the worker configuration is deliberately excluded
                # from the cache key: group generation is order-independent,
                # so a dataset generated under any parallelism setting is
                # valid for all of them.  Generation runs the default
                # RuntimeConfig, never the environment's.
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class GroupFailure:
    """Record of one kernel group that could not be generated."""

    group_id: int
    error: str
    attempts: int = 1


class DatasetGenerationError(RuntimeError):
    """Some groups failed after retries; the rest of the dataset survived.

    ``failures`` lists one :class:`GroupFailure` per failed group;
    ``dataset`` holds the partial :class:`PredictorDataset` assembled from
    every group that did succeed.
    """

    def __init__(self, failures: List[GroupFailure], dataset: PredictorDataset):
        detail = "; ".join(
            f"group {failure.group_id}: {failure.error} "
            f"({failure.attempts} attempt(s))"
            for failure in failures
        )
        super().__init__(
            f"{len(failures)} group(s) failed during dataset generation: {detail}"
        )
        self.failures = failures
        self.dataset = dataset


def generate_group_samples(
    arch: str,
    group_id: int,
    params: Conv2DParams,
    n_implementations: int,
    seed: int = 0,
    trace_options: Optional[TraceOptions] = None,
    protocol: Optional[MeasurementProtocol] = None,
) -> List[TrainingSample]:
    """Generate paired (simulator statistics, native run time) samples for one group."""
    faults.maybe_crash_worker()
    trace_options = trace_options or TraceOptions(max_accesses=120_000)
    protocol = protocol or MeasurementProtocol()
    target = Target.from_name(arch)
    task = SearchTask(
        conv2d_bias_relu_workload,
        params.as_args(),
        target,
        name=f"conv2d_g{group_id}_{arch}",
    )
    policy = SketchPolicy(
        task,
        TuningOptions(seed=seed + group_id),
        cost_model=RandomCostModel(seed=seed + group_id),
    )
    simulator = BatchSimulator(arch, trace_options=trace_options)
    board = TargetBoard(
        arch, protocol=protocol, trace_options=trace_options, seed=seed + 1000 + group_id
    )

    samples: List[TrainingSample] = []
    # Over-sample candidates: some may fail to build (they are skipped).
    candidates = policy.sample_candidates(int(n_implementations * 1.3) + 4)
    inputs, build_results = policy.build_candidates(candidates)
    chosen = [
        (index, build) for index, build in enumerate(build_results) if build.ok
    ][: max(n_implementations, 0)]
    # The batch simulator streams one simulation per chosen candidate, and
    # the board measures each right after it: the board's memoized
    # Simulator.run finds the entry just stored, so a training pair walks
    # its trace once.  Only the chosen candidates are simulated.  The
    # default config retries nothing, so a simulation failure fails the
    # whole group, exactly like a raising per-candidate run — group-level
    # containment and retries live in generate_dataset.
    simulations = simulator.iter_batch([build.program for _, build in chosen])
    for (index, build), simulation in zip(chosen, simulations):
        if isinstance(simulation, SimulationFailure):
            raise RuntimeError(
                f"simulation of candidate {index} ({simulation.program_name!r}) "
                f"failed ({simulation.kind}): {simulation.error}"
            )
        record = board.measure(build.program)
        samples.append(
            TrainingSample(
                group_id=group_id,
                flat_stats=simulation.flat_stats(),
                measured_time_s=record.median_s,
                implementation_id=f"{arch}_g{group_id}_i{index}",
            )
        )
    return samples


def generate_dataset(
    config: DatasetConfig,
    verbose: bool = False,
    retry: Optional[RetryPolicy] = None,
) -> PredictorDataset:
    """Generate the full dataset for one architecture (all groups).

    Groups are generated concurrently on ``config.n_parallel`` workers
    (``config.backend`` selects threads or processes) and assembled in group
    order, which keeps the dataset bit-identical to a serial run.

    A failing group does not take down the run: its error is recorded,
    every other group completes, failed groups are re-generated serially
    per ``retry`` (``None`` retries nothing), and a
    :class:`DatasetGenerationError` — carrying the per-group failure
    records *and* the partial dataset — is raised at the end if any group
    still failed.
    """
    trace_options = TraceOptions(max_accesses=config.trace_max_accesses)
    protocol = MeasurementProtocol(n_exe=config.n_exe, cooldown_s=config.cooldown_s)
    dataset = PredictorDataset(arch=config.arch, kernel_type=config.kernel_type)
    groups = list(config.group_parameters().items())
    workers = config.n_parallel if config.n_parallel > 0 else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(groups)))

    def _generate(item) -> List[TrainingSample]:
        group_id, params = item
        if verbose:
            print(f"[dataset] {config.arch}: generating group {group_id} ({params})")
        return generate_group_samples(
            config.arch,
            group_id,
            params,
            config.implementations_per_group,
            seed=config.seed,
            trace_options=trace_options,
            protocol=protocol,
        )

    # Contain per-group failures and keep generating the rest.
    per_group_opt: List[Optional[List[TrainingSample]]] = [None] * len(groups)
    failures: Dict[int, GroupFailure] = {}

    def _record(index: int, error, attempts: int = 1) -> None:
        message = (
            f"{type(error).__name__}: {error}"
            if isinstance(error, BaseException)
            else str(error)
        )
        failures[index] = GroupFailure(
            group_id=groups[index][0], error=message, attempts=attempts
        )

    if workers == 1 or len(groups) <= 1:
        for index, item in enumerate(groups):
            try:
                per_group_opt[index] = _generate(item)
            except Exception as error:  # noqa: BLE001 — containment boundary
                _record(index, error)
    elif config.backend == "processes":
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    generate_group_samples,
                    config.arch,
                    group_id,
                    params,
                    config.implementations_per_group,
                    config.seed,
                    trace_options,
                    protocol,
                )
                for group_id, params in groups
            ]
            for index, future in enumerate(futures):
                try:
                    per_group_opt[index] = future.result()
                except BrokenProcessPool:
                    # The dead worker poisons every uncollected future; each
                    # poisoned group gets its own record and a serial retry.
                    _record(index, "worker process died (broken process pool)")
                except Exception as error:  # noqa: BLE001 — containment boundary
                    _record(index, error)
    else:  # "threads"
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_generate, item) for item in groups]
            for index, future in enumerate(futures):
                try:
                    per_group_opt[index] = future.result()
                except Exception as error:  # noqa: BLE001 — containment boundary
                    _record(index, error)

    # Failed groups are re-generated serially (in the parent, away from any
    # broken pool), with deterministic backoff between attempts.
    policy = retry if retry is not None else RetryPolicy()
    for index in sorted(failures):
        attempts = failures[index].attempts
        while attempts < policy.max_attempts:
            time.sleep(policy.delay_s(attempts, key=f"group:{groups[index][0]}"))
            attempts += 1
            try:
                per_group_opt[index] = _generate(groups[index])
                del failures[index]
                break
            except Exception as error:  # noqa: BLE001 — containment boundary
                _record(index, error, attempts=attempts)

    for samples in per_group_opt:
        if samples is not None:
            dataset.extend(samples)
    if failures:
        raise DatasetGenerationError(
            [failures[index] for index in sorted(failures)], dataset
        )
    return dataset


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------


def _dataset_to_jsonable(dataset: PredictorDataset) -> dict:
    return {
        "arch": dataset.arch,
        "kernel_type": dataset.kernel_type,
        "samples": [
            {
                "group_id": sample.group_id,
                "flat_stats": sample.flat_stats,
                "measured_time_s": sample.measured_time_s,
                "implementation_id": sample.implementation_id,
            }
            for sample in dataset.samples
        ],
    }


def _dataset_from_jsonable(payload: dict) -> PredictorDataset:
    dataset = PredictorDataset(arch=payload["arch"], kernel_type=payload["kernel_type"])
    for entry in payload["samples"]:
        dataset.add(
            TrainingSample(
                group_id=int(entry["group_id"]),
                flat_stats={k: float(v) for k, v in entry["flat_stats"].items()},
                measured_time_s=float(entry["measured_time_s"]),
                implementation_id=entry.get("implementation_id", ""),
            )
        )
    return dataset


def load_or_generate_dataset(
    config: DatasetConfig,
    cache_dir: Optional[str | Path] = None,
    verbose: bool = False,
) -> PredictorDataset:
    """Load a cached dataset for ``config`` or generate (and cache) it."""
    if cache_dir is None:
        return generate_dataset(config, verbose=verbose)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_file = cache_dir / f"dataset_{config.arch}_{config.cache_key()}.json"
    if cache_file.exists():
        return _dataset_from_jsonable(load_json(cache_file))
    dataset = generate_dataset(config, verbose=verbose)
    dump_json(_dataset_to_jsonable(dataset), cache_file)
    return dataset
