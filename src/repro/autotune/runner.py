"""Runners: native execution and the paper's simulator interface.

``LocalRunner`` executes built implementations on a target board with the
full measurement protocol — this is what classic autotuning does and what the
training phase of the score predictor needs.

``SimulatorRunner`` is Contribution I of the paper (Listing 3): it executes
the implementations on ``n_parallel`` instruction-accurate simulator
instances and returns a *score* per implementation.  The function that maps a
finished simulation to a score is pluggable; during the execution phase it is
a trained score predictor, and it can also be overridden globally through the
function registry under the name ``"autotvm.simulator_run"``.
"""

from __future__ import annotations

import time
from dataclasses import replace as dataclasses_replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.autotune.measure import (
    BuildResult,
    MeasureErrorNo,
    MeasureInput,
    MeasureResult,
    Runner,
)
from repro.autotune.registry import get_func
from repro.hardware.board import TargetBoard
from repro.sim.cpu import TraceOptions
from repro.sim.runtime_config import RuntimeConfig
from repro.sim.simulator import SimulationFailure, SimulationResult, SimulatorPool

#: Union the resilient pool APIs hand back per candidate.
SimulationOutcome = Union[SimulationResult, SimulationFailure]

#: Signature of a score function: (simulation result, measure input) -> score.
ScoreFunction = Callable[[SimulationResult, MeasureInput], float]

#: How simulation failure kinds map onto measurement error codes.
_FAILURE_ERROR_NO = {
    SimulationFailure.TIMEOUT: MeasureErrorNo.RUN_TIMEOUT,
    SimulationFailure.CRASH: MeasureErrorNo.WORKER_CRASH,
    SimulationFailure.ERROR: MeasureErrorNo.RUNTIME_ERROR,
}


def _failure_result(failure: SimulationFailure) -> MeasureResult:
    """Convert one pool failure record into a structured measurement error."""
    return MeasureResult(
        costs=[],
        error_no=_FAILURE_ERROR_NO.get(failure.kind, MeasureErrorNo.RUNTIME_ERROR),
        error_msg=f"{failure.kind} after {failure.attempts} attempt(s): {failure.error}",
        all_cost=failure.host_seconds,
    )


#: Callback invoked per candidate as its measurement settles (streaming
#: consumption): ``(position, measure_input, measure_result)``.
ResultCallback = Callable[[int, MeasureInput, MeasureResult], None]


class LocalRunner(Runner):
    """Runs implementations natively on a target board (sequentially).

    Native runs are never parallelised: the paper notes that concurrent
    workloads on the device would disturb the measurements.
    """

    def __init__(self, board: TargetBoard):
        super().__init__(n_parallel=1)
        self.board = board

    def run(
        self,
        measure_inputs: Sequence[MeasureInput],
        build_results: Sequence[BuildResult],
    ) -> List[MeasureResult]:
        results: List[MeasureResult] = []
        for build in build_results:
            start = time.perf_counter()
            if not build.ok:
                results.append(
                    MeasureResult(
                        costs=[],
                        error_no=build.error_no,
                        error_msg=build.error_msg,
                        all_cost=time.perf_counter() - start,
                    )
                )
                continue
            record = self.board.measure(build.program)
            results.append(
                MeasureResult(
                    costs=list(record.times_s),
                    all_cost=record.benchmarking_seconds,
                    extra={"t_ref": record.median_s, "t_std": record.std_s},
                )
            )
        return results


class SimulatorRunner(Runner):
    """Custom runner executing autotuning workloads on simulators (Listing 3).

    Identical candidates — which GA populations and model-based tuners
    produce in numbers — are deduplicated by
    :meth:`~repro.codegen.program.Program.content_digest` *before* any
    simulation (within one runner every other memoization-key component is
    fixed, so digest-level dedupe coincides exactly with memo-key dedupe),
    the surviving unique programs go to the runner's
    :class:`~repro.sim.simulator.SimulatorPool` as one batch (one
    :class:`~repro.sim.simulator.BatchSimulator` per slice), and each unique
    result is fanned back out to all duplicate positions as an independent
    copy.  Results stream back
    per candidate (``on_result``) so a tuner's ``update()`` can consume
    them incrementally; callbacks fire strictly in input order as the
    settled prefix grows, because stateful score functions (the
    predictor's window estimators) are order-sensitive.  Scores,
    statistics, error mapping and retry accounting are bit-identical to
    one :meth:`~repro.sim.simulator.Simulator.run` per candidate, scored
    in input order.

    Engine, memoization, the per-candidate budget and retries come from
    ``config`` (default ``RuntimeConfig()``).
    """

    def __init__(
        self,
        arch: str,
        n_parallel: int = 16,
        trace_options: TraceOptions = TraceOptions(),
        score_function: Optional[ScoreFunction] = None,
        backend: str = "serial",
        collect_results: bool = True,
        on_result: Optional[ResultCallback] = None,
        config: Optional[RuntimeConfig] = None,
    ):
        super().__init__(n_parallel=n_parallel)
        self.arch = arch
        self.trace_options = trace_options
        self.score_function = score_function
        self.config = config if config is not None else RuntimeConfig()
        self.pool = SimulatorPool(
            arch=arch,
            n_parallel=n_parallel,
            trace_options=trace_options,
            backend=backend,
            config=self.config,
        )
        self.collect_results = collect_results
        #: Streaming hook: called as each candidate's measurement settles.
        self.on_result = on_result
        #: Simulation results of every successful run, in measurement order.
        self.simulation_results: List[SimulationResult] = []
        #: Candidates inspected by / absorbed into batch-level deduplication.
        self.dedupe_lookups = 0
        self.dedupe_hits = 0

    # -- the simulator interface -------------------------------------------
    def simulator_run(self, programs) -> List[SimulationOutcome]:
        """Execute the built programs on the simulator pool.

        This is the override point of the paper's interface: registering a
        function under ``"autotvm.simulator_run"`` replaces the built-in pool
        (for instance to drive an external simulator); the override receives
        the *deduplicated* program list.  The built-in pool runs through the
        resilient API, so individual entries may be
        :class:`~repro.sim.simulator.SimulationFailure` records (hung,
        crashed or erroring candidates) instead of results; an external
        override may return plain results only.
        """
        return list(self._iter_simulator_run(programs))

    def _iter_simulator_run(self, programs) -> Iterator[SimulationOutcome]:
        """Stream pool outcomes in input order as candidates complete."""
        external = get_func("autotvm.simulator_run")
        if external is not None:
            yield from external(programs, self.arch, self.n_parallel)
        else:
            yield from self.pool.iter_batch_resilient(programs)

    def default_score(self, result: SimulationResult, measure_input: MeasureInput) -> float:
        """Fallback score when no predictor is attached: total executed instructions.

        Instruction count alone is a weak but monotone-ish proxy; the paper's
        predictors (Contribution II) replace it with a learned score.
        """
        return float(result.stats.get("cpu.num_insts"))

    def run(
        self,
        measure_inputs: Sequence[MeasureInput],
        build_results: Sequence[BuildResult],
    ) -> List[MeasureResult]:
        start = time.perf_counter()
        indexed_programs = [
            (position, build.program)
            for position, build in enumerate(build_results)
            if build.ok
        ]
        # Deduplicate before any simulation: one simulation per distinct
        # program content, fanned back out to every duplicate position.
        unique_programs: List = []
        positions_by_unique: List[List[int]] = []
        unique_by_digest: Dict[str, int] = {}
        for position, program in indexed_programs:
            digest = program.content_digest()
            u = unique_by_digest.get(digest)
            if u is None:
                u = unique_by_digest[digest] = len(unique_programs)
                unique_programs.append(program)
                positions_by_unique.append([])
            positions_by_unique[u].append(position)
        self.dedupe_lookups += len(indexed_programs)
        self.dedupe_hits += len(indexed_programs) - len(unique_programs)

        n = len(build_results)
        results: List[Optional[MeasureResult]] = [None] * n
        simulations: List[Optional[SimulationResult]] = [None] * n
        pending: List[Optional[SimulationOutcome]] = [None] * n
        settled = [False] * n
        emitted = 0
        elapsed_budget = time.perf_counter() - start

        def drain() -> None:
            # Score and emit the settled prefix strictly in input order.
            # Scoring must not follow settle order: stateful score functions
            # (the predictor's window estimators) are order-sensitive, and
            # duplicate positions settle out of order under dedupe fan-out.
            # Position-ordered scoring keeps the batched trajectory
            # bit-identical to scoring one simulation per candidate.
            nonlocal emitted
            while emitted < n and settled[emitted]:
                position = emitted
                outcome = pending[position]
                if isinstance(outcome, SimulationFailure):
                    results[position] = _failure_result(outcome)
                elif outcome is not None:
                    simulations[position] = outcome
                    results[position] = self._score_result(
                        outcome, measure_inputs[position]
                    )
                # else: build failure, results[position] is already set.
                self._emit(position, measure_inputs[position], results[position])
                emitted += 1

        for position, build in enumerate(build_results):
            if not build.ok:
                results[position] = MeasureResult(
                    costs=[],
                    error_no=build.error_no,
                    error_msg=build.error_msg,
                    all_cost=elapsed_budget / max(n, 1),
                )
                settled[position] = True
        drain()

        # Consume outcomes as they stream back: each unique result settles
        # all of its duplicate positions immediately, so incremental
        # consumers never wait on the tail of the generation.
        for u, outcome in enumerate(self._iter_simulator_run(unique_programs)):
            for copy_index, position in enumerate(positions_by_unique[u]):
                if copy_index > 0 and not isinstance(outcome, SimulationFailure):
                    # Fan-out copies are independent objects: downstream
                    # consumers rewrite e.g. sim.host_seconds in place.
                    pending[position] = dataclasses_replace(
                        outcome, stats=outcome.stats.copy(), cached=True
                    )
                else:
                    pending[position] = outcome
                settled[position] = True
            drain()

        if self.collect_results:
            self.simulation_results.extend(
                simulation for simulation in simulations if simulation is not None
            )
        return [result for result in results if result is not None]

    def _score_result(
        self, simulation: SimulationResult, measure_input: MeasureInput
    ) -> MeasureResult:
        score_fn = self.score_function or self.default_score
        try:
            score = float(score_fn(simulation, measure_input))
        except Exception as error:
            return MeasureResult(
                costs=[],
                error_no=MeasureErrorNo.RUNTIME_ERROR,
                error_msg=f"score function failed: {error}",
                all_cost=simulation.host_seconds,
            )
        return MeasureResult(
            costs=[score],
            all_cost=simulation.host_seconds,
            extra={
                "sim_host_seconds": simulation.host_seconds,
                "sim_instructions": simulation.stats.get("cpu.num_insts"),
            },
        )

    def _emit(
        self, position: int, measure_input: MeasureInput, result: MeasureResult
    ) -> None:
        if self.on_result is not None:
            self.on_result(position, measure_input, result)


class RunnerStatsCollector(Runner):
    """Training-phase runner: measures natively *and* simulates (Figure 4-I).

    Every successful measurement produces a paired record (simulator
    statistics, native measurement) which is exactly the training data the
    score predictors need.  The simulation half runs the plan of ``config``
    (default ``RuntimeConfig()``).
    """

    def __init__(
        self,
        board: TargetBoard,
        arch: Optional[str] = None,
        trace_options: TraceOptions = TraceOptions(),
        n_parallel: int = 1,
        backend: str = "serial",
        config: Optional[RuntimeConfig] = None,
    ):
        super().__init__(n_parallel=n_parallel)
        self.board = board
        self.arch = arch or board.arch
        self.config = config if config is not None else RuntimeConfig()
        self.pool = SimulatorPool(
            arch=self.arch,
            n_parallel=n_parallel,
            trace_options=trace_options,
            backend=backend,
            config=self.config,
        )
        #: Paired training records: (measure input, simulation result, measurement record).
        self.records: List[tuple] = []

    def run(
        self,
        measure_inputs: Sequence[MeasureInput],
        build_results: Sequence[BuildResult],
    ) -> List[MeasureResult]:
        results: List[MeasureResult] = []
        ok_programs = [build.program for build in build_results if build.ok]
        # The pool streams simulations back while this loop is still
        # measuring earlier candidates on the board, so the two halves of a
        # training pair overlap instead of serialising per candidate.
        simulations = self.pool.iter_batch_resilient(ok_programs)
        for measure_input, build in zip(measure_inputs, build_results):
            if not build.ok:
                results.append(
                    MeasureResult(costs=[], error_no=build.error_no, error_msg=build.error_msg)
                )
                continue
            simulation = next(simulations)
            if isinstance(simulation, SimulationFailure):
                # No paired training record without a simulation half.
                results.append(_failure_result(simulation))
                continue
            record = self.board.measure(build.program)
            self.records.append((measure_input, simulation, record))
            results.append(
                MeasureResult(
                    costs=list(record.times_s),
                    all_cost=record.benchmarking_seconds + simulation.host_seconds,
                    extra={"t_ref": record.median_s},
                )
            )
        return results
