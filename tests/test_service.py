"""Service-layer tests: result store, runtime config, facade, HTTP service.

Covers the simulation-as-a-service stack end to end against real simulation
paths: :class:`~repro.service.ResultStore` CRUD/eviction/migration, the
:class:`~repro.sim.RuntimeConfig` contract (``from_env()`` is the one reader
of the simulation variables and ``RuntimeConfig()`` never reads them),
``Simulator``'s config API, the ``repro.simulate`` facade, and the HTTP
service itself — request coalescing on duplicate digests, auth/quota
enforcement, worker-crash containment parity with ``iter_batch_resilient``, and
client-vs-local bit-identity (``sim.host_seconds``, a wall-clock observable,
is excluded from every comparison, as everywhere else in the suite).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import sqlite3
import threading
import time
import warnings
from pathlib import Path

import pytest

import repro
import repro.workloads  # noqa: F401 — registers the schedule templates
from repro.autotune import (
    LocalBuilder,
    LocalRunner,
    MeasureInput,
    RunnerStatsCollector,
    SimulatorRunner,
    create_task,
)
from repro.codegen import Target
from repro.hardware import TargetBoard
from repro.pipeline.dataset import DatasetConfig, generate_dataset
from repro.reliability import RetryPolicy, faults
from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SimulationService,
    Tenant,
    hierarchy_from_dict,
)
from repro.sim import (
    CACHE_HIERARCHIES,
    AtomicSimpleCPU,
    RuntimeConfig,
    SimulationCache,
    SimulationFailure,
    SimulationResult,
    Simulator,
    SimulatorPool,
    TraceOptions,
    _native,
    arena_batching_available,
    cache_hierarchy_for,
    hierarchy_with_replacement,
    run_data_trace,
)
from repro.sim.memo import CACHE_SCHEMA_VERSION
from repro.sim.runtime_config import ENV_SURFACE

TRACE = TraceOptions(max_accesses=15_000)

#: A fully set simulation environment, every value off its default.
FULL_ENV = {
    "REPRO_SIM_ENGINE": "reference",
    "REPRO_SIM_REPLACEMENT": "fifo",
    "REPRO_RETRY_ATTEMPTS": "3",
    "REPRO_RETRY_BASE_DELAY_S": "0.01",
    "REPRO_RETRY_MAX_DELAY_S": "0.5",
    "REPRO_RETRY_SEED": "9",
}

#: The memo key of matmul (8, 8, 8) config 0 on the Table I arm hierarchy
#: under ``TRACE`` and the vectorized engine.  Persisted ``ResultStore``
#: rows are addressed by such keys, so its bytes must never drift.
MATMUL_ARM_KEY = "fdeb9f180f73787251bef4c49cb15a6bc9725a3cdb08b3c795e103ed219d67a7"

#: The only modules under ``src/repro`` that may read the environment: the
#: CLI entry points, the config reader, the native-kernel loader and the
#: reliability knobs.
ENV_READERS = {
    "cli.py",
    "sim/runtime_config.py",
    "sim/_native.py",
    "reliability/faults.py",
    "reliability/retry.py",
}


@pytest.fixture(autouse=True)
def _fault_free():
    """Shield every test from ambient ``REPRO_FAULT_INJECT`` (CI chaos legs)."""
    faults.configure("")
    yield
    faults.reset()


@pytest.fixture(scope="module")
def matmul_task():
    return create_task("matmul", (8, 8, 8), Target.arm())


@pytest.fixture(scope="module")
def programs(matmul_task):
    inputs = [
        MeasureInput(matmul_task, matmul_task.config_space.get(i)) for i in (0, 1, 2, 3)
    ]
    builds = LocalBuilder().build(inputs)
    assert all(build.ok for build in builds)
    return [build.program for build in builds]


@pytest.fixture(scope="module")
def big_task():
    return create_task("matmul", (16, 16, 16), Target.arm())


@pytest.fixture(scope="module")
def big_programs(big_task):
    inputs = [MeasureInput(big_task, big_task.config_space.get(i)) for i in (0, 1)]
    builds = LocalBuilder().build(inputs)
    assert all(build.ok for build in builds)
    return [build.program for build in builds]


def _memo_envelope(stats, schema=CACHE_SCHEMA_VERSION):
    """One flat-file memo entry as older releases wrote it: a schema tag, the
    sha256 of the canonical stats JSON and the float-normalised stats."""
    normalised = {str(k): float(v) for k, v in stats.items()}
    canonical = json.dumps(normalised, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return json.dumps({"schema": schema, "sha256": checksum, "stats": normalised})


#: Statistics of the flat-file memo entries the migration tests write.
MEMO_PAYLOAD = {"cpu.num_insts": 5.0, "l2.miss_rate": 0.5}


def _with_fields(envelope_text, **fields):
    """``envelope_text`` with top-level fields replaced; ``...`` drops one."""
    envelope = json.loads(envelope_text)
    for name, value in fields.items():
        if value is Ellipsis:
            del envelope[name]
        else:
            envelope[name] = value
    return json.dumps(envelope)


#: Ways a flat-file memo entry can be damaged, as edits of a valid envelope:
#: torn writes, bit-rot behind the checksum, other schema versions, wrong
#: shapes.  None of them may be imported.
DAMAGED_ENTRIES = {
    "truncated": lambda good: good[: len(good) // 2],
    "garbage": lambda good: "garbage{",
    "empty": lambda good: "",
    "json-array": lambda good: json.dumps([json.loads(good)]),
    "older-schema": lambda good: _memo_envelope(MEMO_PAYLOAD, CACHE_SCHEMA_VERSION - 1),
    "newer-schema": lambda good: _memo_envelope(MEMO_PAYLOAD, CACHE_SCHEMA_VERSION + 1),
    "checksum-mismatch": lambda good: _with_fields(
        good, stats={**MEMO_PAYLOAD, "cpu.num_insts": 6.0}
    ),
    "no-checksum": lambda good: _with_fields(good, sha256=...),
    "no-stats": lambda good: _with_fields(good, stats=...),
    "stats-not-object": lambda good: _with_fields(good, stats=list(MEMO_PAYLOAD.values())),
    "non-numeric-stat": lambda good: _with_fields(good, stats={"cpu.num_insts": "fast"}),
    "null-stat": lambda good: _with_fields(good, stats={"cpu.num_insts": None}),
}


def flat(result):
    """Statistics of one simulation, minus the wall-clock observable."""
    stats = dict(result.stats.as_dict())
    stats.pop("sim.host_seconds", None)
    return stats


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_roundtrip(self):
        store = ResultStore(":memory:")
        payload = {"cpu.num_insts": 128.0, "l1d.miss_rate": 0.25}
        store.put("digest-a", payload)
        assert len(store) == 1
        assert "digest-a" in store
        assert store.get("digest-a") == payload
        assert store.get("unknown") is None
        counters = store.counters()
        assert counters["hits"] == 1.0
        assert counters["misses"] == 1.0
        assert counters["hit_rate"] == 0.5
        store.close()

    def test_put_is_idempotent(self):
        store = ResultStore(":memory:")
        store.put("digest-a", {"cpu.num_insts": 1.0})
        store.put("digest-a", {"cpu.num_insts": 1.0})
        assert len(store) == 1
        store.close()

    def test_lru_eviction_bounds_entries(self):
        store = ResultStore(":memory:", max_entries=2)
        for digest in ("a", "b", "c"):
            store.put(digest, {"cpu.num_insts": 1.0})
            time.sleep(0.01)  # keep last_used strictly ordered
        assert len(store) == 2
        assert "a" not in store  # the least recently used row went first
        assert "b" in store and "c" in store
        assert store.evictions == 1
        store.close()

    def test_age_eviction(self):
        store = ResultStore(":memory:", max_age_s=0.05)
        store.put("old", {"cpu.num_insts": 1.0})
        time.sleep(0.12)
        store.put("new", {"cpu.num_insts": 2.0})
        assert "old" not in store
        assert "new" in store
        assert store.evictions >= 1
        store.close()

    def test_persists_across_instances(self, tmp_path):
        db = tmp_path / "results.db"
        first = ResultStore(db)
        first.put("digest-a", {"cpu.num_insts": 7.0})
        first.close()
        second = ResultStore(db)
        assert second.get("digest-a") == {"cpu.num_insts": 7.0}
        second.close()

    def test_memo_schema_bump_drops_rows(self, tmp_path):
        db = tmp_path / "results.db"
        store = ResultStore(db)
        store.put("digest-a", {"cpu.num_insts": 1.0})
        store.close()
        conn = sqlite3.connect(db)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'memo_schema'")
        conn.commit()
        conn.close()
        reopened = ResultStore(db)
        assert len(reopened) == 0  # content-addressed recomputables: dropped
        assert reopened.get("digest-a") is None
        reopened.close()

    def test_corrupted_row_is_a_miss_and_deleted(self):
        store = ResultStore(":memory:")
        store.put("digest-a", {"cpu.num_insts": 1.0})
        store._conn.execute(
            "UPDATE results SET stats = ? WHERE digest = ?",
            (json.dumps({"cpu.num_insts": 999.0}), "digest-a"),
        )
        store._conn.commit()
        assert store.get("digest-a") is None  # checksum mismatch
        assert "digest-a" not in store
        store.close()

    def test_import_disk_cache_envelopes(self, tmp_path):
        legacy_dir = tmp_path / "memo"
        legacy_dir.mkdir()
        payload = {"cpu.num_insts": 5.0, "l2.miss_rate": 0.5}
        (legacy_dir / "aaa.json").write_text(_memo_envelope(payload), encoding="utf-8")
        (legacy_dir / "bad.json").write_text("garbage{", encoding="utf-8")
        (legacy_dir / "stale.json").write_text(
            _memo_envelope(payload, schema=CACHE_SCHEMA_VERSION - 1), encoding="utf-8"
        )
        rotted = json.loads(_memo_envelope(payload))
        rotted["stats"]["cpu.num_insts"] += 1.0  # bit-rot behind the checksum
        (legacy_dir / "rotted.json").write_text(json.dumps(rotted), encoding="utf-8")
        store = ResultStore(":memory:")
        assert store.import_disk_cache(legacy_dir) == 1
        assert store.get("aaa") == payload
        assert len(store) == 1
        store.close()

    def test_import_skips_unversioned_entries(self, tmp_path):
        """A pre-envelope flat entry carries no schema tag: its statistics
        may come from an older simulator, so it must not be imported under
        a digest that looks current."""
        legacy_dir = tmp_path / "memo"
        legacy_dir.mkdir()
        (legacy_dir / "legacy.json").write_text(
            json.dumps({"cpu.num_insts": 1.0}), encoding="utf-8"
        )
        store = ResultStore(":memory:")
        assert store.import_disk_cache(legacy_dir) == 0
        assert "legacy" not in store
        store.close()

    @pytest.mark.parametrize("damage", list(DAMAGED_ENTRIES))
    def test_import_skips_damaged_entry(self, tmp_path, damage):
        """A damaged entry is skipped without stopping the migration, and the
        migration only reads: the damaged bytes stay for a post-mortem."""
        legacy_dir = tmp_path / "memo"
        legacy_dir.mkdir()
        good = _memo_envelope(MEMO_PAYLOAD)
        damaged = DAMAGED_ENTRIES[damage](good)
        (legacy_dir / "damaged.json").write_text(damaged, encoding="utf-8")
        (legacy_dir / "good.json").write_text(good, encoding="utf-8")
        store = ResultStore(":memory:")
        assert store.import_disk_cache(legacy_dir) == 1
        assert store.get("good") == MEMO_PAYLOAD
        assert "damaged" not in store
        assert (legacy_dir / "damaged.json").read_text(encoding="utf-8") == damaged
        store.close()

    def test_import_reads_only_entry_files(self, tmp_path):
        """Older releases left write scratch (``.<digest>.<pid>.tmp``) and
        quarantined entries (``<digest>.json.quarantine``) beside their
        entries; neither is an entry, whatever it holds."""
        legacy_dir = tmp_path / "memo"
        legacy_dir.mkdir()
        good = _memo_envelope(MEMO_PAYLOAD)
        (legacy_dir / ".scratch.123.tmp").write_text(good, encoding="utf-8")
        (legacy_dir / "quarantined.json.quarantine").write_text(good, encoding="utf-8")
        store = ResultStore(":memory:")
        assert store.import_disk_cache(legacy_dir) == 0
        assert len(store) == 0
        store.close()

    def test_import_real_memo_dir_roundtrip(self, tmp_path, programs):
        """Migration path: a flat-file memo entry of a real simulation."""
        legacy_dir = tmp_path / "memo"
        legacy_dir.mkdir()
        simulator = Simulator("arm", trace_options=TRACE, config=RuntimeConfig(memoize=False))
        result = simulator.run(programs[0])
        (legacy_dir / f"{result.sim_digest}.json").write_text(
            _memo_envelope(result.flat_stats()), encoding="utf-8"
        )
        store = ResultStore(":memory:")
        assert store.import_disk_cache(legacy_dir) == 1
        assert store.get(result.sim_digest) == dict(result.stats.as_dict())
        store.close()

    def test_cache_store_backend_roundtrip(self, programs):
        """A second cache over the same store serves the first one's results."""
        store = ResultStore(":memory:")
        first = Simulator(
            "arm", trace_options=TRACE, memo_cache=SimulationCache(store=store)
        )
        computed = first.run(programs[0])
        assert not computed.cached
        second = Simulator(
            "arm", trace_options=TRACE, memo_cache=SimulationCache(store=store)
        )
        served = second.run(programs[0])
        assert served.cached  # cold memory LRU: the hit came from the store
        assert flat(served) == flat(computed)
        assert store.hits >= 1
        store.close()

    def test_degraded_store_never_breaks_a_run(self, programs):
        class _BrokenStore:
            def get(self, key):
                raise RuntimeError("store down")

            def put(self, key, payload):
                raise RuntimeError("store down")

        cache = SimulationCache(store=_BrokenStore())
        result = Simulator("arm", trace_options=TRACE, memo_cache=cache).run(programs[0])
        assert isinstance(result, SimulationResult)


# ---------------------------------------------------------------------------
# RuntimeConfig
# ---------------------------------------------------------------------------


ENV_CASES = [
    {},
    {"REPRO_SIM_ENGINE": "reference"},
    {"REPRO_SIM_REPLACEMENT": "fifo"},
    {
        "REPRO_RETRY_ATTEMPTS": "3",
        "REPRO_RETRY_BASE_DELAY_S": "0.01",
        "REPRO_RETRY_MAX_DELAY_S": "0.5",
        "REPRO_RETRY_SEED": "9",
    },
]


class TestRuntimeConfig:
    @pytest.mark.parametrize("env", ENV_CASES, ids=lambda env: ",".join(env) or "clean")
    def test_from_env_matches_legacy_semantics(self, env):
        """Each variable keeps the meaning it had before the config existed."""
        config = RuntimeConfig.from_env(env)
        assert config.engine == env.get("REPRO_SIM_ENGINE", "vectorized")
        assert config.replacement == env.get("REPRO_SIM_REPLACEMENT")
        assert config.retry == RetryPolicy.from_env(env)
        assert (config.memoize, config.timeout_s) == (True, 0.0)
        simulator = Simulator("arm", config=config)
        assert simulator.engine == config.engine
        replacement = env.get("REPRO_SIM_REPLACEMENT")
        assert simulator.hierarchy_config == (
            hierarchy_with_replacement("arm", replacement)
            if replacement
            else CACHE_HIERARCHIES["arm"]
        )

    def test_default_config_ignores_the_environment(self, monkeypatch):
        """``RuntimeConfig()`` is the default plan whatever is exported."""
        for name, value in FULL_ENV.items():
            monkeypatch.setenv(name, value)
        assert RuntimeConfig() == RuntimeConfig.from_env({})
        assert RuntimeConfig.from_env() == RuntimeConfig.from_env(FULL_ENV) != RuntimeConfig()
        simulator = Simulator("arm")
        assert simulator.engine == "vectorized"
        assert simulator.hierarchy_config == CACHE_HIERARCHIES["arm"]
        assert simulator.config.retry == RetryPolicy()

    def test_from_env_pins_against_later_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        monkeypatch.setenv("REPRO_SIM_REPLACEMENT", "fifo")
        config = RuntimeConfig.from_env()
        monkeypatch.setenv("REPRO_SIM_ENGINE", "vectorized")
        monkeypatch.delenv("REPRO_SIM_REPLACEMENT")
        simulator = Simulator("arm", config=config)
        assert simulator.engine == "reference"
        assert simulator.hierarchy_config == hierarchy_with_replacement("arm", "fifo")

    @pytest.mark.parametrize(
        "fields,error",
        [
            ({"engine": "warp-drive"}, "unknown simulation engine"),
            ({"engine": None}, "unknown simulation engine"),
            ({"replacement": "mru"}, "unknown replacement policy"),
            ({"timeout_s": -1.0}, "timeout_s"),
        ],
    )
    def test_construction_rejects_nonsense(self, fields, error):
        with pytest.raises(ValueError, match=error):
            RuntimeConfig(**fields)

    def test_retry_must_be_a_policy(self):
        with pytest.raises(TypeError, match="RetryPolicy"):
            RuntimeConfig(retry=None)

    def test_describe_covers_the_documented_surface(self):
        rows = RuntimeConfig.from_env(FULL_ENV).describe()
        assert [row[0] for row in rows] == [name for name, _, _ in ENV_SURFACE]
        assert all(len(row) == 3 and all(row) for row in rows)
        values = {name: value for name, _, value in rows}
        assert (values["engine"], values["replacement"]) == ("reference", "fifo")
        # The process-wide native switch is the loader's state, not a field.
        assert values["native"] == ("on" if arena_batching_available() else "off")

    def test_memo_key_bytes_are_unchanged(self, programs):
        """Persisted store rows stay addressable."""
        key = SimulationCache.make_key(programs[0], CACHE_HIERARCHIES["arm"], TRACE, "vectorized")
        assert key == MATMUL_ARM_KEY
        result = Simulator(
            "arm", trace_options=TRACE, config=RuntimeConfig(memoize=False)
        ).run(programs[0])
        assert result.sim_digest == MATMUL_ARM_KEY

    def test_dataset_ignores_an_exported_replacement(self, monkeypatch):
        """Dataset statistics pair with the board's Table I times: an exported
        ``REPRO_SIM_REPLACEMENT`` must not reach the simulator behind a
        dataset key that leaves it out."""
        config = DatasetConfig(
            "x86",
            implementations_per_group=2,
            groups=(0,),
            n_parallel=1,
            trace_max_accesses=20_000,
        )

        def pairs(dataset):
            return [
                ({k: v for k, v in s.flat_stats.items() if k != "sim.host_seconds"},
                 s.measured_time_s)
                for s in dataset.samples
            ]

        monkeypatch.delenv("REPRO_SIM_REPLACEMENT", raising=False)
        clean = pairs(generate_dataset(config))
        monkeypatch.setenv("REPRO_SIM_REPLACEMENT", "fifo")
        assert len(clean) == 2
        assert pairs(generate_dataset(config)) == clean

    def test_only_the_entry_points_read_the_environment(self):
        root = Path(repro.__file__).parent
        readers = {
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if re.search(r"os\.environ|getenv", path.read_text(encoding="utf-8"))
        }
        assert readers <= ENV_READERS, sorted(readers - ENV_READERS)


# ---------------------------------------------------------------------------
# Simulator config API and the repro.simulate facade
# ---------------------------------------------------------------------------


#: Simulator and RuntimeConfig settings that no longer exist: each must fail
#: loudly instead of being accepted and ignored.  The trace-walk calls are
#: rejected while binding their arguments, before any of them is used.
REMOVED_SETTINGS = {
    "RuntimeConfig-native": lambda: RuntimeConfig(native=False),
    "RuntimeConfig-arena": lambda: RuntimeConfig(arena=False),
    "RuntimeConfig-trace": lambda: RuntimeConfig(trace="expanded"),
    "run_data_trace-trace": lambda: run_data_trace(
        cache_hierarchy_for("arm"), None, TRACE, "expanded"
    ),
    "AtomicSimpleCPU.run-trace": lambda: AtomicSimpleCPU(cache_hierarchy_for("arm")).run(
        None, TRACE, "expanded"
    ),
    "RuntimeConfig-replace-unknown": lambda: dataclasses.replace(
        RuntimeConfig(), enginee="reference"
    ),
    "Simulator-engine": lambda: Simulator("arm", engine="reference"),
    "Simulator-memoize": lambda: Simulator("arm", memoize=False),
    "Simulator-positional-engine": lambda: Simulator("arm", None, TRACE, "reference"),
    "LocalRunner-timeout_s": lambda: LocalRunner(TargetBoard("arm"), timeout_s=1.0),
    "TraceOptions-engine": lambda: TraceOptions(engine="reference"),
    "TraceOptions-trace": lambda: TraceOptions(trace="expanded"),
    "DatasetConfig-engine": lambda: DatasetConfig("x86", engine="reference"),
    "SimulatorPool-memoize": lambda: SimulatorPool("arm", memoize=False),
    "SimulatorRunner-engine": lambda: SimulatorRunner("arm", engine="reference"),
    "RunnerStatsCollector-timeout_s": lambda: RunnerStatsCollector(
        TargetBoard("arm"), timeout_s=1.0
    ),
}


class TestSimulatorConfigAPI:
    @pytest.mark.parametrize("setting", list(REMOVED_SETTINGS))
    def test_removed_settings_are_rejected(self, setting):
        with pytest.raises(TypeError):
            REMOVED_SETTINGS[setting]()

    def test_config_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulator = Simulator(
                "arm",
                trace_options=TRACE,
                config=RuntimeConfig(engine="reference", memoize=False),
            )
        assert simulator.engine == "reference"
        assert simulator.memoize is False

    def test_pool_threads_config_through(self, programs):
        """Engines are bit-identical, so a config-selected reference pool
        must reproduce the default pool's statistics exactly."""
        default = SimulatorPool("arm", trace_options=TRACE).run_many(programs)
        configured = SimulatorPool(
            "arm", trace_options=TRACE, config=RuntimeConfig(engine="reference")
        ).run_many(programs)
        assert [flat(r) for r in configured] == [flat(r) for r in default]


class TestFacade:
    def test_simulate_matches_local_simulator(self, programs):
        facade = repro.simulate(programs[0], "arm", trace_options=TRACE)
        local = Simulator("arm", trace_options=TRACE).run(programs[0])
        assert isinstance(facade, SimulationResult)
        assert facade.arch == local.arch == "arm"
        assert flat(facade) == flat(local)

    def test_simulate_batch_preserves_order(self, programs):
        outcomes = repro.simulate_batch(programs, "arm", trace_options=TRACE)
        assert [o.program_name for o in outcomes] == [p.name for p in programs]
        singles = [repro.simulate(p, "arm", trace_options=TRACE) for p in programs]
        assert [flat(o) for o in outcomes] == [flat(s) for s in singles]

    def test_simulate_defaults_to_program_target(self, programs):
        result = repro.simulate(programs[0], trace_options=TRACE)
        assert isinstance(result, SimulationResult)
        assert result.arch == "arm"  # the program's own target

    def test_simulate_contains_failures(self, big_programs):
        """The facade never raises for a failed simulation."""
        faults.configure("worker_crash:n=1", seed=7)
        outcome = repro.simulate(
            big_programs[0],
            "arm",
            trace_options=TRACE,
            config=RuntimeConfig(memoize=False, retry=RetryPolicy(max_attempts=1)),
        )
        assert isinstance(outcome, SimulationFailure)
        assert outcome.kind == SimulationFailure.CRASH


# ---------------------------------------------------------------------------
# HTTP service
# ---------------------------------------------------------------------------


def _service(arch="arm", store=None, tenants=None, config=None):
    """One running service on an ephemeral port; caller stops the server."""
    store = store if store is not None else ResultStore(":memory:")
    service = SimulationService(arch, store, config=config, tenants=tenants)
    server = ServiceServer(service, port=0).start_in_thread()
    return server, service, store


class TestServiceHTTP:
    def test_roundtrip_is_bit_identical_to_local(self, programs):
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            assert client.healthy()
            remote = client.simulate(programs[0])
            assert isinstance(remote, SimulationResult)
            assert not remote.cached
            local = Simulator("arm").run(programs[0])
            assert flat(remote) == flat(local)
            assert remote.sim_digest == SimulationCache.make_key(
                programs[0],
                service.simulator.hierarchy_config,
                service.simulator.trace_options,
                service.simulator.engine,
            )
            again = client.simulate(programs[0])
            assert again.cached
            assert flat(again) == flat(remote)
        finally:
            server.stop()
            store.close()

    def test_results_endpoint(self, programs):
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            first = client.simulate(programs[0])
            fetched = client.result(first.sim_digest)
            assert fetched is not None
            assert flat(fetched) == flat(first)
            assert client.result("0" * 64) is None  # 404 → None
        finally:
            server.stop()
            store.close()

    def test_wait_false_queues_and_worker_drains(self, programs):
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            queued = client.simulate(programs[1], wait=False)
            assert isinstance(queued, SimulationFailure)  # "queued" placeholder
            assert queued.kind == SimulationFailure.TIMEOUT
            digest = SimulationCache.make_key(
                programs[1],
                service.simulator.hierarchy_config,
                service.simulator.trace_options,
                service.simulator.engine,
            )
            deadline = time.time() + 30.0
            result = None
            while result is None and time.time() < deadline:
                result = client.result(digest)
                if result is None:
                    time.sleep(0.05)
            assert result is not None
            assert flat(result) == flat(Simulator("arm").run(programs[1]))
        finally:
            server.stop()
            store.close()

    def test_duplicate_digests_coalesce_onto_one_computation(self, programs):
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            n_clients = 4
            barrier = threading.Barrier(n_clients)
            outcomes = [None] * n_clients

            def post(slot):
                barrier.wait()
                outcomes[slot] = client.simulate(programs[2])

            threads = [
                threading.Thread(target=post, args=(slot,)) for slot in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert all(isinstance(o, SimulationResult) for o in outcomes)
            assert len({json.dumps(flat(o), sort_keys=True) for o in outcomes}) == 1
            # One digest, one computation: the leader simulated, everyone
            # else was coalesced in flight or served from the fresh cache.
            assert service.computed == 1
            assert service.served_cached == n_clients - 1
            assert service.worker.jobs == 1
        finally:
            server.stop()
            store.close()

    def test_auth_and_quota_enforcement(self, programs):
        tenants = {
            "secret-key": Tenant(name="alice", api_key="secret-key", quota=2),
        }
        server, service, store = _service(tenants=tenants)
        try:
            anonymous = ServiceClient(server.url)
            assert anonymous.healthy()  # liveness probe is unauthenticated
            with pytest.raises(ServiceError) as unauthorized:
                anonymous.stats()
            assert unauthorized.value.status == 401
            wrong = ServiceClient(server.url, api_key="wrong-key")
            with pytest.raises(ServiceError) as rejected:
                wrong.stats()
            assert rejected.value.status == 401
            alice = ServiceClient(server.url, api_key="secret-key")
            alice.stats()
            alice.stats()
            with pytest.raises(ServiceError) as throttled:
                alice.stats()
            assert throttled.value.status == 429
        finally:
            server.stop()
            store.close()

    def test_hierarchy_override_roundtrip(self, programs):
        default = SimulationService("arm", ResultStore(":memory:"))
        base = default.simulator.hierarchy_config
        default.close()
        assert hierarchy_from_dict(dataclasses.asdict(base)) == base
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            custom = dataclasses.replace(base, name=base.name + "-custom")
            remote = client.simulate(programs[3], hierarchy=custom)
            assert isinstance(remote, SimulationResult)
            baseline = client.simulate(programs[3])
            assert remote.sim_digest != baseline.sim_digest  # keyed per hierarchy
            # Identical geometry under a different name: same statistics.
            assert flat(remote) == flat(baseline)
        finally:
            server.stop()
            store.close()

    def test_worker_crash_containment_matches_resilient_pool(self, big_programs):
        config = RuntimeConfig(retry=RetryPolicy(max_attempts=1))
        server, service, store = _service(config=config)
        try:
            client = ServiceClient(server.url)
            faults.configure("worker_crash:n=1", seed=7)
            failure = client.simulate(big_programs[1])
            assert isinstance(failure, SimulationFailure)
            # The crash was contained: the worker survived and the very next
            # request for the same digest simulates successfully.
            recovered = client.simulate(big_programs[1])
            assert isinstance(recovered, SimulationResult)
            stats = client.stats()
            assert stats["failed"] == 1
            assert stats["worker"]["failures"] == 1
            # Parity with the local resilient API under the same profile.
            faults.configure("worker_crash:n=1", seed=7)
            pool = SimulatorPool("arm", config=RuntimeConfig(memoize=False))
            local = list(pool.iter_batch_resilient([big_programs[1]]))[0]
            assert isinstance(local, SimulationFailure)
            assert failure.kind == local.kind
            assert failure.attempts == local.attempts
        finally:
            server.stop()
            store.close()

    def test_repeated_batch_served_from_shared_store(self, programs):
        """A fresh service over the same store serves a repeated batch
        entirely from the ResultStore (the >= 90 % acceptance gate)."""
        store = ResultStore(":memory:")
        server1, service1, _ = _service(store=store)
        try:
            first = ServiceClient(server1.url).simulate_batch(programs)
            assert all(isinstance(r, SimulationResult) for r in first)
        finally:
            server1.stop()
        server2, service2, _ = _service(store=store)
        try:
            client2 = ServiceClient(server2.url)
            second = client2.simulate_batch(programs)
            assert all(isinstance(r, SimulationResult) for r in second)
            assert all(r.cached for r in second)  # cold LRU → store hits
            assert [flat(r) for r in second] == [flat(r) for r in first]
            stats = client2.stats()
            assert stats["hit_rate"] >= 0.9
            assert stats["store"]["hits"] >= len(programs)
            assert stats["computed"] == 0
        finally:
            server2.stop()
            store.close()

    def test_stats_surface(self, programs):
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            client.simulate(programs[0])
            client.simulate(programs[0])
            stats = client.stats()
            assert stats["arch"] == "arm"
            assert stats["computed"] == 1
            assert stats["served_cached"] == 1
            assert stats["hit_rate"] == 0.5
            for section in ("store", "cache", "worker"):
                assert isinstance(stats[section], dict)
        finally:
            server.stop()
            store.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestWorkerNeverWaitsOnItsLeader:
    """A ``wait=true`` miss runs inside the HTTP leader's ``get_or_compute``
    slot for its digest, and the worker simulates under the same key.  The
    worker must not coalesce onto that slot: the request would wait on
    itself until ``wait_timeout_s`` ran out and answer 500."""

    WAIT_S = 4.0

    def _simulate_miss(self, program, config):
        store = ResultStore(":memory:")
        service = SimulationService("arm", store, config=config, wait_timeout_s=self.WAIT_S)
        try:
            start = time.perf_counter()
            status, body = service.handle_simulate(_simulate_payload(program, wait=True))
            elapsed = time.perf_counter() - start
        finally:
            service.close()
            store.close()
        assert status == 200, body
        assert elapsed < self.WAIT_S
        stats = dict(body["stats"])
        stats.pop("sim.host_seconds")
        return stats

    def test_reference_engine_miss_settles(self, programs):
        stats = self._simulate_miss(programs[0], RuntimeConfig(engine="reference"))
        assert stats == flat(Simulator("arm", config=RuntimeConfig(memoize=False)).run(programs[0]))

    def test_miss_retried_after_a_crash_settles(self, programs):
        registry = faults.configure("worker_crash:once;seed=1")
        retry = RetryPolicy(max_attempts=2, base_delay_s=0, jitter=0)
        stats = self._simulate_miss(programs[1], RuntimeConfig(retry=retry))
        assert registry.fires.get("worker_crash") == 1
        assert stats == flat(Simulator("arm", config=RuntimeConfig(memoize=False)).run(programs[1]))


class TestServeCli:
    def test_serve_check_validates_and_exits_cleanly(self, capsys):
        from repro.cli import main

        assert main(["serve", "--check"]) == 0
        output = capsys.readouterr().out
        assert "runtime configuration" in output
        assert "configuration OK" in output

    def test_serve_check_reports_the_native_switch(self, monkeypatch, capsys, tmp_path):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SIM_NATIVE", "0")
        _native._reset_for_tests()  # the loader reads the switch once
        try:
            assert main(["serve", "--check", "--db", str(tmp_path / "svc.db")]) == 0
        finally:
            monkeypatch.undo()
            _native._reset_for_tests()
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if "environment variable" in line)
        assert header.split()[0] == "setting"
        (native,) = [line for line in lines if "REPRO_SIM_NATIVE" in line]
        assert native.split() == ["native", "REPRO_SIM_NATIVE", "off"]

    def test_serve_check_reports_a_failed_kernel_compile(self, monkeypatch, capsys, tmp_path):
        """No loaded kernel reads ``off`` even though nothing switched it off."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_SIM_NATIVE", raising=False)
        monkeypatch.setenv("CC", "/nonexistent")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty-cache"))
        _native._reset_for_tests()
        try:
            assert main(["serve", "--check"]) == 0
            assert not arena_batching_available()
        finally:
            monkeypatch.undo()
            _native._reset_for_tests()
        (native,) = [
            line for line in capsys.readouterr().out.splitlines() if "REPRO_SIM_NATIVE" in line
        ]
        assert native.split() == ["native", "REPRO_SIM_NATIVE", "off"]

    def test_serve_check_rejects_bad_engine(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SIM_ENGINE", "warp-drive")
        assert main(["serve", "--check"]) == 2
        assert "invalid runtime configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable,value",
        [
            ("REPRO_RETRY_ATTEMPTS", "abc"),
            ("REPRO_RETRY_ATTEMPTS", "0"),
            ("REPRO_SERVICE_QUEUE_DEPTH", "25O"),
            ("REPRO_SERVICE_QUEUE_DEPTH", "-1"),
            ("REPRO_SERVICE_LEASE_S", "ten"),
            ("REPRO_SERVICE_BREAKER_THRESHOLD", "0"),
            ("REPRO_SERVICE_BREAKER_RESET_S", "soon"),
        ],
    )
    def test_serve_check_rejects_bad_values(self, monkeypatch, capsys, variable, value):
        from repro.cli import main

        monkeypatch.setenv(variable, value)
        assert main(["serve", "--check"]) == 2
        assert "invalid runtime configuration" in capsys.readouterr().err

    def test_serve_rejects_a_negative_trace_budget(self, capsys):
        from repro.cli import main

        assert main(["serve", "--check", "--trace", "-5"]) == 2
        assert "invalid runtime configuration" in capsys.readouterr().err

    def test_serve_check_reports_the_service_knobs(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SERVICE_QUEUE_DEPTH", "8")
        monkeypatch.setenv("REPRO_SERVICE_LEASE_S", "12.5")
        monkeypatch.setenv("REPRO_SERVICE_BREAKER_THRESHOLD", "4")
        monkeypatch.delenv("REPRO_SERVICE_BREAKER_RESET_S", raising=False)
        assert main(["serve", "--check", "--lease", "7"]) == 0  # the flag wins
        rows = {
            line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()
            if "REPRO_SERVICE_" in line
        }
        assert rows == {
            "queue_depth": ["REPRO_SERVICE_QUEUE_DEPTH", "8"],
            "lease_s": ["REPRO_SERVICE_LEASE_S", "7.0"],
            "breaker_threshold": ["REPRO_SERVICE_BREAKER_THRESHOLD", "4"],
            "breaker_reset_s": ["REPRO_SERVICE_BREAKER_RESET_S", "5.0"],
        }


# ---------------------------------------------------------------------------
# Durable job journal
# ---------------------------------------------------------------------------


class TestJobJournal:
    def test_enqueue_claim_settle_roundtrip(self):
        store = ResultStore(":memory:")
        assert store.journal_enqueue("d1", b"blob-1", tenant="alice")
        assert store.journal_pending() == 1
        assert store.journal_status("d1") == ("queued", None, 0)
        (job,) = store.journal_claim(limit=8, lease_s=30.0)
        assert (job.digest, job.program_blob, job.tenant) == ("d1", b"blob-1", "alice")
        assert job.attempts == 1
        assert store.journal_status("d1")[0] == "leased"
        store.journal_settle("d1", "done")
        assert store.journal_status("d1") == ("done", None, 1)
        assert store.journal_pending() == 0
        assert store.journal_claim(limit=8, lease_s=30.0) == []  # settled: done
        store.close()

    def test_enqueue_is_idempotent_while_pending_and_rearms_settled(self):
        store = ResultStore(":memory:")
        assert store.journal_enqueue("d1", b"v1")
        assert not store.journal_enqueue("d1", b"v2")  # already queued: no-op
        assert store.journal_claim(1, 30.0)[0].program_blob == b"v1"
        assert not store.journal_enqueue("d1", b"v2")  # leased: still a no-op
        store.journal_settle("d1", "failed", "boom")
        assert store.journal_status("d1") == ("failed", "boom", 1)
        # A settled row re-arms (result evicted / caller wants a recompute).
        assert store.journal_enqueue("d1", b"v3")
        assert store.journal_status("d1") == ("queued", None, 0)
        assert store.journal_claim(1, 30.0)[0].program_blob == b"v3"
        store.close()

    def test_expired_lease_is_reclaimable(self):
        store = ResultStore(":memory:")
        store.journal_enqueue("d1", b"blob")
        assert store.journal_claim(1, lease_s=0.01)  # claimed by a worker that dies
        time.sleep(0.05)
        assert store.journal_recover() == 1  # expired lease → queued
        (job,) = store.journal_claim(1, lease_s=30.0)
        assert job.attempts == 2  # at-least-once: the second delivery
        store.close()

    def test_claim_treats_expired_lease_as_claimable_directly(self):
        store = ResultStore(":memory:")
        store.journal_enqueue("d1", b"blob")
        store.journal_claim(1, lease_s=0.01)
        time.sleep(0.05)
        # Even without an explicit recover sweep, an expired lease is claimable.
        assert len(store.journal_claim(1, lease_s=30.0)) == 1
        store.close()

    def test_requeue_returns_leased_jobs_immediately(self):
        store = ResultStore(":memory:")
        store.journal_enqueue("d1", b"b1")
        store.journal_enqueue("d2", b"b2")
        store.journal_claim(2, lease_s=300.0)
        assert store.journal_requeue(["d1", "d2"]) == 2
        assert store.journal_status("d1")[0] == "queued"
        assert len(store.journal_claim(2, lease_s=300.0)) == 2
        store.close()

    def test_journal_survives_reopen(self, tmp_path):
        db = tmp_path / "svc.db"
        first = ResultStore(db)
        first.journal_enqueue("d1", b"durable", tenant="t")
        first.close()
        second = ResultStore(db)
        assert second.journal_pending() == 1
        (job,) = second.journal_claim(1, 30.0)
        assert job.program_blob == b"durable"
        second.close()

    def test_prune_drops_only_old_settled_rows(self):
        store = ResultStore(":memory:")
        store.journal_enqueue("done", b"x")
        store.journal_claim(1, 30.0)
        store.journal_settle("done", "done")
        store.journal_enqueue("live", b"y")
        time.sleep(0.05)
        assert store.journal_prune(max_age_s=0.01) == 1
        assert store.journal_status("done") is None
        assert store.journal_status("live")[0] == "queued"
        store.close()

    def test_journal_counters(self):
        store = ResultStore(":memory:")
        store.journal_enqueue("a", b"1")
        store.journal_enqueue("b", b"2")
        store.journal_claim(1, 30.0)
        store.journal_settle("a", "done")
        counters = store.journal_counters()
        assert counters["queued"] == 1.0 and counters["done"] == 1.0
        assert counters["enqueued"] == 2.0 and counters["claimed"] == 1.0
        assert counters["drained"] == 1.0
        store.close()

    def test_wait_false_goes_through_the_journal(self, programs):
        """The write-ahead path: wait=false is journaled before the 202 and
        the worker settles both the journal row and the result store."""
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            queued = client.simulate(programs[1], wait=False)
            assert isinstance(queued, SimulationFailure)
            digest = SimulationCache.make_key(
                programs[1],
                service.simulator.hierarchy_config,
                service.simulator.trace_options,
                service.simulator.engine,
            )
            outcome = client.wait_result(digest, deadline_s=30.0)
            assert isinstance(outcome, SimulationResult)
            assert flat(outcome) == flat(Simulator("arm").run(programs[1]))
            assert store.journal_status(digest)[0] == "done"
            assert store.journal_enqueued == 1
            assert client.stats()["journal"]["drained"] == 1.0
        finally:
            server.stop()
            store.close()


# ---------------------------------------------------------------------------
# Backpressure, rate limiting, health
# ---------------------------------------------------------------------------


def _simulate_payload(program, wait=False):
    import base64
    import pickle

    return {
        "program": base64.b64encode(pickle.dumps(program)).decode("ascii"),
        "wait": wait,
    }


class TestBackpressure:
    def test_queue_full_sheds_with_503(self, programs):
        store = ResultStore(":memory:")
        service = SimulationService("arm", store, max_queue_depth=1)
        try:
            service.worker.stop()  # freeze the drain so the backlog holds
            status, body = service.handle_simulate(_simulate_payload(programs[0]))
            assert status == 202
            status, body = service.handle_simulate(_simulate_payload(programs[1]))
            assert status == 503
            assert "queue is full" in body["error"]
            assert body["retry_after"] > 0
            assert service.shed_queue_full == 1
        finally:
            service.close()
            store.close()

    def test_open_breaker_sheds_misses_but_store_hits_serve(self, programs):
        store = ResultStore(":memory:")
        service = SimulationService("arm", store)
        try:
            # Warm one digest, then trip the breaker by hand.
            status, warm = service.handle_simulate(
                dict(_simulate_payload(programs[0]), wait=True)
            )
            assert status == 200
            for _ in range(service.breaker.failure_threshold):
                service.breaker.record_failure()
            assert service.breaker.state != "closed"
            status, body = service.handle_simulate(_simulate_payload(programs[1]))
            assert status == 503
            assert "circuit breaker" in body["error"]
            assert service.shed_breaker == 1
            # The stored digest still serves: degradation sheds misses only.
            status, again = service.handle_simulate(
                dict(_simulate_payload(programs[0]), wait=True)
            )
            assert status == 200 and again["cached"]
        finally:
            service.close()
            store.close()

    def test_healthz_reports_degradation_reasons(self):
        store = ResultStore(":memory:")
        service = SimulationService("arm", store, supervise=False)
        try:
            assert service.health() == (200, {"status": "ok"})
            service.worker.stop()  # no supervisor: the dead worker stays dead
            for _ in range(service.breaker.failure_threshold):
                service.breaker.record_failure()
            store._note_io_error()
            status, body = service.health()
            assert status == 503
            assert body["status"] == "degraded"
            assert "worker dead" in body["reasons"]
            assert any(r.startswith("breaker") for r in body["reasons"])
            assert "store io errors" in body["reasons"]
        finally:
            service.close()
            store.close()

    def test_healthz_degraded_over_http(self):
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            assert client.healthy()
            for _ in range(service.breaker.failure_threshold):
                service.breaker.record_failure()
            assert not client.healthy()  # 503 degraded
        finally:
            server.stop()
            store.close()


class TestTenantLimits:
    def test_quota_race_admits_exactly_one(self):
        """N requests racing one remaining quota slot admit exactly one."""
        store = ResultStore(":memory:")
        tenant = Tenant(name="alice", api_key="k", quota=1)
        service = SimulationService("arm", store, tenants={"k": tenant})
        try:
            n_threads = 8
            barrier = threading.Barrier(n_threads)
            outcomes = [None] * n_threads

            def race(slot):
                barrier.wait()
                outcomes[slot] = service.authenticate("k")

            threads = [
                threading.Thread(target=race, args=(slot,)) for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            admitted = [o for o in outcomes if o[1] is None]
            rejected = [o for o in outcomes if o[1] is not None]
            assert len(admitted) == 1
            assert len(rejected) == n_threads - 1
            assert all(error[0] == 429 for _, error in rejected)
            assert tenant.requests == 1
        finally:
            service.close()
            store.close()

    def test_rate_limit_resets_where_quota_does_not(self):
        """The sliding window frees up as it slides; the lifetime quota never."""
        store = ResultStore(":memory:")
        tenant = Tenant(name="bob", api_key="k", rate_limit=2, rate_window_s=0.2)
        service = SimulationService("arm", store, tenants={"k": tenant})
        try:
            assert service.authenticate("k")[1] is None
            assert service.authenticate("k")[1] is None
            _, error = service.authenticate("k")
            assert error is not None and error[0] == 429
            assert error[1]["retry_after"] > 0
            assert service.rate_limited == 1
            time.sleep(0.25)  # the window slides past both admissions
            assert service.authenticate("k")[1] is None  # rate limit reset
            assert tenant.requests == 3  # ... but the lifetime count kept going

            quota_tenant = Tenant(name="carol", api_key="q", quota=2)
            service.tenants["q"] = quota_tenant
            assert service.authenticate("q")[1] is None
            assert service.authenticate("q")[1] is None
            time.sleep(0.25)
            _, error = service.authenticate("q")
            assert error is not None and error[0] == 429  # quota never resets
        finally:
            service.close()
            store.close()

    def test_rate_limited_responses_carry_retry_after_header(self):
        tenants = {"k": Tenant(name="t", api_key="k", rate_limit=1, rate_window_s=5.0)}
        server, service, store = _service(tenants=tenants)
        try:
            from http.client import HTTPConnection

            def stats_response():
                conn = HTTPConnection(server.host, server.port, timeout=10.0)
                try:
                    conn.request("GET", "/stats", headers={"X-Api-Key": "k"})
                    response = conn.getresponse()
                    response.read()
                    return response.status, response.headers
                finally:
                    conn.close()

            status, _ = stats_response()
            assert status == 200
            status, headers = stats_response()
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.stop()
            store.close()


# ---------------------------------------------------------------------------
# HTTP protocol edges
# ---------------------------------------------------------------------------


class TestHttpProtocol:
    @staticmethod
    def _raw_exchange(server, head: bytes, body: bytes, half_close: bool = False):
        import socket

        with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
            sock.sendall(head + body)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            sock.settimeout(10.0)
            chunks = []
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode("latin-1")

    def test_oversized_body_is_413_not_500(self):
        from repro.service.server import MAX_BODY_BYTES

        server, service, store = _service()
        try:
            head = (
                f"POST /simulate HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
            ).encode("latin-1")
            response = self._raw_exchange(server, head, b"tiny")
            assert response.startswith("HTTP/1.1 413 Payload Too Large")
            assert "exceeds" in response
        finally:
            server.stop()
            store.close()

    def test_truncated_body_is_400_not_500(self):
        server, service, store = _service()
        try:
            head = (
                b"POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
            )
            response = self._raw_exchange(server, head, b"only-ten-b", half_close=True)
            assert response.startswith("HTTP/1.1 400 Bad Request")
            assert "truncated" in response
        finally:
            server.stop()
            store.close()

    def test_shed_responses_carry_retry_after_header(self):
        server, service, store = _service()
        try:
            for _ in range(service.breaker.failure_threshold):
                service.breaker.record_failure()
            head = (
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            response = self._raw_exchange(server, head, b"")
            assert response.startswith("HTTP/1.1 503 Service Unavailable")
            assert "Retry-After:" in response
        finally:
            server.stop()
            store.close()


# ---------------------------------------------------------------------------
# Resilient client
# ---------------------------------------------------------------------------


class TestResilientClient:
    def _stub_client(self, responses):
        """A client whose transport replays ``responses`` (callables raise)."""
        client = ServiceClient(
            "http://127.0.0.1:1",
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.0, jitter=0.0),
        )
        calls = []

        def replay(method, path, payload=None):
            calls.append((method, path))
            item = responses[min(len(calls) - 1, len(responses) - 1)]
            if callable(item):
                raise item()
            return item

        client._request_once = replay
        return client, calls

    def test_connection_errors_are_retried(self):
        client, calls = self._stub_client(
            [lambda: ConnectionRefusedError("down"), (200, {"ok": True})]
        )
        assert client._request("GET", "/stats") == (200, {"ok": True})
        assert len(calls) == 2
        assert client.retries == 1

    def test_503_is_retried_honouring_retry_after(self):
        slept = []
        client, calls = self._stub_client(
            [(503, {"error": "shed", "retry_after": 0.01}), (200, {"ok": True})]
        )
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(time, "sleep", slept.append)
            assert client._request("GET", "/stats") == (200, {"ok": True})
        assert client.retries == 1
        assert slept and slept[0] >= 0.01  # the server's hint was honoured

    def test_429_is_never_retried(self):
        client, calls = self._stub_client([(429, {"error": "quota"})])
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.status == 429
        assert len(calls) == 1
        assert client.retries == 0

    def test_exhausted_retries_raise_the_transport_error(self):
        client, calls = self._stub_client([lambda: ConnectionResetError("gone")])
        with pytest.raises(ConnectionResetError):
            client._request("GET", "/stats")
        assert len(calls) == 4  # max_attempts

    def test_wait_result_times_out(self):
        server, service, store = _service()
        try:
            client = ServiceClient(server.url)
            with pytest.raises(TimeoutError):
                client.wait_result("0" * 64, deadline_s=0.2, poll_s=0.02)
        finally:
            server.stop()
            store.close()

    def test_result_surfaces_journaled_failures(self):
        """A journal row settled as failed becomes a SimulationFailure."""
        server, service, store = _service()
        try:
            store.journal_enqueue("deadbeef", b"not a pickle")
            client = ServiceClient(server.url)
            outcome = client.wait_result("deadbeef", deadline_s=15.0)
            assert isinstance(outcome, SimulationFailure)
            assert "undecodable journaled program" in outcome.error
            assert service.worker.corrupt_jobs == 1
        finally:
            server.stop()
            store.close()
