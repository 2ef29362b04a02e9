"""End-to-end experiment pipeline.

A :class:`Session` memoizes the expensive stages so the fourteen table
experiments can share work:

* **compile** — (workload, input, optimize) -> Program (cheap, memoized);
* **analyze** — static address patterns per program (cheap, memoized);
* **execute** — instruction-level run producing the block profile and the
  memory trace (expensive; acquired through :mod:`repro.pipeline.acquire`
  like the service ops' traces — store hit, else a streamed execution —
  and held in a small LRU when materialized, as they dominate memory);
* **cache-simulate** — trace x cache-config -> per-load miss counts
  (moderately expensive; results are also persisted to a JSON disk cache
  keyed by a content hash, so re-running a bench suite skips simulation
  entirely).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.asm.program import Program
from repro.cache.config import (BASELINE_CONFIG, TRAINING_CONFIG,
                                CacheConfig)
from repro.cache.model import CacheStats
from repro.cache.stackdist import ProfileStore, simulate_sweep
from repro.compiler.driver import compile_source
from repro.patterns.builder import LoadInfo, build_load_infos
from repro.pipeline.acquire import Acquisition
from repro.profiling.profile import BlockProfile
from repro.store.tracestore import TraceStore, trace_key
from repro.workloads.base import Workload
from repro.workloads.registry import get as get_workload

_SCHEMA_VERSION = 4
_TRACE_LRU = 2

#: A warm() work item: a RunKey, a (workload, input, optimize) triple, or
#: the same triple plus an explicit cache-config sequence.
WarmRun = Union["RunKey", tuple]


def default_cache_dir() -> Path:
    """The shared on-disk result cache (``<repo>/.repro_cache``).

    Shared by :class:`Session`'s simulation cache and the service's
    tiered result cache (:mod:`repro.service.cache`), so one warm
    directory serves both the bench suite and a long-lived server.
    """
    return Path(__file__).resolve().parents[3] / ".repro_cache"


def atomic_write_json(path: Path, payload: dict) -> None:
    """Best-effort atomic JSON write (temp file + ``os.replace``).

    Concurrent writers (warm workers, service instances) may race on
    the same entry: each writes a per-PID temp file and atomically
    renames it into place so a reader can never observe a partially
    written entry.  I/O failures are swallowed — caching is an
    optimization, never a correctness requirement.
    """
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp.write_text(json.dumps(payload))
        os.replace(temp, path)
    except OSError:
        pass


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-count knob: explicit argument > $REPRO_JOBS > CPU count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else (os.cpu_count() or 1)
    return max(1, jobs)


@dataclass(frozen=True)
class RunKey:
    workload: str
    input_name: str
    optimize: bool


@dataclass
class Measurement:
    """Everything the experiments need for one (run, cache) pair."""

    key: RunKey
    cache_config: CacheConfig
    program: Program
    load_infos: dict[int, LoadInfo]
    profile: BlockProfile
    load_misses: dict[int, int]
    load_exec: dict[int, int]
    steps: int

    @property
    def num_loads(self) -> int:
        return self.program.num_loads()

    @property
    def total_load_misses(self) -> int:
        return sum(self.load_misses.values())


class Session:
    """Shared pipeline state for a set of experiments."""

    def __init__(self, scale: float = 1.0,
                 cache_dir: Optional[Path] = None,
                 use_disk_cache: bool = True,
                 max_steps: int = 300_000_000,
                 engine: Optional[str] = None):
        self.scale = scale
        self.max_steps = max_steps
        self.engine = engine
        self.use_disk_cache = use_disk_cache
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        self._sources: dict[tuple[str, str], str] = {}
        self._programs: dict[RunKey, Program] = {}
        self._analyses: dict[RunKey, dict[int, LoadInfo]] = {}
        self._profiles: dict[RunKey, BlockProfile] = {}
        self._steps: dict[RunKey, int] = {}
        self._traces: OrderedDict = OrderedDict()
        self._stats: dict[tuple[RunKey, CacheConfig], CacheStats] = {}
        self._pcax: dict[tuple, object] = {}
        self._redundancy: dict[RunKey, object] = {}
        # Stack-distance profiles (see cache.stackdist) share the
        # session's cache directory so warmed sweeps survive restarts.
        self._profile_store = ProfileStore(
            disk_dir=(self.cache_dir / "stackdist")
            if use_disk_cache else None)
        # The chunked trace store (see repro.store): executions stream
        # their access trace straight to disk, replays stream it back,
        # so a workload is executed at most once per content key and no
        # whole trace needs to fit in RAM.
        self._trace_store = TraceStore(self.cache_dir / "traces") \
            if use_disk_cache else None

    # -- stages ------------------------------------------------------
    def add_source(self, workload: str, source: str,
                   input_name: str = "input1") -> RunKey:
        """Register literal MiniC text as a synthetic workload.

        Lets callers outside the workload registry (the fuzz harness,
        ad-hoc experiments) drive the full memoized pipeline — compile,
        execute, cache-simulate, disk cache — on arbitrary sources.
        The disk-cache digest hashes the source text itself, so
        synthetic entries can never collide with registry workloads.
        """
        self._sources[(workload, input_name)] = source
        return RunKey(workload, input_name, False)

    def source(self, workload: str, input_name: str = "input1") -> str:
        key = (workload, input_name)
        if key not in self._sources:
            definition: Workload = get_workload(workload)
            self._sources[key] = definition.generate(input_name,
                                                     scale=self.scale)
        return self._sources[key]

    def program(self, workload: str, input_name: str = "input1",
                optimize: bool = False) -> Program:
        key = RunKey(workload, input_name, optimize)
        if key not in self._programs:
            self._programs[key] = compile_source(
                self.source(workload, input_name), optimize=optimize)
        return self._programs[key]

    def load_infos(self, workload: str, input_name: str = "input1",
                   optimize: bool = False) -> dict[int, LoadInfo]:
        key = RunKey(workload, input_name, optimize)
        if key not in self._analyses:
            self._analyses[key] = build_load_infos(
                self.program(workload, input_name, optimize))
        return self._analyses[key]

    def _replay(self, key: RunKey, compute=None):
        """``compute`` over the run's trace (only the facts when None),
        adopting the run's profile and any materialized trace."""
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
        acquisition = Acquisition(
            self._trace_store,
            trace_key(self.source(key.workload, key.input_name),
                      key.optimize, self.max_steps),
            lambda: self.program(key.workload, key.input_name,
                                 key.optimize),
            self.max_steps, self.engine, trace=trace)
        if compute is None:
            result = acquisition.facts()
        else:
            result = acquisition.replay(compute)
        if acquisition.trace is not None:
            self._traces[key] = acquisition.trace
            while len(self._traces) > _TRACE_LRU:
                self._traces.popitem(last=False)
        execution = acquisition.execution
        if execution is not None and execution.block_counts \
                and key not in self._profiles:
            self._profiles[key] = BlockProfile.from_block_counts(
                acquisition.program, execution.block_counts)
            self._steps[key] = execution.steps
        return result

    def profile(self, workload: str, input_name: str = "input1",
                optimize: bool = False) -> BlockProfile:
        key = RunKey(workload, input_name, optimize)
        if key not in self._profiles and not self._load_disk(
                key, BASELINE_CONFIG, profile_only=True):
            self._replay(key)
        return self._profiles[key]

    def stats_multi(self, workload: str, input_name: str = "input1",
                    optimize: bool = False,
                    configs: Sequence[CacheConfig] = (BASELINE_CONFIG,)
                    ) -> list[CacheStats]:
        """Per-config stats, simulating every uncached config in ONE
        pass over the trace: LRU geometry sweeps go through the
        stack-distance engine (see :func:`simulate_sweep`), everything
        else through the single-pass multi-config replay."""
        key = RunKey(workload, input_name, optimize)
        missing: list[CacheConfig] = []
        for config in configs:
            if (key, config) in self._stats:
                continue
            if self.use_disk_cache and self._load_disk(key, config):
                continue
            if config not in missing:
                missing.append(config)
        if missing:
            stats_list = self._replay(key, lambda source: simulate_sweep(
                source, missing, store=self._profile_store))
            for config, stats in zip(missing, stats_list):
                self._stats[(key, config)] = stats
                if self.use_disk_cache:
                    self._store_disk(key, config, stats)
        return [self._stats[(key, config)] for config in configs]

    def stats(self, workload: str, input_name: str = "input1",
              optimize: bool = False,
              cache_config: CacheConfig = BASELINE_CONFIG) -> CacheStats:
        return self.stats_multi(workload, input_name, optimize,
                                (cache_config,))[0]

    # -- scenario families (TLB, PCAX, redundancy) --------------------
    def tlb_stats(self, workload: str, input_name: str = "input1",
                  optimize: bool = False,
                  configs: Sequence["TlbConfig"] = ()
                  ) -> list["TlbStats"]:
        """Per-geometry dTLB stats through the shared sweep engine.

        Geometries with one page size cost at most one trace pass, and
        the per-PC distance histograms land in the session's profile
        store (keyed by trace digest and page size), so re-sweeps never
        touch the trace.
        """
        from repro.tlb import TlbConfig, simulate_tlb
        configs = list(configs) or [TlbConfig()]
        key = RunKey(workload, input_name, optimize)
        return self._replay(
            key, lambda source: simulate_tlb(
                source, configs, store=self._profile_store))

    def pcax(self, workload: str, input_name: str = "input1",
             optimize: bool = False, page_size: int = 4096,
             threshold: Optional[float] = None) -> "PcaxProfile":
        """PC-indexed translation predictability, one streaming pass."""
        from repro.tlb import DEFAULT_THRESHOLD, pcax_profile
        if threshold is None:
            threshold = DEFAULT_THRESHOLD
        key = RunKey(workload, input_name, optimize)
        memo = (key, page_size, threshold)
        if memo not in self._pcax:
            self._pcax[memo] = self._replay(
                key, lambda source: pcax_profile(
                    source, page_size=page_size, threshold=threshold))
        return self._pcax[memo]

    def redundancy(self, workload: str, input_name: str = "input1",
                   optimize: bool = False) -> "RedundancyStats":
        """Per-PC redundant-load counts, one streaming pass."""
        from repro.redundancy import analyze_redundancy
        key = RunKey(workload, input_name, optimize)
        if key not in self._redundancy:
            self._redundancy[key] = self._replay(
                key, analyze_redundancy)
        return self._redundancy[key]

    # -- analytic (trace-free) prediction -----------------------------
    def _program_digest(self, key: RunKey) -> str:
        from repro.analytic.answer import analytic_key
        return analytic_key(self.source(key.workload, key.input_name),
                            key.optimize)

    def analytic_profile(self, workload: str, input_name: str = "input1",
                         optimize: bool = False, block_size: int = 32):
        """Predicted reuse profile, cached in the profile store's
        analytic keyspace (memory tier + ``an-`` disk entries)."""
        from repro.analytic.answer import cached_profile
        return cached_profile(
            self._profile_store, self.source(workload, input_name),
            optimize, lambda: self.program(workload, input_name, optimize),
            block_size)

    def predict_stats(self, workload: str, input_name: str = "input1",
                      optimize: bool = False,
                      configs: Sequence[CacheConfig] = (BASELINE_CONFIG,),
                      fallback: bool = True) -> "Prediction":
        """Per-config stats predicted without executing the workload.

        Every LRU geometry is answered from one analytic profile per
        block size (see :func:`repro.analytic.predict_configs`); a
        request that falls back is answered by :meth:`stats_multi`.
        """
        from repro.analytic.answer import predict_configs
        configs = list(configs)
        prediction = predict_configs(
            configs, lambda block_size: self.analytic_profile(
                workload, input_name, optimize, block_size), fallback)
        if not prediction.analytic:
            prediction.stats = self.stats_multi(workload, input_name,
                                                optimize, configs)
        return prediction

    def measurement(self, workload: str, input_name: str = "input1",
                    optimize: bool = False,
                    cache_config: CacheConfig = BASELINE_CONFIG
                    ) -> Measurement:
        key = RunKey(workload, input_name, optimize)
        stats = self.stats(workload, input_name, optimize, cache_config)
        profile = self.profile(workload, input_name, optimize)
        return Measurement(
            key=key,
            cache_config=cache_config,
            program=self.program(workload, input_name, optimize),
            load_infos=self.load_infos(workload, input_name, optimize),
            profile=profile,
            load_misses=dict(stats.load_misses),
            load_exec=profile.load_exec_counts(),
            steps=self._steps.get(key, profile.total_cycles),
        )

    # -- disk cache ------------------------------------------------------
    def _digest(self, key: RunKey, config: CacheConfig) -> str:
        # The execution engine is deliberately NOT part of the digest:
        # both engines are bit-identical (same trace, same profile), so
        # entries warmed under either engine are interchangeable.
        text = "|".join((
            str(_SCHEMA_VERSION),
            self.source(key.workload, key.input_name),
            str(key.optimize),
            config.describe(),
            str(self.max_steps),
        ))
        return hashlib.sha1(text.encode()).hexdigest()

    def _disk_path(self, key: RunKey, config: CacheConfig) -> Path:
        safe = key.workload.replace(".", "_")
        return self.cache_dir / f"{safe}-{self._digest(key, config)}.json"

    def _payload(self, key: RunKey,
                 stats: CacheStats) -> Optional[dict]:
        """The JSON-able cache entry for one (run, config) pair."""
        profile = self._profiles.get(key)
        if profile is None:
            return None
        return {
            "version": _SCHEMA_VERSION,
            "steps": self._steps.get(key, 0),
            "load_misses": {str(a): m for a, m in
                            stats.load_misses.items()},
            "load_accesses": {str(a): m for a, m in
                              stats.load_accesses.items()},
            # Store and prefetch columns round-trip per PC (schema 4):
            # earlier schemas persisted only their sums and absorbed
            # neither, so a disk-warm session silently lost store
            # misses — Table 2 rendered differently warm vs. cold.
            "store_misses": {str(a): m for a, m in
                             stats.store_misses.items()},
            "store_accesses": {str(a): m for a, m in
                               stats.store_accesses.items()},
            "prefetch_ops": stats.prefetch_ops,
            "prefetch_fills": stats.prefetch_fills,
            "block_counts": {str(a): c for a, c in
                             profile.block_counts.items()},
            "block_sizes": {str(a): s for a, s in
                            profile.block_sizes.items()},
        }

    def _store_disk(self, key: RunKey, config: CacheConfig,
                    stats: CacheStats) -> None:
        payload = self._payload(key, stats)
        if payload is None:
            return
        atomic_write_json(self._disk_path(key, config), payload)

    def _absorb(self, key: RunKey, config: CacheConfig, payload: dict,
                profile_only: bool = False) -> bool:
        """Merge one cache entry into the in-memory caches.

        Tolerates corrupt or truncated payloads (wrong version, missing
        keys, malformed values) by reporting failure — the caller then
        re-simulates instead of raising.
        """
        try:
            if payload.get("version") != _SCHEMA_VERSION:
                return False
            block_counts = {int(a): c for a, c in
                            payload["block_counts"].items()}
            block_sizes = {int(a): s for a, s in
                           payload["block_sizes"].items()}
            steps = int(payload.get("steps", 0))
            if not profile_only:
                load_accesses = {int(a): m for a, m in
                                 payload["load_accesses"].items()}
                load_misses = {int(a): m for a, m in
                               payload["load_misses"].items()}
                store_accesses = {int(a): m for a, m in
                                  payload["store_accesses"].items()}
                store_misses = {int(a): m for a, m in
                                payload["store_misses"].items()}
                prefetch_ops = int(payload["prefetch_ops"])
                prefetch_fills = int(payload["prefetch_fills"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return False
        program = self.program(key.workload, key.input_name, key.optimize)
        self._profiles[key] = BlockProfile(
            program=program,
            block_counts=block_counts,
            block_sizes=block_sizes,
        )
        self._steps[key] = steps
        if profile_only:
            return True
        self._stats[(key, config)] = CacheStats(
            config=config,
            load_accesses=load_accesses,
            load_misses=load_misses,
            store_accesses=store_accesses,
            store_misses=store_misses,
            prefetch_ops=prefetch_ops,
            prefetch_fills=prefetch_fills,
        )
        return True

    def _load_disk(self, key: RunKey, config: CacheConfig,
                   profile_only: bool = False) -> bool:
        if not self.use_disk_cache:
            return False
        path = self._disk_path(key, config)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        return self._absorb(key, config, payload,
                            profile_only=profile_only)

    # -- the warm stage ----------------------------------------------
    def _is_warm(self, key: RunKey, config: CacheConfig) -> bool:
        if (key, config) in self._stats:
            return True
        return self.use_disk_cache \
            and self._disk_path(key, config).exists()

    def warm(self, runs: Iterable[WarmRun],
             configs: Sequence[CacheConfig] = (BASELINE_CONFIG,),
             jobs: Optional[int] = None) -> "WarmReport":
        """Execute + cache-simulate ``runs`` ahead of time, in parallel.

        Each run is a :class:`RunKey`, a ``(workload, input, optimize)``
        triple (simulated under ``configs``), or the same triple plus an
        explicit config sequence.  Independent runs fan out across a
        ``ProcessPoolExecutor`` (``jobs`` defaults to ``$REPRO_JOBS``,
        then the CPU count); every run replays its trace once for all
        of its configs.  Results merge through the content-hashed disk
        cache and the in-memory caches, so subsequent ``stats`` /
        ``measurement`` calls are cache hits.
        """
        start = time.perf_counter()
        plan: list[tuple[RunKey, tuple[CacheConfig, ...]]] = []
        for item in runs:
            if isinstance(item, RunKey):
                plan.append((item, tuple(configs)))
                continue
            item = tuple(item)
            if len(item) == 4:
                plan.append((RunKey(*item[:3]), tuple(item[3])))
            else:
                plan.append((RunKey(*item), tuple(configs)))
        pending: list[tuple[RunKey, tuple[CacheConfig, ...]]] = []
        cached = 0
        for key, run_configs in plan:
            missing = tuple(c for c in run_configs
                            if not self._is_warm(key, c))
            if missing:
                pending.append((key, missing))
            else:
                cached += 1
        jobs = max(1, min(_resolve_jobs(jobs), len(pending)))
        if jobs > 1:
            tasks = [(self.scale, self.max_steps, self.use_disk_cache,
                      str(self.cache_dir), self.engine,
                      (key.workload, key.input_name, key.optimize),
                      run_configs)
                     for key, run_configs in pending]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for (key, run_configs), payloads in zip(
                        pending, pool.map(_warm_worker, tasks)):
                    for config, payload in zip(run_configs, payloads):
                        self._absorb(key, config, payload)
        else:
            for key, run_configs in pending:
                self.stats_multi(key.workload, key.input_name,
                                 key.optimize, run_configs)
        return WarmReport(
            runs=len(plan),
            simulated=len(pending),
            cached=cached,
            jobs=jobs,
            elapsed=time.perf_counter() - start,
        )


@dataclass(frozen=True)
class WarmReport:
    """Summary of one :meth:`Session.warm` invocation."""

    runs: int          # work items in the plan
    simulated: int     # items that needed execution/simulation
    cached: int        # items fully satisfied by existing caches
    jobs: int          # worker processes actually used
    elapsed: float     # wall-clock seconds

    def describe(self) -> str:
        return (f"{self.simulated} run(s) simulated, "
                f"{self.cached} already cached, "
                f"{self.jobs} job(s), {self.elapsed:.1f}s")


def _warm_worker(task: tuple) -> list[Optional[dict]]:
    """Executed in a worker process: one run, all of its configs.

    Builds a private :class:`Session` (sharing the on-disk cache
    directory), runs the pipeline through :meth:`Session.stats_multi`
    — one trace replay for all configs — and returns the JSON-able
    cache payloads so the parent can merge them without re-reading
    the disk.
    """
    (scale, max_steps, use_disk_cache, cache_dir, engine,
     key_tuple, configs) = task
    session = Session(scale=scale, cache_dir=Path(cache_dir),
                      use_disk_cache=use_disk_cache, max_steps=max_steps,
                      engine=engine)
    key = RunKey(*key_tuple)
    stats_list = session.stats_multi(key.workload, key.input_name,
                                     key.optimize, configs)
    return [session._payload(key, stats) for stats in stats_list]


def standard_warm_plan() -> list[tuple[str, str, bool, tuple]]:
    """Every (run, cache-config) combination the table suite consumes.

    Derived from the table modules' declarative ``SPEC`` grids (see
    :mod:`repro.experiments.grid`): all eighteen workloads at the
    baseline and training caches (unoptimized, input 1), the training
    set on its second input, and the training set optimized under the
    associativity and size sweeps (which include Table 13's 16KB
    cache).
    """
    # Imported here: the experiments package imports this module.
    from repro.experiments.grid import warm_plan
    return warm_plan()
