"""The four workloads, each split into set-up, measured passes and checks.

A workload object is driven by :func:`perfbench.run.measure`:

* ``entry_modules`` — what the workload's entry point imports, timed
  in a fresh interpreter as the start-up part of ``setup_s``;
* ``setup_once()`` — one-time set-up (trace-store pre-population);
* ``prepare(traced)`` — per-pass set-up from a clean state (fresh cache
  directories, a freshly started server), returned as the pass state;
* ``run(state, probe)`` — the measured pass, returning a :class:`Pass`;
* ``check(state, outcome)`` — compare every answer with
  ``perfbench/expected`` after the timing, returning failure messages;
* ``finish(state)`` — release the pass's processes and directories.

Every pass of one run uses the same inputs from a clean state, so their
deterministic counters must repeat exactly; they must also equal the
ones recorded in ``perfbench/expected/counters.json`` under the
workload's ``counter_key``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from perfbench import answers, inputs

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Pass:
    """What one measured pass produced."""

    makespan_s: float
    latencies_s: list[float]
    counters: dict[str, int] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    spans: list[dict[str, Any]] = field(default_factory=list)
    service: dict[str, Any] = field(default_factory=dict)
    outputs: Any = None


# -- memory ---------------------------------------------------------------

def reset_peak_rss() -> None:
    """Restart this process's VmHWM so the pass's own peak is read."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of ``pid`` (default: this process), in MiB."""
    path = Path(f"/proc/{pid or 'self'}/status")
    try:
        for line in path.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def child_pids(pid: int) -> list[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return children


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- grid-cold / grid-from-traces -------------------------------------------------

class Grid:
    """``Campaign.run(jobs=1)`` over a seeded subset of tables."""

    entry_modules = ("repro.campaign", "repro.campaign.manifest",
                     "repro.pipeline.session")

    def __init__(self, work: Path, seed: int, warm_traces: bool):
        # A from-traces pass is short; four keep its median steady.
        self.min_passes = 4 if warm_traces else 1
        self.work = work
        self.tables = inputs.grid_tables(seed)
        # The tables rendered are the only work that differs by seed.
        self.counter_key = ",".join(map(str, self.tables))
        self.warm_traces = warm_traces
        self.prepop = work / "prepop"
        self.expected = answers.load("grid")
        self.passes = 0

    def setup_once(self) -> None:
        """Execute every run cell once, streaming into a trace store."""
        if not self.warm_traces:
            return
        from repro.pipeline.session import Session
        session = Session(scale=inputs.SCALE,
                          cache_dir=fresh_dir(self.prepop))
        for workload, input_name, optimize in inputs.grid_run_keys():
            session.profile(workload, input_name, optimize)

    def prepare(self, traced: bool):
        from repro.campaign import Campaign
        from repro.pipeline.session import Session
        self.passes += 1
        directory = fresh_dir(self.work / f"pass{self.passes}")
        if self.warm_traces:
            (directory / "traces").mkdir()
            for path in (self.prepop / "traces").iterdir():
                os.link(path, directory / "traces" / path.name)
        session = Session(scale=inputs.SCALE, cache_dir=directory)
        return directory, session, Campaign(session, self.tables)

    def run(self, state, probe) -> Pass:
        directory, session, campaign = state
        reset_peak_rss()
        probe.op = directory.name
        started = time.perf_counter()
        result = campaign.run(jobs=1)
        makespan = time.perf_counter() - started
        probe.op = None
        # Run cells only: they are the same for every table subset.
        walls = [float(entry["wall_s"])
                 for entry in campaign.manifest.entries()
                 if entry.get("campaign") == result.campaign_id
                 and entry.get("kind") == "run"]
        probe.count("campaign.cells_computed", result.computed)
        probe.count("campaign.cells_cached", result.cached)
        return Pass(makespan_s=makespan, latencies_s=walls,
                    peak_rss_mb=peak_rss_mb(), outputs=result)

    def check(self, state, outcome: Pass) -> tuple[int, list[str]]:
        from repro.cache.config import TRAINING_CONFIG
        _, session, _ = state
        failures = []
        runs = self.expected["runs"]["answers"]
        for workload, input_name, optimize in inputs.grid_run_keys():
            key = f"{workload}|{input_name}|{optimize}"
            measured = session.measurement(workload, input_name,
                                           optimize, TRAINING_CONFIG)
            stats = session.stats(workload, input_name, optimize,
                                  TRAINING_CONFIG)
            got = answers.canon_run(measured.steps,
                                    measured.profile.block_counts, stats)
            if got != runs[key]:
                failures.append(f"run cell {key}: {got} != {runs[key]}")
        tables = self.expected["tables"]["answers"]
        for number in self.tables:
            text = outcome.outputs.tables.get(number, "")
            got = hashlib.sha1(text.encode()).hexdigest()
            if got != tables[str(number)]["sha1"]:
                failures.append(f"table {number}: rendered text differs "
                                "from the pinned one")
        return len(runs) + len(self.tables), failures

    def finish(self, state) -> None:
        shutil.rmtree(state[0], ignore_errors=True)


# -- service-mixed -----------------------------------------------------------------

class Service:
    """A ``repro serve`` subprocess driven as a closed loop.

    One connection and one worker process: with two of each, a round's
    time depended on whether two computations happened to reach the
    scheduler inside one 2 ms batch window (its dispatcher awaits a
    whole batch before taking the next), which spread rounds from 3.2 s
    to 6.2 s; see README.md.
    """

    BANNER = "repro service listening on "
    entry_modules = ("repro.service.client",)
    counter_key = "all"     # every seed's plan does the same work
    min_passes = 4

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.plan = inputs.service_plan(seed)
        self.store_root = work / "service-store"
        self.expected = answers.load("service")["answers"]
        self.sources: list[str] = []
        self.passes = 0

    def setup_once(self) -> None:
        """Generate the sources and stream their traces into a store."""
        from repro.pipeline.session import Session
        session = Session(scale=inputs.SCALE,
                          cache_dir=fresh_dir(self.store_root))
        for workload, input_name in inputs.SERVICE_SOURCES:
            self.sources.append(session.source(workload, input_name))
            session.profile(workload, input_name, False)

    def prepare(self, traced: bool):
        self.passes += 1
        state = fresh_dir(self.work / f"pass{self.passes}")
        probe_dir = state / "probe"
        command = [sys.executable, str(ROOT / "perfbench" / "serve.py"),
                   "--state", str(state / "cache"),
                   "--traces", str(self.store_root / "traces"),
                   "--probe-dir", str(probe_dir)]
        if traced:
            command.append("--trace")
        command += ["--", "--port", "0", "--workers", "1"]
        process = subprocess.Popen(command, cwd=ROOT, text=True,
                                   stdout=subprocess.PIPE)
        banner = process.stdout.readline().strip()
        if not banner.startswith(self.BANNER):
            process.kill()
            process.wait(timeout=30)
            raise RuntimeError(f"server did not start: {banner!r}")
        return state, probe_dir, process, banner[len(self.BANNER):]

    def run(self, state, probe) -> Pass:
        from repro.service.client import ServiceClient, ServiceError
        _, probe_dir, process, address = state
        done = []
        started = time.perf_counter()
        with ServiceClient.connect(address) as client:
            for request in self.plan:
                params = request.params(self.sources[request.source])
                begun = time.perf_counter()
                try:
                    result = client.call(request.op, params)
                except ServiceError as exc:
                    result = exc
                done.append((request, result,
                             time.perf_counter() - begun))
        makespan = time.perf_counter() - started
        with ServiceClient.connect(address) as client:
            metrics = client.metrics()
            rss = peak_rss_mb(process.pid) + sum(
                peak_rss_mb(pid) for pid in child_pids(process.pid))
            client.shutdown()
        process.wait(timeout=60)
        outcome = Pass(makespan_s=makespan,
                       latencies_s=[entry[2] for entry in done],
                       peak_rss_mb=rss, outputs=done,
                       service=_service_summary(metrics, done))
        # The workers' probe output, complete once the server is gone.
        for path in sorted(probe_dir.glob("counters-*.json")):
            for name, value in json.loads(path.read_text()).items():
                outcome.counters[name] = \
                    outcome.counters.get(name, 0) + value
        for path in sorted(probe_dir.glob("spans-*.jsonl")):
            outcome.spans.extend(json.loads(line) for line in
                                 path.read_text().splitlines())
        for name in ("computations", "cache_hits", "coalesced"):
            outcome.counters[f"service.{name}"] = outcome.service[name]
        return outcome

    def check(self, state, outcome: Pass) -> tuple[int, list[str]]:
        failures = []
        for request, result, _ in outcome.outputs:
            expected = self.expected[request.id]["sha1"]
            if isinstance(result, Exception):
                failures.append(f"{request.id}: {result}")
            elif answers.canon_response(request.op, result) != expected:
                failures.append(f"{request.id}: answer differs")
        return len(outcome.outputs), failures

    def finish(self, state) -> None:
        process = state[2]
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        if process.stdout is not None:
            process.stdout.close()
        shutil.rmtree(state[0], ignore_errors=True)


def _service_summary(metrics: dict[str, Any],
                     done: list[tuple]) -> dict[str, Any]:
    """Server-side numbers for the per-layer metrics."""
    latency = metrics.get("latency", {})
    count = sum(entry["count"] for entry in latency.values())
    server_p50 = sum(entry["p50_ms"] * entry["count"]
                     for entry in latency.values()) / count \
        if count else 0.0
    client: dict[str, list[float]] = {}
    for request, _, elapsed in done:
        client.setdefault(request.op, []).append(elapsed * 1e3)
    overhead = 0.0
    for op, values in client.items():
        values.sort()
        median = values[len(values) // 2]
        overhead += (median - latency.get(op, {}).get("p50_ms", 0.0)) \
            * len(values)
    overhead /= max(1, len(done))
    cache = metrics.get("cache", {})
    batching = metrics.get("batching", {})
    return {
        "server_p50_ms": server_p50,
        "overhead_ms": overhead,
        "cache_hit_rate": float(cache.get("hit_rate", 0.0)),
        "cache_hits": int(cache.get("memory_hits", 0))
        + int(cache.get("disk_hits", 0)),
        "computations": int(batching.get("computations", 0)),
        "coalesced": int(batching.get("coalesced_requests", 0)),
        "queue_peak": int(metrics.get("queue", {}).get("peak", 0)),
    }


# -- static-analyze ---------------------------------------------------------------

class Static:
    """``repro analyze --static`` and ``--analytic`` over a seeded stream."""

    entry_modules = ("repro.api", "repro.analytic",
                     "repro.heuristic.static_frequency")
    counter_key = "all"     # every seed's stream does the same work
    min_passes = 3

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.expected = answers.load("static")["answers"]
        self.passes = 0

    def setup_once(self) -> None:
        pass

    def prepare(self, traced: bool):
        from repro.workloads.registry import get as get_workload
        self.passes += 1
        items = inputs.static_stream(self.seed, self.passes)
        sources = {}
        for name, input_name, _ in items:
            if (name, input_name) not in sources:
                sources[(name, input_name)] = get_workload(
                    name).generate(input_name, scale=inputs.SCALE)
        return items, sources

    def run(self, state, probe) -> Pass:
        items, sources = state
        reset_peak_rss()
        latencies = []
        outputs = []
        started = time.perf_counter()
        for index, item in enumerate(items):
            name, input_name, optimize = item
            probe.op = f"static-{index}"
            begun = time.perf_counter()
            payload = answers.static_payload(sources[(name, input_name)],
                                             optimize)
            latencies.append(time.perf_counter() - begun)
            outputs.append((item, payload))
        makespan = time.perf_counter() - started
        probe.op = None
        return Pass(makespan_s=makespan, latencies_s=latencies,
                    peak_rss_mb=peak_rss_mb(), outputs=outputs)

    def check(self, state, outcome: Pass) -> tuple[int, list[str]]:
        failures = []
        for item, payload in outcome.outputs:
            key = inputs.item_id(item)
            if answers.digest(payload) != self.expected[key]:
                failures.append(f"{key}: exported reports differ from "
                                "the pinned ones")
        return len(outcome.outputs), failures

    def finish(self, state) -> None:
        pass


def make(name: str, work: Path, seed: int):
    if name == "grid-cold":
        return Grid(work, seed, warm_traces=False)
    if name == "grid-from-traces":
        return Grid(work, seed, warm_traces=True)
    if name == "service-mixed":
        return Service(work, seed)
    if name == "static-analyze":
        return Static(work, seed)
    raise ValueError(f"unknown workload {name!r}")
