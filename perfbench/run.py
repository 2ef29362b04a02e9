"""The repository's benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 10 --trace 0

Workloads: ``grid-cold``, ``grid-from-traces``, ``service-mixed`` and
``static-analyze`` (see ``perfbench/README.md``).  Each run sets up,
repeats measured passes from a clean state until ``--seconds`` have
passed (at least one pass), checks every answer and the work counters
of every pass against ``perfbench/expected/`` and prints every metric
by name with its unit.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 72, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run measures untraced passes for half the time and
traced passes for the other half and reports the per-layer metrics,
including the tracing overhead between the two halves.  Spans go to
``perfbench/_out/spans/`` and a stamped run record with the work
counters of every pass to ``perfbench/_out/records/``.

``--reference`` recomputes ``perfbench/expected/`` instead (minutes).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "_out"

#: Counters that depend only on the inputs, never on timing: they must
#: repeat exactly across the passes of a run and across runs of a seed.
DETERMINISTIC_SUFFIXES = (".calls", ".runs", ".steps", ".rows_written",
                          ".rows_decoded", ".bytes_written",
                          ".entries_written", ".passes", ".trace_passes",
                          ".opens", ".open_misses", ".profile_hits",
                          ".profile_misses", ".loads", ".confident",
                          ".cells_computed", ".cells_cached",
                          ".computations", ".cache_hits", ".coalesced")

WORKLOADS = ("grid-cold", "grid-from-traces", "service-mixed",
             "static-analyze")

END_TO_END_UNITS = {"setup_s": "s", "makespan_s": "s", "ops_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "peak_rss_mb": "MiB"}


def deterministic(counters: dict[str, int]) -> dict[str, int]:
    return {name: value for name, value in sorted(counters.items())
            if name.endswith(DETERMINISTIC_SUFFIXES)}


def host_info() -> dict[str, Any]:
    """``nproc`` and load averages, as in ``benchmarks/conftest.py``."""
    try:
        loadavg = [round(value, 2) for value in os.getloadavg()]
    except OSError:
        loadavg = None
    return {"nproc": os.cpu_count() or 1, "loadavg": loadavg}


# -- measuring ------------------------------------------------------------------

def startup_s(modules: tuple[str, ...], samples: int = 5) -> float:
    """Median start-up of a fresh interpreter importing ``modules``.

    This is what the workload's entry point (``python -m repro campaign``,
    ``repro analyze``, the service client) pays before its first
    operation, so work moved to import time shows in ``setup_s``.
    """
    code = "import sys; sys.path[:0] = sys.argv[1:]; import " \
        + ", ".join(modules)
    times = []
    for _ in range(samples):
        begun = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - begun)
    return statistics.median(times)


def measure(workload, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up once, then run passes: untraced, and traced if ``trace``.

    Every pass starts with its own set-up from a clean state.  An
    untraced run makes at least ``workload.min_passes`` passes, sized
    so that they already fill ``seconds`` here: the pass count, and
    with it the tail percentile, then stays the same from run to run.
    A traced run needs no steady medians and makes one pass a phase.
    """
    from perfbench.probe import Probe
    startup = startup_s(workload.entry_modules)
    probe = Probe().install()
    try:
        started = time.perf_counter()
        workload.setup_once()
        once_s = time.perf_counter() - started
        setup_counters = dict(probe.counters)
        setups: list[float] = []
        phases = [(False, seconds / 2), (True, seconds / 2)] if trace \
            else [(False, seconds)]
        least = 1 if trace else workload.min_passes
        passes: list[tuple[bool, Any]] = []
        attempted = 0
        failures: list[str] = []
        for traced, budget in phases:
            phase_start = time.perf_counter()
            count = 0
            while count < least \
                    or time.perf_counter() - phase_start < budget:
                count += 1
                begun = time.perf_counter()
                state = workload.prepare(traced)
                setups.append(time.perf_counter() - begun)
                try:
                    probe.counters.clear()
                    probe.spans.clear()
                    probe.trace = traced
                    outcome = workload.run(state, probe)
                    probe.trace = False
                    for name, value in probe.counters.items():
                        outcome.counters[name] = \
                            outcome.counters.get(name, 0) + value
                    outcome.spans.extend(probe.spans)
                    checked, failed = workload.check(state, outcome)
                finally:
                    probe.trace = False
                    workload.finish(state)
                attempted += checked
                failures.extend(failed)
                outcome.outputs = None
                passes.append((traced, outcome))
    finally:
        probe.uninstall()
    return {"setup_s": startup + once_s + statistics.median(setups),
            "passes": passes, "attempted": attempted,
            "failures": failures,
            "setup_counters": deterministic(setup_counters)}


def counter_failures(expected: dict[str, Any], counter_key: str,
                     setup_counters: dict[str, int],
                     pass_counters: list[dict[str, int]]) -> list[str]:
    """Compare a run's work counters with the recorded ones.

    ``expected`` is one workload's entry of ``expected/counters.json``:
    the set-up's counters and every pass's, keyed by ``counter_key``.
    A run of one pass is checked as well as a run of many, and two runs
    of one seed agree exactly or one of them fails.
    """
    failures = []

    def compare(what: str, got: dict[str, int],
                want: dict[str, int]) -> None:
        if got != want:
            names = sorted(name for name in set(got) | set(want)
                           if got.get(name) != want.get(name))
            failures.append(f"{what} work counters differ from the "
                            f"recorded ones: {', '.join(names)}")

    compare("set-up", setup_counters, expected["setup"])
    want = expected["passes"].get(counter_key)
    if want is None:
        failures.append(f"no recorded work counters for {counter_key!r}")
        return failures
    for index, got in enumerate(pass_counters, 1):
        compare(f"pass {index}", got, want)
    return failures


def end_to_end(setup_s: float, passes: list) -> dict[str, float]:
    from perfbench.probe import tail_percentile
    makespans = [p.makespan_s for p in passes]
    latencies = [value for p in passes for value in p.latencies_s]
    ops = len(latencies)
    _, tail, _ = tail_percentile(latencies)
    return {
        "setup_s": setup_s,
        "makespan_s": statistics.median(makespans),
        "ops_per_s": ops / sum(makespans),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }


def per_layer(passes: list, untraced: dict[str, float],
              traced: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged over the traced passes."""
    from perfbench.probe import layer_self_times
    n = len(passes)
    counters: dict[str, float] = {}
    own: dict[str, float] = {}
    totals: dict[str, float] = {}
    spans = 0
    service: dict[str, float] = {}
    for outcome in passes:
        for name, value in outcome.counters.items():
            counters[name] = counters.get(name, 0) + value / n
        for name, value in layer_self_times(outcome.spans).items():
            own[name] = own.get(name, 0.0) + value / n
        for span in outcome.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) \
                + (span["end"] - span["start"]) / n
        spans += len(outcome.spans)
        for name, value in outcome.service.items():
            service[name] = service.get(name, 0.0) + value / n

    def c(name: str) -> float:
        return counters.get(name, 0.0)

    def s(prefix: str) -> float:
        return sum(value for name, value in own.items()
                   if name.startswith(prefix + "."))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    predicted = c("analytic.predict_profile.calls")
    hits, misses = c("cache.profile_hits"), c("cache.profile_misses")
    running_s = own.get("machine.run", 0.0) \
        + own.get("machine.run_streaming", 0.0)
    metrics = {
        "compiler.calls": (c("compiler.compile_source.calls"), "count"),
        "compiler.self_s": (s("compiler"), "s"),
        "patterns.calls": (c("patterns.build_load_infos.calls"), "count"),
        "patterns.self_s": (s("patterns"), "s"),
        "patterns.loads": (c("patterns.loads"), "count"),
        "heuristic.calls": (c("heuristic.classify.calls"), "count"),
        "heuristic.self_s": (s("heuristic"), "s"),
        "analytic.calls": (predicted + c("analytic.evaluate.calls"),
                           "count"),
        "analytic.self_s": (s("analytic"), "s"),
        "analytic.confident_ratio": (
            ratio(c("analytic.confident"), predicted), "ratio"),
        "machine.runs": (c("machine.runs"), "count"),
        "machine.self_s": (s("machine"), "s"),
        "machine.init_s": (own.get("machine.init", 0.0), "s"),
        "machine.steps": (c("machine.steps"), "count"),
        "machine.steps_per_s": (ratio(c("machine.steps"), running_s),
                                "1/s"),
        "store.encode_s": (own.get("store.encode", 0.0), "s"),
        "store.rows_written": (c("store.rows_written"), "count"),
        "store.bytes_written": (c("store.bytes_written"), "bytes"),
        "store.decode_s": (own.get("store.decode", 0.0)
                           + own.get("store.open", 0.0), "s"),
        "store.rows_decoded": (c("store.rows_decoded"), "count"),
        "store.opens": (c("store.opens"), "count"),
        "store.open_misses": (c("store.open_misses"), "count"),
        "cache.calls": (c("cache.simulate_sweep.calls")
                        + c("cache.simulate_trace_multi.calls"), "count"),
        "cache.self_s": (s("cache"), "s"),
        "cache.trace_passes": (c("cache.trace_passes"), "count"),
        "cache.profile_hits": (hits, "count"),
        "cache.profile_misses": (misses, "count"),
        "cache.profile_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "tlb.calls": (c("tlb.simulate_tlb.calls")
                      + c("tlb.pcax_profile.calls"), "count"),
        "tlb.self_s": (s("tlb"), "s"),
        "tlb.pcax_self_s": (own.get("tlb.pcax_profile", 0.0), "s"),
        "redundancy.calls": (c("redundancy.analyze_redundancy.calls"),
                             "count"),
        "redundancy.self_s": (s("redundancy"), "s"),
        "pipeline.calls": (sum(value for name, value in counters.items()
                               if name.startswith("pipeline.")), "count"),
        "pipeline.self_s": (s("pipeline"), "s"),
        "experiments.self_s": (s("experiments"), "s"),
        "experiments.table16_s": (totals.get("experiments.table16", 0.0),
                                  "s"),
        "experiments.table17_s": (totals.get("experiments.table17", 0.0),
                                  "s"),
        "campaign.self_s": (s("campaign"), "s"),
        "campaign.cells_computed": (c("campaign.cells_computed"),
                                    "count"),
        "campaign.cells_cached": (c("campaign.cells_cached"), "count"),
        "service.server_p50_ms": (service.get("server_p50_ms", 0.0),
                                  "ms"),
        "service.overhead_ms": (service.get("overhead_ms", 0.0), "ms"),
        "service.cache_hit_rate": (service.get("cache_hit_rate", 0.0),
                                   "ratio"),
        "service.computations": (service.get("computations", 0.0),
                                 "count"),
        "service.coalesced": (service.get("coalesced", 0.0), "count"),
        "service.queue_peak": (service.get("queue_peak", 0.0), "count"),
        "tracing.spans": (spans / n, "count"),
        "tracing.overhead_makespan_pct": (
            100.0 * (ratio(traced["makespan_s"],
                           untraced["makespan_s"]) - 1.0), "%"),
        "tracing.overhead_p50_pct": (
            100.0 * (ratio(traced["latency_p50_ms"],
                           untraced["latency_p50_ms"]) - 1.0), "%"),
    }
    return metrics


def write_reference_counters(echo=print) -> None:
    """Record every workload's work counters in ``expected/counters.json``.

    One counting-mode run per workload and counter key (for the grid,
    one per table subset), each of at least two passes; the run must be
    correct and its passes must agree.  The counters are pinned: a
    change that alters the work on purpose records them again.
    """
    from perfbench import answers, workloads
    from repro.campaign import code_digest
    recorded: dict[str, Any] = {}
    for name in WORKLOADS:
        seeds: dict[str, int] = {}
        for seed in range(1, 100):
            key = workloads.make(name, OUT, seed).counter_key
            seeds.setdefault(key, seed)
        entry: dict[str, Any] = {"setup": None, "passes": {}}
        for key, seed in sorted(seeds.items()):
            work = OUT / "work" / f"reference-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                workload = workloads.make(name, work, seed)
                workload.min_passes = max(2, workload.min_passes)
                result = measure(workload, 0.0, trace=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            counters = [deterministic(p.counters)
                        for _, p in result["passes"]]
            if result["failures"] or any(c != counters[0]
                                         for c in counters):
                raise RuntimeError(f"{name} seed {seed}: wrong answers "
                                   "or unsteady counters")
            if entry["setup"] not in (None, result["setup_counters"]):
                raise RuntimeError(f"{name}: set-up counters differ "
                                   "between seeds")
            entry["setup"] = result["setup_counters"]
            entry["passes"][key] = counters[0]
            echo(f"reference counters {name} {key} (seed {seed})")
        recorded[name] = entry
    payload = {"code_digest": code_digest(), "reference": "pinned",
               "answers": recorded}
    path = answers.EXPECTED_DIR / "counters.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    echo(f"wrote {path}")


# -- the command ------------------------------------------------------------------

def run(args: argparse.Namespace) -> int:
    from perfbench import answers, inputs, workloads
    from repro.campaign import code_digest

    stamp = dict(host_info(), python=platform.python_version(),
                 code_digest=code_digest(), seed=args.seed,
                 scale=inputs.SCALE, workload=args.workload,
                 seconds=args.seconds, trace=args.trace)
    loadavg_before = stamp.pop("loadavg")
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, work, args.seed)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp["loadavg_before"] = loadavg_before
    stamp["loadavg_after"] = host_info()["loadavg"]

    untraced = [p for traced, p in result["passes"] if not traced]
    traced = [p for traced, p in result["passes"] if traced]
    metrics_e2e = end_to_end(result["setup_s"], untraced)
    counters = [deterministic(p.counters) for _, p in result["passes"]]
    failures = list(result["failures"]) + counter_failures(
        answers.load("counters")["answers"][args.workload],
        workload.counter_key, result["setup_counters"], counters)
    from perfbench.probe import tail_percentile
    latencies = [v for p in untraced for v in p.latencies_s]
    tail_p, _, samples = tail_percentile(latencies)
    attempted = max(1, result["attempted"])
    error_rate = len(result["failures"]) / attempted

    print(f"perfbench {args.workload} seed={args.seed} "
          f"scale={inputs.SCALE} passes={len(untraced)}"
          f"+{len(traced)} traced nproc={stamp['nproc']}")
    for name, value in metrics_e2e.items():
        line = f"  {name:<16} {value:14.6f} {END_TO_END_UNITS[name]}"
        if name == "latency_tail_ms":
            line += f"  (p{tail_p} of {samples} samples)"
        print(line)
    print(f"  {'error_rate':<16} {error_rate:14.6f} ratio  "
          f"({len(result['failures'])} of {attempted} answers wrong)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    if traced:
        metrics_traced = end_to_end(result["setup_s"], traced)
        layers = per_layer(traced, metrics_e2e, metrics_traced)
        for name, (value, unit) in layers.items():
            print(f"  {name:<30} {value:16.6f} {unit}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        spans_path = OUT / "spans" / \
            f"{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w") as handle:
            for outcome in traced:
                for span in outcome.spans:
                    handle.write(json.dumps(span) + "\n")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics_e2e.items()}

    record = {"stamp": stamp, "metrics": metrics,
              "latency_tail": {"percentile": tail_p, "samples": samples},
              "error_rate": error_rate, "attempted": attempted,
              "failures": failures,
              "setup_counters": result["setup_counters"],
              "pass_makespans_s": [p.makespan_s for _, p in result["passes"]],
              "pass_traced": [t for t, _ in result["passes"]],
              "pass_counters": counters}
    record_path = OUT / "records" / (f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  counters {json.dumps(counters[0], sort_keys=True)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the delinquent-load "
                    "pipeline.")
    parser.add_argument("--workload", default="static-analyze",
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="rewrite perfbench/expected/ and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    if args.reference:
        from perfbench.answers import write_reference
        write_reference()
        write_reference_counters()
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
