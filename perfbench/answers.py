"""Expected answers: canonical digests, the reference mode, the checks.

``python3 perfbench/run.py --reference`` writes ``perfbench/expected/``.
Where an independent reference exists it never touches the fast path
under test:

* executions use the ``closures`` engine, materialized (no trace store);
* cache and TLB statistics come from one :func:`simulate_trace` per
  configuration (no stack-distance sweep, no multi-config replay);
* redundancy comes from the quadratic :func:`naive_redundancy`;
* service responses are recomputed in-process from those pieces.

Rendered tables, the heuristic's delinquent sets, PCAX and the analytic
predictions have no second implementation; their digests are *pinned*
from the code at the commit that wrote them and labelled ``pinned``.

Answers are compared as SHA-1 digests of canonical JSON, so a mismatch
in any per-PC count shows up as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any, Iterable, Mapping

from perfbench import inputs

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def hex_counts(counts: Mapping[int, int]) -> dict[str, int]:
    return {f"{pc:#x}": int(n) for pc, n in sorted(counts.items())}


def load(name: str) -> dict[str, Any]:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


# -- canonical forms (shared by the reference and the checks) ------------------

def cache_columns(entry: Mapping[str, Any],
                  names: Iterable[str] = ("load_misses", "load_accesses",
                                          "store_misses",
                                          "store_accesses")
                  ) -> dict[str, Any]:
    return {name: dict(entry.get(name) or {}) for name in names}


def stats_columns(stats) -> dict[str, Any]:
    """A :class:`CacheStats` in the service's hex-keyed column form."""
    return {"load_misses": hex_counts(stats.load_misses),
            "load_accesses": hex_counts(stats.load_accesses),
            "store_misses": hex_counts(stats.store_misses),
            "store_accesses": hex_counts(stats.store_accesses)}


def canon_run(steps: int, block_counts: Mapping[int, int],
              stats) -> str:
    """One grid run cell: execution facts plus per-PC cache columns."""
    return digest({"steps": int(steps),
                   "block_counts": hex_counts(block_counts),
                   "stats": stats_columns(stats),
                   "prefetch": [stats.prefetch_ops, stats.prefetch_fills]})


def canon_response(op: str, result: Mapping[str, Any]) -> str:
    """The checked part of one service response."""
    if op == "simulate":
        return digest({
            "steps": result["steps"],
            "block_counts": result.get("block_counts") or {},
            "results": [dict(cache_columns(entry),
                             prefetch=[entry["prefetch_ops"],
                                       entry["prefetch_fills"]])
                        for entry in result["results"]]})
    if op == "predict":
        return digest({
            "analytic": bool(result["analytic"]),
            "coverage": round(float(result["coverage"]), 9),
            "results": [cache_columns(entry, ("load_misses",
                                              "load_accesses"))
                        for entry in result["results"]]})
    if op == "tlb":
        pcax = result["pcax"]
        return digest({
            "steps": result["steps"],
            "results": [cache_columns(entry) for entry in
                        result["results"]],
            "friendly": sorted(pcax["friendly"]),
            "delinquent": sorted(pcax["delinquent"]),
            "crosstab": pcax["crosstab"]})
    if op == "redundancy":
        return digest({
            "steps": result["steps"],
            "loads": result["loads"],
            "classes": result["classes"]})
    raise ValueError(f"unknown op {op!r}")


# -- reference mode ----------------------------------------------------------

def _reference_execution(source: str):
    """Closures engine, materialized trace, no store."""
    from repro.compiler.driver import compile_source
    from repro.machine.simulator import Machine
    program = compile_source(source)
    execution = Machine(program, trace_memory=True,
                        max_steps=inputs.MAX_STEPS,
                        engine="closures").run()
    return program, execution


def reference_grid(echo) -> dict[str, Any]:
    from repro.cache.config import TRAINING_CONFIG
    from repro.cache.model import simulate_trace
    from repro.campaign import Campaign
    from repro.experiments.grid import table_specs
    from repro.pipeline.session import Session
    from repro.workloads.registry import get as get_workload

    specs = table_specs()
    configs = {c for n in inputs.GRID_POOL for c in specs[n].configs}
    if configs != {TRAINING_CONFIG}:
        raise RuntimeError(f"grid pool configs changed: {configs}")
    runs: dict[str, str] = {}
    for workload, input_name, optimize in inputs.grid_run_keys():
        source = get_workload(workload).generate(input_name,
                                                 scale=inputs.SCALE)
        _, execution = _reference_execution(source)
        stats = simulate_trace(execution.trace, TRAINING_CONFIG)
        key = f"{workload}|{input_name}|{optimize}"
        runs[key] = canon_run(execution.steps, execution.block_counts,
                              stats)
        echo(f"reference grid run {key}")
    # Pinned: tables rendered by one in-memory campaign over the pool.
    with tempfile.TemporaryDirectory(dir=EXPECTED_DIR.parent) as tmp:
        session = Session(scale=inputs.SCALE, cache_dir=Path(tmp),
                          use_disk_cache=False)
        result = Campaign(session, list(inputs.GRID_POOL)
                          + list(inputs.GRID_ALWAYS),
                          directory=Path(tmp) / "campaign").run(jobs=1)
    tables = {str(n): {"sha1": hashlib.sha1(text.encode()).hexdigest(),
                       "text": text}
              for n, text in sorted(result.tables.items())}
    return {"runs": {"reference": "closures engine + simulate_trace",
                     "answers": runs},
            "tables": {"reference": "pinned", "answers": tables}}


def reference_service(echo) -> dict[str, Any]:
    from repro.analytic import predict_profile
    from repro.cache.config import CacheConfig
    from repro.cache.model import simulate_trace
    from repro.heuristic.classifier import DelinquencyClassifier
    from repro.patterns.builder import build_load_infos
    from repro.profiling.profile import BlockProfile
    from repro.redundancy import ag_crosstab, naive_redundancy
    from repro.tlb import (TlbConfig, TlbStats, pcax_crosstab,
                           pcax_profile)
    from repro.workloads.registry import get as get_workload

    answers: dict[str, dict[str, str]] = {}
    executions = {}
    for index, (workload, input_name) in \
            enumerate(inputs.SERVICE_SOURCES):
        source = get_workload(workload).generate(input_name,
                                                 scale=inputs.SCALE)
        executions[index] = _reference_execution(source)
    for request in inputs.service_universe():
        program, execution = executions[request.source]
        trace = execution.trace
        block_counts = {str(a): int(c) for a, c in
                        execution.block_counts.items()}
        profile = BlockProfile.from_execution(program, execution)
        params = request.params("")
        if request.op in ("simulate", "predict"):
            config = CacheConfig(**params["configs"][0])
            stats = simulate_trace(trace, config)
            columns = stats_columns(stats)
        if request.op == "simulate":
            expected = canon_response("simulate", {
                "steps": execution.steps, "block_counts": block_counts,
                "results": [dict(columns,
                                 prefetch_ops=stats.prefetch_ops,
                                 prefetch_fills=stats.prefetch_fills)]})
            label = "closures engine + simulate_trace"
        elif request.op == "predict":
            analytic = predict_profile(program,
                                       block_size=config.block_size)
            if analytic.confident:
                predicted = analytic.evaluate(config)
                columns = stats_columns(predicted)
                label = "pinned (analytic prediction)"
            else:
                label = ("closures engine + simulate_trace "
                         "(fallback), pinned coverage")
            expected = canon_response("predict", {
                "analytic": analytic.confident,
                "coverage": analytic.coverage,
                "results": [columns]})
        elif request.op == "tlb":
            configs = [TlbConfig(**g) for g in params["geometries"]]
            results = [stats_columns(TlbStats(
                config=c, cache=simulate_trace(trace,
                                               c.as_cache_config())))
                       for c in configs]
            pcax = pcax_profile(trace, page_size=configs[0].page_size)
            friendly = pcax.friendly_set()
            delinquent = DelinquencyClassifier().classify(
                build_load_infos(program), profile.load_exec_counts(),
                profile.hotspot_loads()).delinquent_set
            expected = canon_response("tlb", {
                "steps": execution.steps, "results": results,
                "pcax": {"friendly": [f"{pc:#x}" for pc in friendly],
                         "delinquent": [f"{pc:#x}"
                                        for pc in delinquent],
                         "crosstab": pcax_crosstab(
                             friendly, delinquent, set(pcax.loads))}})
            label = ("closures engine + simulate_trace per geometry; "
                     "pinned PCAX and delinquent set")
        else:
            stats = naive_redundancy(trace)
            loads = {f"{pc:#x}": {"accesses": load.accesses,
                                  "redundant": load.redundant,
                                  "reload_after_store":
                                      load.reload_after_store}
                     for pc, load in sorted(stats.loads.items())}
            classes = ag_crosstab(stats, build_load_infos(program),
                                  profile.load_exec_counts())
            expected = canon_response("redundancy", {
                "steps": execution.steps, "loads": loads,
                "classes": classes})
            label = "closures engine + naive_redundancy; pinned classes"
        answers[request.id] = {"sha1": expected, "reference": label}
        echo(f"reference service {request.id}")
    return {"answers": answers}


def static_payload(source: str, optimize: bool) -> dict[str, Any]:
    """What ``repro analyze --static`` and ``--analytic`` compute.

    Mirrors the two branches of ``repro.__main__.cmd_analyze`` and
    returns both exported reports plus the prediction's coverage.
    """
    from repro.analytic import predict_profile
    from repro.api import analyze_program
    from repro.cache.config import BASELINE_CONFIG
    from repro.export import report_to_dict
    from repro.heuristic.classifier import DelinquencyClassifier
    from repro.heuristic.static_frequency import static_exec_counts

    static = analyze_program(source, optimize=optimize, execute=False)
    static.heuristic = DelinquencyClassifier().classify(
        static.load_infos, exec_counts=static_exec_counts(static.program))
    analytic = analyze_program(source, optimize=optimize, execute=False)
    profile = predict_profile(analytic.program,
                              block_size=BASELINE_CONFIG.block_size)
    analytic.cache_stats = profile.evaluate(BASELINE_CONFIG)
    return {"static": report_to_dict(static),
            "analytic": report_to_dict(analytic),
            "coverage": round(profile.coverage, 9),
            "confident": profile.confident}


def reference_static(echo) -> dict[str, Any]:
    from repro.workloads.registry import get as get_workload
    answers = {}
    for item in inputs.static_universe():
        name, input_name, optimize = item
        source = get_workload(name).generate(input_name,
                                             scale=inputs.SCALE)
        answers[inputs.item_id(item)] = digest(
            static_payload(source, optimize))
    echo(f"reference static: {len(answers)} items")
    return {"reference": "pinned", "answers": answers}


def write_reference(echo=print) -> None:
    from repro.campaign import code_digest
    EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    stamp = {"code_digest": code_digest(), "scale": inputs.SCALE}
    for name, build in (("static", reference_static),
                        ("service", reference_service),
                        ("grid", reference_grid)):
        payload = dict(stamp, **build(echo))
        (EXPECTED_DIR / f"{name}.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n")
        echo(f"wrote {EXPECTED_DIR / f'{name}.json'}")
