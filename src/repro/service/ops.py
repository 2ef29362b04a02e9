"""The compute behind the scheduled operations.

These functions are deliberately **pure and picklable** (module-level,
plain-dict in / plain-dict out) so the scheduler can run them unchanged
on a thread or in a persistent worker process.  ``analyze`` and
``classify`` return exactly :func:`repro.export.report_to_dict` of the
equivalent in-process :func:`repro.api.analyze_program` call — the wire
schema *is* the export schema, so batch files and served responses are
interchangeable.

Every op that needs a trace (an executing ``analyze``, ``simulate``,
``predict``'s fallback, ``tlb``, ``redundancy``) acquires it through
the pipeline's single acquisition path
(:class:`repro.pipeline.acquire.Acquisition`) over the shared trace
store: a program the store holds is never executed again, and one the
store cannot take is executed materialized.
"""

from __future__ import annotations

import time
from typing import Any

from repro.api import analyze_program, classify_report
from repro.cache.config import CacheConfig
from repro.cache.model import simulate_trace
from repro.cache.stackdist import ProfileStore, simulate_sweep
from repro.compiler.driver import compile_source
from repro.export import report_to_dict
from repro.heuristic.classes import Weights
from repro.pipeline.acquire import Acquisition
from repro.pipeline.session import default_cache_dir
from repro.service import protocol
from repro.store.tracestore import TraceStore, trace_key

#: Stack-distance profiles for the merged ``simulate`` op, sharing the
#: pipeline/service warm directory: a re-sweep of a known program with
#: new LRU geometries is answered from histograms, not a trace replay.
_PROFILE_STORE = ProfileStore(disk_dir=default_cache_dir() / "stackdist")

#: Chunked trace store shared with the pipeline session (same content
#: keys): a ``simulate`` request for a known program skips execution
#: entirely and streams the stored trace; a cold request streams its
#: execution into the store, so the server never holds a whole trace
#: per request.
_TRACE_STORE = TraceStore(default_cache_dir() / "traces")


def _acquire(params: dict[str, Any]) -> Acquisition:
    """Compile the request's program; its trace comes through the
    shared store (looked up at call time, so a rebound
    ``_TRACE_STORE`` takes effect)."""
    program = compile_source(params["source"],
                             optimize=params["optimize"])
    # params may carry the engine (e.g. $REPRO_ENGINE on the server).
    return Acquisition(
        _TRACE_STORE,
        trace_key(params["source"], params["optimize"],
                  params["max_steps"]),
        lambda: program, params["max_steps"], params.get("engine"))


def _per_pc(counts: dict[int, int]) -> dict[str, int]:
    return {f"{pc:#x}": n for pc, n in sorted(counts.items())}


def _cache_row(config: CacheConfig, stats) -> dict[str, Any]:
    """One config's load columns, shared by ``simulate``/``predict``."""
    return {
        "config": protocol.cache_config_to_dict(config),
        "description": config.describe(),
        "total_load_misses": stats.total_load_misses,
        "total_load_accesses": sum(stats.load_accesses.values()),
        "load_misses": _per_pc(stats.load_misses),
        "load_accesses": _per_pc(stats.load_accesses),
    }


def run_analysis(params: dict[str, Any]) -> dict[str, Any]:
    """``analyze`` / ``classify``: the full pipeline, export schema out.

    ``params`` must be normalized (see ``protocol._normalize_analysis``);
    ``execute=False`` is the purely static ``classify`` configuration.
    An executing ``analyze`` replays its trace from the shared store
    like ``simulate`` does, so a known program is not executed again;
    the payload equals the in-process report either way.
    """
    options = dict(weights=Weights.from_dict(params["weights"]),
                   delta=params["delta"])
    if not params["execute"]:
        return report_to_dict(analyze_program(
            params["source"], optimize=params["optimize"], execute=False,
            **options))
    cache = CacheConfig(**params["cache"])
    acquisition = _acquire(params)
    stats = acquisition.replay(
        lambda source: simulate_trace(source, cache))
    return report_to_dict(classify_report(
        acquisition.program, acquisition.facts(), stats, **options))


def run_simulate(params: dict[str, Any]) -> dict[str, Any]:
    """``simulate``: at most one execution ever, streamed replays.

    Routes through the dispatching sweep engine
    (:func:`repro.cache.stackdist.simulate_sweep`): a request for N
    configs — or N batched requests for one config each — costs at most
    one trace pass, and LRU geometry sweeps collapse to one pass per
    set mapping with the per-PC distance profile cached on disk.
    """
    configs = [CacheConfig(**entry) for entry in params["configs"]]
    acquisition = _acquire(params)
    sweep = acquisition.replay(
        lambda source: simulate_sweep(source, configs,
                                      store=_PROFILE_STORE))
    facts = acquisition.facts()
    results = []
    for config, stats in zip(configs, sweep):
        # Full per-PC store and prefetch columns: remote campaign
        # cells rebuild a complete CacheStats from this response.
        results.append(dict(
            _cache_row(config, stats),
            store_misses=_per_pc(stats.store_misses),
            store_accesses=_per_pc(stats.store_accesses),
            prefetch_ops=stats.prefetch_ops,
            prefetch_fills=stats.prefetch_fills))
    response = {
        "steps": facts.steps,
        "num_loads": acquisition.program.num_loads(),
        "results": results,
    }
    # The block profile lets remote callers reconstruct the
    # BlockProfile (hotspot loads, exec counts) without executing.
    if facts.block_counts:
        response["block_counts"] = {str(a): int(c) for a, c in
                                    facts.block_counts.items()}
    return response


def run_predict(params: dict[str, Any]) -> dict[str, Any]:
    """``predict``: per-PC misses for every config, zero executions.

    Serves LRU geometries from the analytic reuse profile (cached in
    the profile store's ``an-`` keyspace, keyed by program content).
    When :func:`repro.analytic.predict_configs` decides to fall back —
    static coverage below the confidence threshold (pointer chasing,
    unresolved trip counts) or a non-LRU policy — the request degrades
    to the measured ``simulate`` path unless ``fallback`` is off, in
    which case the low-coverage prediction is returned as-is with its
    confidence reported.  Either way the per-config result rows mirror
    ``simulate``'s schema, plus the analytic provenance fields.
    """
    from repro.analytic.answer import cached_profile, predict_configs
    program = compile_source(params["source"],
                             optimize=params["optimize"])
    configs = [CacheConfig(**entry) for entry in params["configs"]]
    prediction = predict_configs(
        configs, lambda block_size: cached_profile(
            _PROFILE_STORE, params["source"], params["optimize"],
            lambda: program, block_size), params["fallback"])
    if not prediction.analytic:
        response = run_simulate(params)
        response["analytic"] = False
        response["coverage"] = prediction.coverage
        return response
    return {
        "steps": 0,                       # no machine execution
        "num_loads": program.num_loads(),
        "results": [_cache_row(config, stats) for config, stats
                    in zip(configs, prediction.stats)],
        "analytic": True,
        "coverage": prediction.coverage,
        "low_confidence_pcs": {
            f"{pc:#x}": list(reasons) for pc, reasons
            in sorted(prediction.low_confidence_pcs.items())},
    }


def run_tlb(params: dict[str, Any]) -> dict[str, Any]:
    """``tlb``: per-geometry dTLB stats plus the PCAX cross-tab.

    Rides the same sweep engine and trace store as ``simulate`` — the
    per-PC distance histograms for each page size persist beside the
    cache sweeps' — and evaluates the PCAX predictor at the first
    geometry's page size, cross-tabulating PCAX-friendly loads against
    the paper's delinquent set (classified with the run's exec counts
    and hotspots, identical on cold and store-warmed paths).
    """
    from repro.tlb import (TlbConfig, pcax_crosstab, pcax_profile,
                           simulate_tlb)
    configs = [TlbConfig(**entry) for entry in params["geometries"]]
    acquisition = _acquire(params)
    sweep = acquisition.replay(
        lambda source: simulate_tlb(source, configs,
                                    store=_PROFILE_STORE))
    results = []
    for stats in sweep:
        results.append({
            "geometry": stats.config.to_dict(),
            "description": stats.config.describe(),
            "total_accesses": stats.total_accesses,
            "total_misses": stats.total_misses,
            "miss_rate": stats.miss_rate,
            "load_misses": _per_pc(stats.load_misses),
            "load_accesses": _per_pc(stats.load_accesses),
            "store_misses": _per_pc(stats.store_misses),
            "store_accesses": _per_pc(stats.store_accesses),
        })
    page_size = configs[0].page_size
    profile = acquisition.replay(
        lambda source: pcax_profile(source, page_size=page_size,
                                    threshold=params["threshold"]))
    facts = acquisition.facts()
    friendly = profile.friendly_set()
    delinquent = classify_report(acquisition.program,
                                 facts).delinquent_loads
    universe = set(profile.loads)
    return {
        "steps": facts.steps,
        "num_loads": acquisition.program.num_loads(),
        "results": results,
        "pcax": {
            "page_size": page_size,
            "threshold": params["threshold"],
            "loads": {f"{pc:#x}": {"accesses": load.accesses,
                                   "predicted": load.predicted,
                                   "ratio": load.ratio}
                      for pc, load in sorted(profile.loads.items())},
            "friendly": [f"{pc:#x}" for pc in sorted(friendly)],
            "delinquent": [f"{pc:#x}" for pc in sorted(delinquent)],
            "crosstab": pcax_crosstab(friendly, delinquent, universe),
        },
    }


def run_redundancy(params: dict[str, Any]) -> dict[str, Any]:
    """``redundancy``: per-PC redundant-load counts plus AG cross-tab.

    One streaming pass over the stored (or freshly streamed) trace;
    the AG-class attribution uses the same exec counts the heuristic
    sees, so the cross-tab matches what the tables print.
    """
    from repro.patterns.builder import build_load_infos
    from repro.profiling.profile import BlockProfile
    from repro.redundancy import ag_crosstab, analyze_redundancy
    acquisition = _acquire(params)
    stats = acquisition.replay(analyze_redundancy)
    facts = acquisition.facts()
    program = acquisition.program
    load_exec = BlockProfile.from_execution(program,
                                            facts).load_exec_counts()
    return {
        "steps": facts.steps,
        "num_loads": program.num_loads(),
        "total_loads": stats.total_loads,
        "total_redundant": stats.total_redundant,
        "total_reload_after_store": stats.total_reload_after_store,
        "ratio": stats.ratio,
        "loads": {f"{pc:#x}": {
                      "accesses": load.accesses,
                      "redundant": load.redundant,
                      "reload_after_store": load.reload_after_store}
                  for pc, load in sorted(stats.loads.items())},
        "classes": ag_crosstab(stats, build_load_infos(program),
                               load_exec),
    }


def run_sleep(params: dict[str, Any]) -> dict[str, Any]:
    """Diagnostic op: hold a worker slot for ``seconds``."""
    time.sleep(params["seconds"])
    return {"slept": params["seconds"]}


#: op name -> compute function, all scheduler-run ops.
COMPUTE = {
    "analyze": run_analysis,
    "classify": run_analysis,
    "simulate": run_simulate,
    "predict": run_predict,
    "tlb": run_tlb,
    "redundancy": run_redundancy,
    "sleep": run_sleep,
}


def execute_op(op: str, params: dict[str, Any]) -> dict[str, Any]:
    """Single picklable entry point used by the worker pool."""
    return COMPUTE[op](params)
