"""Run ``repro serve`` inside the benchmark's own state directories.

Usage (from the repository root)::

    python3 perfbench/serve.py --state DIR --traces DIR --probe-dir DIR \
        [--trace] -- <repro serve arguments>

The service keeps its trace store, stack-distance profiles and result
cache under the pipeline's default cache directory; this launcher points
that directory at ``--state`` (and the trace store at ``--traces``)
before the service modules load, so a benchmark round starts from a
known state without touching the repository's ``.repro_cache``.

A :class:`perfbench.probe.Probe` counts (and with ``--trace`` also
times) the layer calls made in the worker processes.  After every
operation each worker rewrites ``counters-<pid>.json`` and appends its
new spans to ``spans-<pid>.jsonl`` in ``--probe-dir``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: The probe and its output directory.  Module state on purpose: the
#: scheduler pickles :func:`execute_op` by name, and the forked worker
#: processes find the probe here.
_STATE: dict = {}


def execute_op(op, params):
    """The scheduler's compute entry point, wrapped with the probe."""
    from repro.service import ops
    probe = _STATE["probe"]
    _STATE["ops"] = _STATE.get("ops", 0) + 1
    probe.op = f"{os.getpid()}-{_STATE['ops']}"
    try:
        with probe.span(f"service.{op}"):
            return ops.execute_op(op, params)
    finally:
        _flush(probe, Path(_STATE["probe_dir"]))


def _flush(probe, directory: Path) -> None:
    pid = os.getpid()
    temp = directory / f"counters-{pid}.json.tmp"
    temp.write_text(json.dumps(dict(probe.counters)))
    os.replace(temp, directory / f"counters-{pid}.json")
    if probe.spans:
        spans, probe.spans = probe.spans, []
        with open(directory / f"spans-{pid}.jsonl", "a") as handle:
            for span in spans:
                span["id"] = f"{pid}:{span['id']}"
                if span["parent"] is not None:
                    span["parent"] = f"{pid}:{span['parent']}"
                handle.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--state", required=True)
    parser.add_argument("--traces", required=True)
    parser.add_argument("--probe-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    state = Path(args.state).resolve()
    import repro.pipeline.session as session_module
    session_module.default_cache_dir = lambda: state

    from repro.service import ops, scheduler
    from repro.store.tracestore import TraceStore
    ops._TRACE_STORE = TraceStore(Path(args.traces).resolve())

    from perfbench.probe import Probe
    probe = Probe(trace=args.trace).install()
    probe.counters.clear()
    Path(args.probe_dir).mkdir(parents=True, exist_ok=True)
    _STATE.update(probe=probe, probe_dir=str(Path(args.probe_dir)))
    scheduler.execute_op = execute_op

    from repro.__main__ import main as repro_main
    return repro_main(["serve"] + serve_args)


if __name__ == "__main__":
    sys.exit(main())
