"""The benchmark's inputs: fixed universes and the seeded draws over them.

Every workload draws from a finite universe, so the expected answers for
every possible seed fit in ``perfbench/expected/`` and each seed costs
about the same amount of work (the spread between seeds stays within the
bounds in ``BENCHMARK.json``).  Draws use ``random.Random`` seeded with a
string that names the workload, so the same seed always gives the same
inputs and the workloads' draws are independent of each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

#: Workload size multiplier for every generated MiniC source.
SCALE = 0.01

#: Execution step cap, the pipeline's default (part of trace-store keys).
MAX_STEPS = 300_000_000

# -- grid workloads -------------------------------------------------------

#: Tables 3, 4 and 5 read the same run cells (the eleven training
#: workloads, input 1, unoptimized, the training cache), so every subset
#: costs the same executions; Table 6 is static metadata.  Tables over all
#: eighteen workloads cost a cold run of ~45 s and Tables 16/17 ~40 s of
#: rendering even warm, too much for one run (see README.md).
GRID_POOL = (3, 4, 5)
GRID_ALWAYS = (6,)


def grid_tables(seed: int) -> list[int]:
    """Two of Tables 3-5 plus Table 6."""
    rng = random.Random(f"grid:{seed}")
    return sorted(rng.sample(GRID_POOL, 2) + list(GRID_ALWAYS))


def grid_run_keys() -> list[tuple[str, str, bool]]:
    """Run cells of the grid pool (identical for every table subset)."""
    from repro.experiments.grid import campaign_cells
    return [cell.run_key for cell in campaign_cells(list(GRID_POOL))]


# -- service-mixed ------------------------------------------------------------

#: (workload, input) sources the service answers for; their traces are
#: small enough for the quadratic redundancy reference.
SERVICE_SOURCES = (
    ("129.compress", "input1"),
    ("129.compress", "input2"),
    ("197.parser", "input1"),
    ("147.vortex", "input1"),
)

#: LRU geometries (size, assoc) at 32-byte blocks for simulate / predict.
#: A replay at associativity <= 2 costs about two thirds of one at >= 4,
#: so requests draw from the two classes in fixed numbers.
SIM_GEOMETRIES = (
    (4096, 1), (4096, 2), (8192, 2), (8192, 4),
    (16384, 4), (16384, 8), (32768, 4), (65536, 8),
)
_LOW_ASSOC = tuple(i for i, (_, a) in enumerate(SIM_GEOMETRIES) if a <= 2)
_HIGH_ASSOC = tuple(i for i, (_, a) in enumerate(SIM_GEOMETRIES) if a > 2)

#: TLB geometry sets (page_size, entries, assoc) for the tlb op.
TLB_SETS = (
    ((4096, 16, 0), (4096, 64, 4)),
    ((4096, 32, 0), (4096, 128, 8)),
    ((8192, 16, 0), (8192, 64, 4)),
)

#: Later repeats of every new request (result-cache reads).  Two thirds
#: of the requests are reads, so the median latency is the cached path's
#: and the tail is the computing path's.
REPEATS = 2

#: New requests per source per round: (op, variant pool, how many
#: distinct variants drawn from the pool).
SERVICE_MIX = (
    ("simulate", _LOW_ASSOC, 1), ("simulate", _HIGH_ASSOC, 2),
    ("predict", _LOW_ASSOC, 1), ("predict", _HIGH_ASSOC, 1),
    ("tlb", tuple(range(len(TLB_SETS))), 1),
    ("redundancy", (0,), 1),
)


@dataclass(frozen=True)
class Request:
    """One service request of the universe."""

    op: str
    source: int            # index into SERVICE_SOURCES
    variant: int = 0       # geometry index (simulate/predict/tlb)

    @property
    def id(self) -> str:
        workload, input_name = SERVICE_SOURCES[self.source]
        return f"{self.op}|{workload}|{input_name}|{self.variant}"

    def params(self, source_text: str) -> dict[str, Any]:
        params: dict[str, Any] = {"source": source_text,
                                  "optimize": False,
                                  "max_steps": MAX_STEPS}
        if self.op in ("simulate", "predict"):
            size, assoc = SIM_GEOMETRIES[self.variant]
            params["configs"] = [{"size": size, "assoc": assoc,
                                  "block_size": 32,
                                  "replacement": "lru"}]
        elif self.op == "tlb":
            params["geometries"] = [
                {"page_size": page, "entries": entries, "assoc": assoc}
                for page, entries, assoc in TLB_SETS[self.variant]]
        return params


def service_universe() -> list[Request]:
    """Every request any seed can draw."""
    universe = []
    for source in range(len(SERVICE_SOURCES)):
        for variant in range(len(SIM_GEOMETRIES)):
            universe.append(Request("simulate", source, variant))
            universe.append(Request("predict", source, variant))
        for variant in range(len(TLB_SETS)):
            universe.append(Request("tlb", source, variant))
        universe.append(Request("redundancy", source))
    return universe


def service_plan(seed: int) -> list[Request]:
    """The request list of one round.

    Each source gets the :data:`SERVICE_MIX` of new keys, and every new
    key is repeated :data:`REPEATS` times later in the list, so every
    seed has the same number of computations and hits.
    """
    rng = random.Random(f"service:{seed}")
    fresh: list[Request] = []
    for source in range(len(SERVICE_SOURCES)):
        for op, pool, count in SERVICE_MIX:
            for variant in rng.sample(pool, count):
                fresh.append(Request(op, source, variant))
    rng.shuffle(fresh)
    sequence: list[Request] = []
    unrepeated: list[Request] = []
    while fresh or unrepeated:
        if unrepeated and (not fresh or rng.random() < 0.5):
            sequence.append(unrepeated.pop(rng.randrange(len(unrepeated))))
        else:
            request = fresh.pop()
            sequence.append(request)
            unrepeated += [request] * REPEATS
    return sequence


# -- static-analyze -----------------------------------------------------------

def static_universe() -> list[tuple[str, str, bool]]:
    """18 workloads x 2 inputs x {-O0, -O}."""
    from repro.experiments.common import ALL_NAMES
    return [(name, input_name, optimize)
            for name in ALL_NAMES
            for input_name in ("input1", "input2")
            for optimize in (False, True)]


def static_stream(seed: int, cycle: int) -> list[tuple[str, str, bool]]:
    """One pass: every (workload, input) once, half of them at -O.

    The seed picks which input of each workload is optimized (the other
    is not), and the seed and cycle pick the order.  Each operation runs
    both static paths, and the two inputs of one workload cost about
    the same, so every seed does nearly the same work, and every cycle
    of one seed exactly the same work.
    """
    choose = random.Random(f"static:{seed}")
    items = []
    for name in sorted({name for name, _, _ in static_universe()}):
        optimized = choose.choice(("input1", "input2"))
        items += [(name, input_name, input_name == optimized)
                  for input_name in ("input1", "input2")]
    random.Random(f"static:{seed}:{cycle}").shuffle(items)
    return items


def item_id(item: tuple[str, str, bool]) -> str:
    name, input_name, optimize = item
    return f"{name}|{input_name}|{'O' if optimize else 'O0'}"
