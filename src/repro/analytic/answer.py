"""The analytic cache key and the answer-or-fall-back decision, shared
by ``Session.predict_stats`` and the service's ``predict`` op."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analytic.engine import AnalyticProfile, predict_profile
from repro.asm.program import Program
from repro.cache.config import CacheConfig
from repro.cache.model import CacheStats


def analytic_key(source: str, optimize: bool) -> str:
    """Content key of a program's analytic profiles: the *program*,
    not the trace — predictions never see an execution."""
    text = "|".join(("analytic-1", source, str(optimize)))
    return hashlib.sha1(text.encode()).hexdigest()


def cached_profile(store, source: str, optimize: bool,
                   program: Callable[[], Program],
                   block_size: int) -> AnalyticProfile:
    """The profile from ``store``'s analytic keyspace, or predicted from
    ``program()`` and put there."""
    digest = analytic_key(source, optimize)
    profile = store.get_analytic(digest, block_size)
    if profile is None:
        profile = predict_profile(program(), block_size=block_size)
        store.put_analytic(digest, block_size, profile)
    return profile


@dataclass
class Prediction:
    """Per-config stats predicted, or measured after a fallback."""

    stats: list[CacheStats]
    analytic: bool                 # False: served by the measured sweep
    coverage: float                # access-weighted HIGH-confidence share
    low_confidence_pcs: dict[int, tuple]


def predict_configs(configs: Sequence[CacheConfig],
                    profile_for: Callable[[int], AnalyticProfile],
                    fallback: bool = True) -> Prediction:
    """Answer ``configs`` from one analytic profile per block size.

    With ``fallback`` on, a non-LRU config or a profile below the
    confidence threshold (pointer chasing, unresolved trip counts)
    gives ``analytic=False`` and empty ``stats``, for the caller to
    fill from the measured sweep.
    """
    profiles: dict[int, AnalyticProfile] = {}
    for config in configs:
        if config.block_size not in profiles:
            profiles[config.block_size] = profile_for(config.block_size)
    coverage = min((p.coverage for p in profiles.values()), default=0.0)
    low: dict[int, tuple] = {}
    for profile in profiles.values():
        low.update(profile.low_confidence_pcs())
    confident = all(c.replacement == "lru" for c in configs) \
        and all(p.confident for p in profiles.values())
    if not confident and fallback:
        return Prediction([], False, coverage, low)
    return Prediction([profiles[c.block_size].evaluate(c)
                       for c in configs], True, coverage, low)
