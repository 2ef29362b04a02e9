"""Analytic reuse-profile engine: per-PC miss prediction with no trace.

Composes the static layers (CFG loops + trip counts, address patterns +
slot strides, array footprints) into predicted per-PC reuse-distance
histograms, evaluated against any LRU geometry through the same
histogram-to-:class:`~repro.cache.model.CacheStats` contract the
dynamic stack-distance sweep uses — zero machine execution.

Entry points:

* :func:`predict_profile` — program -> :class:`AnalyticProfile`
* :meth:`AnalyticProfile.evaluate` — profile + config -> ``CacheStats``
* :attr:`AnalyticProfile.coverage` / ``confident`` — honesty: how much
  of the program the closed forms actually covered.
* :func:`predict_configs` — configs -> :class:`Prediction`, or the
  decision to fall back to measurement; :func:`cached_profile` caches
  profiles under :func:`analytic_key`.
"""

from repro.analytic.answer import (Prediction, analytic_key,
                                   cached_profile, predict_configs)
from repro.analytic.engine import (CONFIDENCE_THRESHOLD, AnalyticProfile,
                                   predict_profile)
from repro.analytic.loopmodel import ProgramModel
from repro.analytic.reuse import HIGH, LOW, MEDIUM, Histogram, OpPrediction

__all__ = [
    "AnalyticProfile",
    "CONFIDENCE_THRESHOLD",
    "Histogram",
    "HIGH",
    "LOW",
    "MEDIUM",
    "OpPrediction",
    "Prediction",
    "ProgramModel",
    "analytic_key",
    "cached_profile",
    "predict_configs",
    "predict_profile",
]
