"""Unified observability: tracing, metrics, and plan profiling.

Three pieces, one import surface:

- :data:`TRACER` -- the process-wide hierarchical span tracer
  (:mod:`repro.obs.trace`); off by default, enabled explicitly or by the
  service's slow-query log / ``trace`` op.
- :data:`METRICS` -- the process-wide metrics registry
  (:mod:`repro.obs.metrics`); counters and histograms with
  Prometheus-text and JSON exposition, absorbing the per-subsystem stats
  bags through weakly-held scrape collectors.
- :class:`PlanProfiler` / :class:`QueryProfile`
  (:mod:`repro.obs.profile`) -- per-plan-node actual time + rows beside
  the work/depth cost-semantics prediction, surfaced as
  ``Engine.profile`` and ``Session.explain_analyze``.
"""

from .metrics import METRICS, Counter, Histogram, MetricsRegistry
from .profile import NodeProfile, PlanProfiler, QueryProfile
from .trace import TRACER, Span, Tracer

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "TRACER",
    "Tracer",
    "Span",
    "PlanProfiler",
    "NodeProfile",
    "QueryProfile",
]
