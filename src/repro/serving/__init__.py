"""Plan serving: cache + concurrent optimization with deadlines.

The library below this package is a synchronous optimizer; this package
is the layer a production system would put in front of it:

* :class:`~repro.serving.plan_cache.PlanCache` — thread-safe LRU of
  serialized optimized plans, keyed by (query fingerprint, objective,
  cost-model config, memory input, catalog version), so catalog
  mutations and cardinality feedback can never leak a stale plan;
* :class:`~repro.serving.service.OptimizerService` — a thread-pooled
  front end with per-request deadlines and a graceful-degradation
  ladder (full objective → coarser bucketing → LSC point estimate);
* :class:`~repro.serving.metrics.MetricsRegistry` — counters and
  latency histograms (hit rate, fallbacks, p50/p95) shared by both.

``python -m repro.serving`` replays a synthetic workload through the
service and prints cold- vs warm-cache throughput and the metrics
snapshot.
"""

from .metrics import Counter, LatencyHistogram, MetricsRegistry
from .plan_cache import CachedPlan, PlanCache, PlanCacheKey, memory_key
from .service import (
    RUNG_COARSE,
    RUNG_FULL,
    RUNG_LSC,
    LatencyEstimator,
    OptimizeRequest,
    OptimizerService,
    ServingResult,
    plan_cache_key,
)

__all__ = [
    "Counter",
    "LatencyHistogram",
    "MetricsRegistry",
    "CachedPlan",
    "PlanCache",
    "PlanCacheKey",
    "memory_key",
    "plan_cache_key",
    "LatencyEstimator",
    "OptimizeRequest",
    "OptimizerService",
    "ServingResult",
    "RUNG_FULL",
    "RUNG_COARSE",
    "RUNG_LSC",
]
