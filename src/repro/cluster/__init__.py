"""``repro.cluster``: the sharded multi-process serving tier.

Scales :class:`~repro.serving.service.OptimizerService` past the GIL:
an asyncio :class:`~repro.cluster.gateway.ClusterGateway` fingerprints,
coalesces and routes requests to N worker processes (fingerprint-hash
sharding), each worker serving from its own
:class:`~repro.serving.plan_cache.PlanCache` (every repeat of a query
reaches the same shard, so one cache per shard suffices; the gateway
re-warms a respawned worker's cache), with
:class:`~repro.cluster.admission.AdmissionController` shedding load
onto the full→coarse→LSC degradation ladder before deadlines blow.

``python -m repro.cluster`` replays a Zipf workload and reports
throughput, p50/p99, the cache hit rate and the rung distribution.
"""

from .admission import ADMIT, DEGRADE, SHED, AdmissionController, AdmissionDecision
from .gateway import ClusterGateway, ClusterResult, GatewayError, fingerprint_digest
from .metrics import ClusterMetrics
from .protocol import FrameDecoder, ProtocolError, encode_frame, read_frame, write_frame
from .replay import build_workload, replay, run_replay
from .worker import VersionShim, WorkerConfig, worker_main

__all__ = [
    "ADMIT",
    "DEGRADE",
    "SHED",
    "AdmissionController",
    "AdmissionDecision",
    "ClusterGateway",
    "ClusterResult",
    "ClusterMetrics",
    "GatewayError",
    "fingerprint_digest",
    "FrameDecoder",
    "ProtocolError",
    "encode_frame",
    "read_frame",
    "write_frame",
    "build_workload",
    "replay",
    "run_replay",
    "VersionShim",
    "WorkerConfig",
    "worker_main",
]
