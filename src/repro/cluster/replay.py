"""Zipf replay harness for the cluster tier.

Generates a seeded mix of chain/star/clique join queries with
distributional selectivities, replays a Zipf-weighted request schedule
through a :class:`~repro.cluster.gateway.ClusterGateway` under bounded
client concurrency, and reports the numbers that justify the tier:
optimize throughput versus shard count, p50/p99 end-to-end latency,
cache-tier hit rates, the rung distribution, and the loss accounting
(accepted requests must all be answered — degraded or retried, never
dropped — even when a worker is killed mid-replay).

Both the ``python -m repro.cluster`` CLI and
``benchmarks/test_bench_cluster.py`` drive :func:`run_replay`; keeping
one harness means the benchmark measures exactly what the CLI reports.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..serving.service import OptimizeRequest
from ..workloads.queries import random_query, with_selectivity_uncertainty
from .admission import AdmissionController
from .gateway import ClusterGateway, ClusterResult

__all__ = ["build_workload", "replay", "run_replay"]

#: The memory-size distribution every replay request optimizes under.
_MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])


def build_workload(
    n_distinct: int,
    n_requests: int,
    rng: np.random.Generator,
    min_relations: int = 4,
    max_relations: int = 6,
    deadline: Optional[float] = None,
    schedule: str = "zipf",
) -> List[OptimizeRequest]:
    """Distinct queries plus a replay schedule over them.

    ``schedule="zipf"`` (default) draws ``n_requests`` picks with
    1/rank weights — the realistic serving mix, where the cache and
    coalescing carry the popular head.  ``schedule="unique"`` cycles
    through the distinct queries round-robin, so with ``n_requests ==
    n_distinct`` every request is a fresh optimization — the CPU-bound
    setting the shard-scaling benchmark measures.

    ``min_relations``/``max_relations`` set the per-query DP size — 4–6
    relations keeps a single optimization in the multi-millisecond range,
    so the replay is CPU-bound in the workers rather than wire-bound.
    """
    queries = []
    for _ in range(n_distinct):
        base = random_query(
            int(rng.integers(min_relations, max_relations + 1)), rng
        )
        queries.append(with_selectivity_uncertainty(base, 1.0, n_buckets=4))
    if schedule == "zipf":
        weights = 1.0 / np.arange(1, n_distinct + 1)
        weights /= weights.sum()
        picks = rng.choice(n_distinct, size=n_requests, p=weights)
    elif schedule == "unique":
        picks = np.arange(n_requests) % n_distinct
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    return [
        OptimizeRequest(
            query=queries[i], objective="lec", memory=_MEMORY,
            deadline=deadline,
        )
        for i in picks
    ]


async def replay(
    workload: List[OptimizeRequest],
    shards: int,
    concurrency: int = 8,
    catalog_sources=(),
    admission: Optional[AdmissionController] = None,
    kill_worker_at: Optional[int] = None,
    health_interval: Optional[float] = None,
    batch_size: int = 1,
) -> Dict[str, Any]:
    """Replay ``workload`` through a fresh gateway; return the report.

    ``kill_worker_at`` hard-kills worker 0 after that many requests have
    been answered — the crash-resilience drill: the report's ``lost``
    must stay 0 because the gateway replays in-flight work.

    ``batch_size > 1`` sends requests through
    :meth:`ClusterGateway.optimize_many` in groups of that size, so
    same-shard requests share one ``optimize_batch`` frame write.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    semaphore = asyncio.Semaphore(concurrency)
    answered = 0
    killed = False
    results: List[Optional[ClusterResult]] = [None] * len(workload)

    async with ClusterGateway(
        shards=shards,
        catalog_sources=catalog_sources,
        admission=admission,
        health_interval=health_interval,
    ) as gateway:

        def _account(index: int, result: ClusterResult) -> None:
            nonlocal answered, killed
            results[index] = result
            if result.status != "shed":
                answered += 1
            if (
                kill_worker_at is not None
                and not killed
                and answered >= kill_worker_at
            ):
                killed = True
                gateway.kill_worker(0)

        async def _one(index: int, request: OptimizeRequest) -> None:
            async with semaphore:
                result = await gateway.optimize(request)
            _account(index, result)

        async def _group(indices: List[int]) -> None:
            async with semaphore:
                group = await gateway.optimize_many(
                    [workload[i] for i in indices]
                )
            for index, result in zip(indices, group):
                _account(index, result)

        t0 = time.perf_counter()
        if batch_size > 1:
            await asyncio.gather(*(
                _group(list(range(start, min(start + batch_size,
                                             len(workload)))))
                for start in range(0, len(workload), batch_size)
            ))
        else:
            await asyncio.gather(
                *(_one(i, r) for i, r in enumerate(workload))
            )
        wall = time.perf_counter() - t0
        snapshot = await gateway.snapshot()

    done = [r for r in results if r is not None]
    ok = [r for r in done if r.status == "ok"]
    shed = [r for r in done if r.status == "shed"]
    errors = [r for r in done if r.status == "error"]
    accepted = len(done) - len(shed)
    lost = len(workload) - len(done)
    retried = sum(1 for r in ok if r.retries > 0)
    coalesced = sum(1 for r in ok if r.coalesced)
    optimized = sum(1 for r in ok if not r.cache_hit and not r.coalesced)

    return {
        "config": {
            "shards": shards,
            "requests": len(workload),
            "concurrency": concurrency,
            "kill_worker_at": kill_worker_at,
            "cpu_count": os.cpu_count(),
            "batch_size": batch_size,
        },
        "wall_seconds": wall,
        "throughput_qps": len(ok) / wall if wall > 0 else 0.0,
        "optimize_throughput_qps": optimized / wall if wall > 0 else 0.0,
        "accepted": accepted,
        "answered": len(ok),
        "errors": len(errors),
        "shed": len(shed),
        "lost": lost,
        "retried": retried,
        "coalesced": coalesced,
        "latency": snapshot["latency"],
        "rungs": snapshot["rungs"],
        "cache_tiers": snapshot["cache_tiers"],
        "admission": snapshot["admission"],
        "restarts": snapshot["restarts"],
        "shards": snapshot["shards"],
    }


def run_replay(
    shards: int = 2,
    n_distinct: int = 16,
    n_requests: int = 64,
    seed: int = 0,
    concurrency: int = 8,
    deadline: Optional[float] = None,
    min_relations: int = 4,
    max_relations: int = 6,
    kill_worker_at: Optional[int] = None,
    admission: Optional[AdmissionController] = None,
    schedule: str = "zipf",
    batch_size: int = 1,
) -> Dict[str, Any]:
    """Synchronous entry point: build the workload and replay it."""
    rng = np.random.default_rng(seed)
    workload = build_workload(
        n_distinct, n_requests, rng,
        min_relations=min_relations, max_relations=max_relations,
        deadline=deadline, schedule=schedule,
    )
    return asyncio.run(replay(
        workload, shards=shards, concurrency=concurrency,
        admission=admission, kill_worker_at=kill_worker_at,
        batch_size=batch_size,
    ))
