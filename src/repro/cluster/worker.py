"""One cluster shard: a process hosting an ``OptimizerService``.

Each worker owns a full serving stack — the
:class:`~repro.serving.service.OptimizerService` (deadline ladder, EWMA
latency estimates, metrics) with its own in-process
:class:`~repro.serving.plan_cache.PlanCache`.  Fingerprint-hash routing
sends every repeat of a query to the same shard, so one private cache
per shard is all the cluster needs.  Being a separate *process*, its
CPU-bound dynamic programming runs on its own core, which is the
entire point: N shards ≈ N cores of optimization throughput instead of
one GIL's worth.

The worker speaks the :mod:`repro.cluster.protocol` frame protocol over
a socket inherited from the gateway: ``optimize`` requests are decoded
into :class:`~repro.serving.service.OptimizeRequest` objects and run on
the service pool, responses are written back under a send lock (pool
threads complete out of order), ``ping`` is answered immediately from
the control loop with queue depth and metric snapshots, and ``version``
messages move the catalog fence — the worker's service observes the
shim sources and eagerly invalidates its cache, exactly as a
single-process service observes a live catalog.

A respawned worker receives one ``warm`` frame before any replayed
request: the gateway's record of the shard's most recent full-quality
answers, which the worker puts in its cache so a crash costs the
cluster in-flight work (which the gateway retries) but not its cache.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..serving.service import (
    OptimizeRequest,
    OptimizerService,
    ServingResult,
    plan_cache_key,
)
from ..tools.serialize import (
    SerializationError,
    plan_from_dict,
    plan_to_dict,
    query_from_dict,
)
from .protocol import ProtocolError, decode_memory, read_frame, write_frame

__all__ = ["WorkerConfig", "VersionShim", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its serving stack."""

    shard_id: int
    initial_version: Tuple[int, ...] = ()


class VersionShim:
    """A stand-in catalog source carrying just the ``version`` counter.

    The real :class:`~repro.catalog.statistics.StatisticsCatalog` /
    :class:`~repro.catalog.feedback.SelectivityFeedback` objects live in
    the gateway process; workers only need the monotone counters those
    objects expose, delivered over ``version`` messages.  The service's
    per-request version refresh then works unmodified.
    """

    def __init__(self, version: int = 0):
        self.version = int(version)


class _FrameSender:
    """Serializes response frames from concurrent pool threads."""

    def __init__(self, stream):
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: Dict[str, Any]) -> bool:
        """Write one frame; False once the stream is gone."""
        try:
            with self._lock:
                write_frame(self._stream, message)
            return True
        except (OSError, ValueError):
            # Gateway hung up mid-send; the worker loop will see EOF.
            return False


def _decode_request(message: Dict[str, Any]) -> OptimizeRequest:
    try:
        query = query_from_dict(message["query"])
    except (KeyError, SerializationError) as exc:
        raise ProtocolError(f"bad request query: {exc}") from None
    deadline = message.get("deadline")
    return OptimizeRequest(
        query=query,
        objective=message.get("objective", "lec"),
        memory=decode_memory(message.get("memory")),
        deadline=None if deadline is None else float(deadline),
        plan_space=message.get("plan_space", "left-deep"),
        allow_cross_products=bool(message.get("allow_cross_products", False)),
        top_k=int(message.get("top_k", 1)),
        max_buckets=int(message.get("max_buckets", 16)),
        fast=bool(message.get("fast", False)),
        include_mean=bool(message.get("include_mean", True)),
    )


def _result_message(request_id: int, result: ServingResult) -> Dict[str, Any]:
    return {
        "type": "result",
        "id": request_id,
        "plan": plan_to_dict(result.plan),
        "objective_value": float(result.objective_value),
        "objective": result.objective,
        "rung": result.rung,
        "cache_hit": result.cache_hit,
        "cache_tier": result.cache_tier,
        "latency": float(result.latency),
        "deadline_exceeded": bool(result.deadline_exceeded),
        "skipped_rungs": list(result.skipped_rungs),
    }


def _warm(service: OptimizerService, entries: List[Dict[str, Any]],
          version: Tuple[int, ...]) -> Tuple[int, int]:
    """Put the gateway's recent answers in the cache; ``(warmed, errors)``.

    An entry that does not decode is counted, not fatal: a bad warm
    entry costs one cache miss, never the worker.
    """
    warmed = errors = 0
    for entry in entries:
        try:
            request = _decode_request(entry["request"])
            plan = plan_from_dict(entry["plan"])
            key = plan_cache_key(request, version)
            value = float(entry["objective_value"])
        except (KeyError, TypeError, ValueError, SerializationError):
            errors += 1
            continue
        service.cache.put(key, plan, value, rung=entry.get("rung", "full"))
        warmed += 1
    return warmed, errors


def worker_main(sock, config: WorkerConfig) -> None:
    """Entry point of one worker process; returns on shutdown/EOF."""
    # The gateway owns Ctrl-C handling; workers exit via shutdown/EOF.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    sender = _FrameSender(wfile)

    shims = [VersionShim(v) for v in config.initial_version]
    warmed = warm_errors = 0

    service = OptimizerService(max_workers=1, catalog_sources=shims)

    def _respond(request_id: int, future) -> None:
        if future.cancelled():
            sender.send({
                "type": "error", "id": request_id,
                "error": "CancelledError", "message": "worker shutting down",
            })
            return
        exc = future.exception()
        if exc is not None:
            sender.send({
                "type": "error", "id": request_id,
                "error": type(exc).__name__, "message": str(exc),
            })
            return
        sender.send(_result_message(request_id, future.result()))

    try:
        while True:
            try:
                message = read_frame(rfile)
            except ProtocolError:
                break  # corrupt stream: die loudly, gateway restarts us
            if message is None:
                break  # gateway hung up
            mtype = message["type"]

            if mtype == "optimize":
                request_id = int(message["id"])
                try:
                    request = _decode_request(message)
                    future = service.submit(request)
                except (ProtocolError, RuntimeError) as exc:
                    sender.send({
                        "type": "error", "id": request_id,
                        "error": type(exc).__name__, "message": str(exc),
                    })
                    continue
                future.add_done_callback(
                    lambda f, rid=request_id: _respond(rid, f)
                )

            elif mtype == "ping":
                sender.send({
                    "type": "pong",
                    "seq": message.get("seq"),
                    "shard": config.shard_id,
                    "queue_depth": service.pending_requests(),
                    "version": [s.version for s in shims],
                    "warmed": warmed,
                    "warm_errors": warm_errors,
                    "metrics": service.metrics_snapshot(),
                    "cache": service.cache.stats(),
                })

            elif mtype == "version":
                fence = [int(v) for v in message.get("version", [])]
                # Grow the shim list if the gateway gained a source.
                while len(shims) < len(fence):
                    shims.append(VersionShim())
                for shim, value in zip(shims, fence):
                    shim.version = value
                # Eagerly drop stale entries rather than waiting for the
                # next request's refresh.
                service.cache.invalidate_stale(tuple(fence))

            elif mtype == "warm":
                version = tuple(s.version for s in shims)
                done, failed = _warm(service, message.get("entries", []), version)
                warmed += done
                warm_errors += failed

            elif mtype == "shutdown":
                sender.send({"type": "bye", "shard": config.shard_id})
                break

            # Unknown message types are ignored: a newer gateway may
            # speak a superset of this protocol.
    finally:
        service.close()
        try:
            wfile.close()
            rfile.close()
            sock.close()
        except OSError:  # pragma: no cover
            pass
