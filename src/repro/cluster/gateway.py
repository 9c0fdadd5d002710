"""The cluster gateway: one asyncio front end over N worker processes.

``repro.serving`` scales to many *threads*, but CPU-bound LEC dynamic
programming holds the GIL, so one process optimizes at roughly one
core.  The gateway breaks that ceiling: requests are fingerprinted,
**coalesced** (concurrent duplicates share one optimization), admitted
or shed by the :class:`~repro.cluster.admission.AdmissionController`,
and **routed by fingerprint hash** to a fixed worker process, each an
independent :class:`~repro.serving.service.OptimizerService` on its own
core with a private hot cache over the cluster-shared tier.

The gateway itself does no optimization and no plan decoding on the hot
path — it shuffles frames.  That keeps a single asyncio task loop able
to feed many CPU-bound workers.

Reliability model
-----------------
* A worker that dies (crash, OOM kill, test-inflicted ``kill()``) is
  detected by EOF on its socket (and by health pings); the gateway
  respawns it — the replacement re-warms its hot LRU from the shared
  tier — and **replays** every request that was in flight on the dead
  worker.  Accepted requests are therefore answered (possibly degraded,
  possibly after a retry) or failed explicitly after ``max_retries``
  replays; they are never silently dropped.
* Catalog/feedback mutations on the gateway side move the version
  fence: the shared tier is purged and a ``version`` frame is broadcast
  so every worker's hot LRU refuses stale plans, extending the PR 2/3
  invalidation contract across process boundaries.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import socket
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.context import query_fingerprint
from ..costmodel.model import CostModel
from ..optimizer.errors import OptimizerConfigError
from ..optimizer.facade import _OBJECTIVES, _model_key
from ..plans.nodes import Plan
from ..serving.plan_cache import PlanCacheKey, memory_key
from ..serving.service import OptimizeRequest
from ..tools.serialize import plan_from_dict, query_to_dict
from .admission import SHED, AdmissionController, AdmissionDecision
from .metrics import ClusterMetrics
from .protocol import (
    FrameDecoder,
    ProtocolError,
    batch_message,
    encode_frame,
    encode_memory,
)
from .shared_cache import (
    SharedPlanTier,
    cache_key_digest,
    fingerprint_digest,
    make_shared_state,
)
from .worker import WorkerConfig, worker_main

__all__ = ["ClusterResult", "ClusterGateway", "GatewayError"]


class GatewayError(RuntimeError):
    """Raised for gateway lifecycle misuse (not started, already closed)."""


@dataclass(frozen=True)
class ClusterResult:
    """One request's outcome as seen at the gateway.

    ``status`` is ``"ok"`` (a plan came back), ``"shed"`` (refused at
    admission — never sent to a worker), or ``"error"`` (the worker
    reported a failure, or retries were exhausted).  The plan travels
    as its serialized document and is only decoded when :attr:`plan` is
    touched, keeping the gateway hot path free of tree building.
    """

    status: str
    shard: int
    rung: Optional[str] = None
    objective: Optional[str] = None
    objective_value: Optional[float] = None
    cache_hit: bool = False
    cache_tier: Optional[str] = None
    worker_latency: float = 0.0
    latency: float = 0.0
    retries: int = 0
    coalesced: bool = False
    deadline_exceeded: bool = False
    admission: Optional[AdmissionDecision] = None
    plan_doc: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when a plan was produced."""
        return self.status == "ok"

    @property
    def plan(self) -> Plan:
        """The winning plan, deserialized on demand."""
        if self.plan_doc is None:
            raise GatewayError(f"no plan on a {self.status!r} result")
        return plan_from_dict(self.plan_doc)


@dataclass
class _Pending:
    """One request in flight to a worker (kept for replay on crash)."""

    future: "asyncio.Future[ClusterResult]"
    message: Dict[str, Any]
    coalesce_key: str
    admission: AdmissionDecision
    sent_at: float
    attempts: int = 1


@dataclass
class _Shard:
    """One worker process plus its connection state."""

    index: int
    proc: Any = None
    writer: Optional[asyncio.StreamWriter] = None
    reader_task: Optional["asyncio.Task"] = None
    pending: Dict[int, _Pending] = field(default_factory=dict)
    ping_waiters: Dict[int, "asyncio.Future"] = field(default_factory=dict)
    last_snapshot: Optional[Dict[str, Any]] = None
    last_pong: float = 0.0
    restarts: int = 0


def _preferred_context():
    """``fork`` keeps worker startup cheap; fall back where unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ClusterGateway:
    """Asyncio gateway over ``shards`` optimizer worker processes.

    Parameters
    ----------
    shards:
        Number of worker processes (≈ cores to spend on optimization).
    catalog_sources:
        Version-carrying catalog objects (``StatisticsCatalog``,
        ``SelectivityFeedback``) — the gateway watches their versions
        and propagates the fence to every worker and the shared tier.
    admission:
        Custom :class:`AdmissionController` (defaults tuned for small
        replay workloads).
    worker_threads / hot_entries / warm_limit / shared_max_entries /
    coarse_buckets / default_deadline:
        Forwarded into each shard's :class:`WorkerConfig`.
    health_interval:
        Seconds between background health sweeps (``None`` disables the
        task; :meth:`check_health` can still be called manually).
    max_retries:
        Replays allowed per request before it fails explicitly.
    """

    def __init__(
        self,
        shards: int = 2,
        catalog_sources: Sequence = (),
        admission: Optional[AdmissionController] = None,
        metrics: Optional[ClusterMetrics] = None,
        worker_threads: int = 1,
        hot_entries: int = 256,
        warm_limit: int = 64,
        shared_max_entries: int = 4096,
        coarse_buckets: int = 3,
        default_deadline: Optional[float] = None,
        health_interval: Optional[float] = None,
        max_retries: int = 2,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.n_shards = shards
        self._sources = tuple(catalog_sources)
        self.admission = admission if admission is not None else AdmissionController()
        self.metrics = metrics if metrics is not None else ClusterMetrics()
        self._worker_threads = worker_threads
        self._hot_entries = hot_entries
        self._warm_limit = warm_limit
        self._shared_max_entries = shared_max_entries
        self._coarse_buckets = coarse_buckets
        self._default_deadline = default_deadline
        self.health_interval = health_interval
        self.max_retries = max_retries

        self._ctx = _preferred_context()
        self._manager = None
        self._shared_state = None
        self.shared_tier: Optional[SharedPlanTier] = None
        self._shards: List[_Shard] = []
        self._inflight: Dict[str, "asyncio.Future[ClusterResult]"] = {}
        self._ids = itertools.count(1)
        self._ping_ids = itertools.count(1)
        self._last_version = self._current_version()
        self._started = False
        self._closing = False
        self._health_task: Optional["asyncio.Task"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def _offload(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one blocking Manager round trip off the event loop.

        Every touch of the Manager process (allocation, shutdown, shared
        dict access) is a synchronous cross-process RPC; on the loop it
        would stall every in-flight request, so it goes to the default
        executor instead (ASYNC001 enforces this).
        """
        loop = asyncio.get_event_loop()
        return await loop.run_in_executor(None, fn, *args)

    def _allocate_shared(self):
        """Blocking: spawn the Manager process and its shared structures."""
        manager = self._ctx.Manager()
        return manager, make_shared_state(manager)

    async def start(self) -> "ClusterGateway":
        """Allocate the shared tier and spawn every worker."""
        if self._started:
            raise GatewayError("gateway already started")
        self._manager, self._shared_state = await self._offload(
            self._allocate_shared
        )
        self.shared_tier = SharedPlanTier(
            self._shared_state, max_entries=self._shared_max_entries
        )
        self._shards = [_Shard(index=i) for i in range(self.n_shards)]
        for shard in self._shards:
            await self._spawn(shard)
        self._started = True
        if self.health_interval is not None:
            self._health_task = asyncio.get_event_loop().create_task(
                self._health_loop()
            )
        return self

    async def __aenter__(self) -> "ClusterGateway":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Shut every worker down and release the shared tier."""
        if not self._started or self._closing:
            return
        self._closing = True
        if self._health_task is not None:
            self._health_task.cancel()
        for shard in self._shards:
            if shard.writer is not None:
                try:
                    shard.writer.write(encode_frame({"type": "shutdown"}))
                    await shard.writer.drain()
                except (ConnectionError, OSError):
                    pass
        for shard in self._shards:
            if shard.reader_task is not None:
                try:
                    await asyncio.wait_for(shard.reader_task, timeout=10.0)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    shard.reader_task.cancel()
            await self._join_proc(shard)
            for pending in shard.pending.values():
                if not pending.future.done():
                    pending.future.set_result(ClusterResult(
                        status="error", shard=shard.index,
                        error="gateway closed with request in flight",
                    ))
            shard.pending.clear()
        if self._manager is not None:
            manager, self._manager = self._manager, None
            await self._offload(manager.shutdown)

    async def _join_proc(self, shard: _Shard, timeout: float = 5.0) -> None:
        proc = shard.proc
        if proc is None:
            return
        deadline = time.monotonic() + timeout
        while proc.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if proc.is_alive():
            proc.terminate()

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------

    def _worker_config(self, shard_index: int) -> WorkerConfig:
        return WorkerConfig(
            shard_id=shard_index,
            initial_version=self._current_version(),
            threads=self._worker_threads,
            hot_entries=self._hot_entries,
            warm_limit=self._warm_limit,
            shared_max_entries=self._shared_max_entries,
            coarse_buckets=self._coarse_buckets,
            default_deadline=self._default_deadline,
        )

    async def _spawn(self, shard: _Shard) -> None:
        parent_sock, child_sock = socket.socketpair()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_sock, self._shared_state, self._worker_config(shard.index)),
            daemon=True,
            name=f"repro-cluster-worker-{shard.index}",
        )
        proc.start()
        child_sock.close()
        parent_sock.setblocking(False)
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        shard.proc = proc
        shard.writer = writer
        shard.last_pong = time.monotonic()
        shard.reader_task = asyncio.get_event_loop().create_task(
            self._read_loop(shard, reader)
        )

    async def _read_loop(self, shard: _Shard,
                         reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for message in decoder.feed(data):
                    self._dispatch(shard, message)
        except (ConnectionError, OSError, ProtocolError):
            pass
        if not self._closing:
            await self._restart(shard)

    def _dispatch(self, shard: _Shard, message: Dict[str, Any]) -> None:
        mtype = message.get("type")
        if mtype in ("result", "error"):
            pending = shard.pending.pop(int(message["id"]), None)
            if pending is None:
                return  # replayed request answered twice; first wins
            self._inflight.pop(pending.coalesce_key, None)
            if not pending.future.done():
                pending.future.set_result(
                    self._to_result(shard, pending, message)
                )
        elif mtype == "pong":
            shard.last_pong = time.monotonic()
            shard.last_snapshot = message
            waiter = shard.ping_waiters.pop(int(message.get("seq", 0)), None)
            if waiter is not None and not waiter.done():
                waiter.set_result(message)
        elif mtype == "bye":
            pass  # shutdown handshake; the read loop ends on EOF next

    def _to_result(self, shard: _Shard, pending: _Pending,
                   message: Dict[str, Any]) -> ClusterResult:
        latency = time.monotonic() - pending.sent_at
        retries = pending.attempts - 1
        if message["type"] == "error":
            self.metrics.registry.counter("cluster.errors").increment()
            return ClusterResult(
                status="error", shard=shard.index, latency=latency,
                retries=retries, admission=pending.admission,
                error=f"{message.get('error')}: {message.get('message')}",
            )
        worker_latency = float(message.get("latency", 0.0))
        self.admission.observe_service_time(worker_latency)
        self.metrics.observe_request(
            latency=latency,
            rung=message.get("rung"),
            cache_tier=message.get("cache_tier"),
            cache_hit=bool(message.get("cache_hit")),
            retried=retries > 0,
        )
        return ClusterResult(
            status="ok",
            shard=shard.index,
            rung=message.get("rung"),
            objective=message.get("objective"),
            objective_value=message.get("objective_value"),
            cache_hit=bool(message.get("cache_hit")),
            cache_tier=message.get("cache_tier"),
            worker_latency=worker_latency,
            latency=latency,
            retries=retries,
            deadline_exceeded=bool(message.get("deadline_exceeded")),
            admission=pending.admission,
            plan_doc=message.get("plan"),
        )

    async def _restart(self, shard: _Shard) -> None:
        """Respawn a dead worker and replay its in-flight requests."""
        shard.restarts += 1
        self.metrics.registry.counter("cluster.worker_restarts").increment()
        for waiter in shard.ping_waiters.values():
            if not waiter.done():
                waiter.cancel()
        shard.ping_waiters.clear()
        await self._join_proc(shard, timeout=2.0)
        await self._spawn(shard)
        replays = list(shard.pending.items())
        shard.pending.clear()
        for request_id, pending in replays:
            if pending.future.done():
                continue
            if pending.attempts > self.max_retries:
                self._inflight.pop(pending.coalesce_key, None)
                self.metrics.registry.counter("cluster.errors").increment()
                pending.future.set_result(ClusterResult(
                    status="error", shard=shard.index,
                    retries=pending.attempts - 1, admission=pending.admission,
                    error=f"request retried {pending.attempts - 1} times "
                          "across worker restarts",
                ))
                continue
            pending.attempts += 1
            self.metrics.registry.counter("cluster.retries").increment()
            shard.pending[request_id] = pending
            try:
                shard.writer.write(encode_frame(pending.message))
                await shard.writer.drain()
            except (ConnectionError, OSError):
                return  # the fresh worker died too; next restart replays

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            try:
                await self.check_health()
            except asyncio.CancelledError:  # pragma: no cover
                raise
            except Exception:
                continue  # a sick shard must not kill the sweeper

    async def check_health(self, timeout: float = 5.0) -> List[Optional[Dict]]:
        """Ping every worker; restart any that died; return pong snapshots."""
        self._require_started()
        out: List[Optional[Dict]] = []
        for shard in self._shards:
            if shard.proc is not None and not shard.proc.is_alive():
                # The read loop normally notices EOF first; this catches
                # a worker that died without the socket closing cleanly.
                if shard.reader_task is not None and shard.reader_task.done():
                    await self._restart(shard)
            try:
                out.append(await self.ping(shard.index, timeout=timeout))
            except (asyncio.TimeoutError, asyncio.CancelledError,
                    ConnectionError, OSError):
                out.append(None)
        return out

    async def ping(self, shard_index: int, timeout: float = 5.0) -> Dict:
        """One worker's health snapshot (queue depth, metrics, caches)."""
        self._require_started()
        shard = self._shards[shard_index]
        seq = next(self._ping_ids)
        waiter: "asyncio.Future[Dict]" = asyncio.get_event_loop().create_future()
        shard.ping_waiters[seq] = waiter
        shard.writer.write(encode_frame({"type": "ping", "seq": seq}))
        await shard.writer.drain()
        try:
            return await asyncio.wait_for(waiter, timeout=timeout)
        finally:
            shard.ping_waiters.pop(seq, None)

    # ------------------------------------------------------------------
    # Version fence
    # ------------------------------------------------------------------

    def _current_version(self) -> Tuple[int, ...]:
        return tuple(int(s.version) for s in self._sources)

    async def _refresh_version(self) -> Tuple[int, ...]:
        current = self._current_version()
        if current != self._last_version:
            self._last_version = current
            self.metrics.registry.counter(
                "cluster.catalog_invalidations"
            ).increment()
            if self.shared_tier is not None:
                await self._offload(self.shared_tier.invalidate_stale, current)
            frame = encode_frame(
                {"type": "version", "version": list(current)}
            )
            for shard in self._shards:
                if shard.writer is not None:
                    try:
                        shard.writer.write(frame)
                        await shard.writer.drain()
                    except (ConnectionError, OSError):
                        continue  # restart path re-sends the version
        return current

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def _require_started(self) -> None:
        if not self._started or self._closing:
            raise GatewayError("gateway is not running (start() it first)")

    def shard_for(self, fingerprint: Tuple) -> int:
        """Fingerprint-hash routing: the shard owning this query."""
        return int(fingerprint_digest(fingerprint)[:8], 16) % self.n_shards

    async def _prepare(self, request: OptimizeRequest):
        """Validate, admit and register one request without sending it.

        Returns ``(tag, obj, shard, message)``:

        ``("shed", ClusterResult, None, None)``
            refused at admission — already final.
        ``("coalesced", future, None, None)``
            rides an identical in-flight request's future.
        ``("send", future, shard, message)``
            registered in ``shard.pending``/``_inflight``; the caller
            owns the actual frame write (so many same-shard requests
            can be flushed in one ``optimize_batch`` frame).
        """
        kind = _OBJECTIVES.get(str(request.objective).lower())
        if kind is None:
            raise OptimizerConfigError(
                f"unknown objective {request.objective!r}"
            )
        if request.memory is None:
            raise OptimizerConfigError(
                f"objective {request.objective!r} requires the memory= argument"
            )
        if request.cost_model is not None:
            raise OptimizerConfigError(
                "the cluster tier serves the default cost model; "
                "per-request cost models do not cross the wire yet"
            )

        self.metrics.registry.counter("cluster.requests").increment()
        version = await self._refresh_version()
        fingerprint = query_fingerprint(request.query)
        shard = self._shards[self.shard_for(fingerprint)]
        key = cache_key_digest(PlanCacheKey(
            fingerprint=fingerprint,
            objective=kind,
            model_key=_model_key(CostModel()),
            memory=memory_key(request.memory),
            knobs=request.knobs(),
            catalog_version=version,
        ))

        leader = self._inflight.get(key)
        if leader is not None:
            # Coalesce: ride the identical in-flight request.
            self.metrics.registry.counter("cluster.coalesced").increment()
            return ("coalesced", leader, None, None)

        decision = self.admission.decide(len(shard.pending), request.deadline)
        if decision.action == SHED:
            self.metrics.registry.counter("cluster.shed").increment()
            return ("shed", ClusterResult(
                status="shed", shard=shard.index, admission=decision,
                error=decision.reason,
            ), None, None)
        if decision.action != "admit":
            self.metrics.registry.counter("cluster.admission_degraded").increment()

        request_id = next(self._ids)
        # The replayed-on-restart copy keeps its own "optimize" type;
        # batching is purely a first-send transport optimisation.
        message = {
            "type": "optimize",
            "id": request_id,
            "query": query_to_dict(request.query),
            "objective": request.objective,
            "memory": encode_memory(request.memory),
            "deadline": decision.effective_deadline,
            "plan_space": request.plan_space,
            "allow_cross_products": request.allow_cross_products,
            "top_k": request.top_k,
            "max_buckets": request.max_buckets,
            "fast": request.fast,
            "include_mean": request.include_mean,
        }
        future: "asyncio.Future[ClusterResult]" = (
            asyncio.get_event_loop().create_future()
        )
        pending = _Pending(
            future=future, message=message, coalesce_key=key,
            admission=decision, sent_at=time.monotonic(),
        )
        shard.pending[request_id] = pending
        self._inflight[key] = future
        return ("send", future, shard, message)

    async def _write_frames(self, shard: _Shard,
                            messages: List[Dict[str, Any]]) -> None:
        """Flush ``messages`` to one shard — a single write and drain.

        Two or more messages travel as one ``optimize_batch`` frame; a
        singleton keeps the legacy ``optimize`` frame so a pre-batch
        worker still understands it.
        """
        frame = encode_frame(
            messages[0] if len(messages) == 1 else batch_message(messages)
        )
        try:
            shard.writer.write(frame)
            await shard.writer.drain()
        except (ConnectionError, OSError):
            pass  # the read loop sees the broken pipe and replays

    async def optimize(self, request: Optional[OptimizeRequest] = None,
                       **kwargs) -> ClusterResult:
        """Serve one request through the cluster.

        Accepts a prepared :class:`OptimizeRequest` or its keyword
        arguments, exactly like ``OptimizerService.submit``.
        """
        self._require_started()
        if request is None:
            request = OptimizeRequest(**kwargs)
        elif kwargs:
            request = replace(request, **kwargs)
        tag, obj, shard, message = await self._prepare(request)
        if tag == "shed":
            return obj
        if tag == "coalesced":
            result = await asyncio.shield(obj)
            return replace(result, coalesced=True)
        await self._write_frames(shard, [message])
        return await asyncio.shield(obj)

    async def optimize_many(
        self, requests: Sequence[OptimizeRequest]
    ) -> List[ClusterResult]:
        """Serve many requests, one coalesced frame write per shard.

        Every request goes through the same admission/coalescing/
        routing as :meth:`optimize`; the difference is transport-only —
        all admitted requests routed to the same shard leave in a
        single ``optimize_batch`` frame (one syscall per shard instead
        of one per request), which is where the replay driver's
        gateway-bound workloads spend their syscall budget.  Results
        come back in request order; duplicates inside the batch
        coalesce onto the first occurrence.
        """
        self._require_started()
        prepared = [await self._prepare(r) for r in requests]
        flushes: Dict[int, Tuple[_Shard, List[Dict[str, Any]]]] = {}
        for tag, _obj, shard, message in prepared:
            if tag == "send":
                flushes.setdefault(shard.index, (shard, []))[1].append(message)
        for shard, messages in flushes.values():
            await self._write_frames(shard, messages)
        results: List[ClusterResult] = []
        for tag, obj, _shard, _message in prepared:
            if tag == "shed":
                results.append(obj)
            elif tag == "coalesced":
                results.append(
                    replace(await asyncio.shield(obj), coalesced=True)
                )
            else:
                results.append(await asyncio.shield(obj))
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> List[_Shard]:
        """Live shard states (tests and the replay driver poke these)."""
        return self._shards

    def kill_worker(self, shard_index: int) -> None:
        """Hard-kill one worker (crash injection for tests/benchmarks)."""
        self._require_started()
        proc = self._shards[shard_index].proc
        if proc is not None and proc.is_alive():
            proc.kill()

    def _shared_entries(self) -> int:
        """Blocking: shared-tier entry count (one Manager round trip)."""
        return len(self.shared_tier) if self.shared_tier is not None else 0

    async def snapshot(self) -> Dict[str, Any]:
        """Cluster-wide aggregated metrics (see ClusterMetrics.aggregate)."""
        self._require_started()
        pongs = await self.check_health()
        shared_entries = await self._offload(self._shared_entries)
        return self.metrics.aggregate(
            pongs,
            shed_depths=[len(s.pending) for s in self._shards],
            restarts=[s.restarts for s in self._shards],
            admission=self.admission.stats(),
            shared_entries=shared_entries,
        )
