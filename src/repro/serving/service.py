"""`OptimizerService`: concurrent, deadline-aware plan serving.

This is the front end a query-processing tier would actually call: a
thread-pooled service wrapping :func:`repro.optimize` with

* a **plan cache** (:class:`~repro.serving.plan_cache.PlanCache`) keyed
  by query fingerprint, objective, cost-model configuration, memory
  input and catalog version — repeat queries skip optimization
  entirely;
* **per-request deadlines** with a **graceful-degradation ladder**: the
  full requested objective first, then the requested objective at
  coarser bucketing (Algorithm A over a rebucketed memory distribution,
  or Algorithm D in fast mode), and finally the classical LSC point
  optimization — so a request always returns *some* plan, and the
  cheapest rung is unconditionally run when nothing else fits the
  budget.  Which rung answered is recorded on the result and in the
  metrics;
* a **latency estimator** (per rung × objective × query size EWMA) that
  decides, before starting a rung, whether it can finish inside the
  remaining budget — Python threads cannot be safely cancelled
  mid-optimization, so the budget is enforced by *not starting* work
  predicted to blow it, exactly the effort/quality trade that
  probably-approximately-optimal optimization formalizes;
* **metrics** (:class:`~repro.serving.metrics.MetricsRegistry`): request
  and per-rung counters, degradation and deadline-miss counts, and
  latency histograms with p50/p95.

The degradation ladder never changes answers when there is no deadline
pressure: with no deadline (or a generous one) the full rung runs and
the result is bit-identical to calling :func:`repro.optimize` directly.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from numbers import Real
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..core.context import query_fingerprint
from ..costmodel.model import CostModel
from ..optimizer.errors import OptimizerConfigError
from ..optimizer.facade import _OBJECTIVES, _model_key, optimize as _optimize
from ..optimizer.result import OptimizationResult
from ..plans.nodes import Plan
from ..plans.query import JoinQuery
from ..plans.space import PlanSpace
from .metrics import MetricsRegistry
from .plan_cache import PlanCache, PlanCacheKey, memory_key

__all__ = [
    "OptimizeRequest",
    "ServingResult",
    "LatencyEstimator",
    "OptimizerService",
    "RUNG_FULL",
    "RUNG_COARSE",
    "RUNG_LSC",
]

#: Ladder rungs, best quality first.
RUNG_FULL = "full"
RUNG_COARSE = "coarse"
RUNG_LSC = "lsc"


@dataclass(frozen=True)
class OptimizeRequest:
    """One optimization request as the service sees it.

    Mirrors :func:`repro.optimize`'s signature plus a ``deadline``
    (seconds of wall-clock budget for this request; ``None`` means
    unbounded, which always yields the full-quality answer).
    """

    query: JoinQuery
    objective: str = "lec"
    memory: Union[Real, DiscreteDistribution, MarkovParameter, None] = None
    cost_model: Optional[CostModel] = None
    deadline: Optional[float] = None
    plan_space: str = "left-deep"
    allow_cross_products: bool = False
    top_k: int = 1
    max_buckets: int = 16
    fast: bool = False
    include_mean: bool = True

    def knobs(self) -> Tuple:
        """The option tuple that participates in the cache key.

        The plan space is normalised to its canonical key, so alias
        spellings (``"zigzag"``, ``"zig_zag"``, a :class:`PlanSpace`
        object) share one cache slot; an unknown spelling participates
        verbatim and fails later, inside the optimizer.
        """
        try:
            space_key = PlanSpace.parse(self.plan_space).key
        except ValueError:
            space_key = str(self.plan_space)
        return (
            space_key,
            self.allow_cross_products,
            self.top_k,
            self.max_buckets,
            self.fast,
            self.include_mean,
        )


@dataclass(frozen=True)
class ServingResult:
    """What the service hands back: a plan, plus how it was produced."""

    plan: Plan
    objective_value: float
    objective: str  # canonical objective kind ("expected", "point", ...)
    rung: str  # which ladder rung answered (RUNG_FULL/COARSE/LSC)
    cache_hit: bool
    latency: float  # wall-clock seconds spent inside the service
    deadline: Optional[float] = None
    deadline_exceeded: bool = False
    skipped_rungs: Tuple[str, ...] = ()
    cache_tier: Optional[str] = None  # "hot"/"shared" on a hit, else None

    @property
    def degraded(self) -> bool:
        """True when a rung below the full objective produced the plan."""
        return self.rung != RUNG_FULL


class LatencyEstimator:
    """EWMA latency estimates per (rung, objective, query size).

    The service consults this *before* starting a rung: optimization
    cannot be interrupted mid-flight, so deadline enforcement means
    predicting whether a rung fits the remaining budget.  Unknown rungs
    are treated optimistically on a cold start (attempted), but once the
    rung above them has an estimate they inherit a discounted version of
    it (each step down the ladder is assumed at least ~4x cheaper),
    keeping skip decisions sane before every rung has run.
    """

    def __init__(self, alpha: float = 0.3, inherit_discount: float = 4.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if inherit_discount < 1.0:
            raise ValueError("inherit_discount must be >= 1")
        self.alpha = alpha
        self.inherit_discount = inherit_discount
        self._ewma: Dict[Tuple[str, str, int], float] = {}
        self._lock = threading.Lock()

    def record(self, rung: str, objective: str, n_relations: int,
               seconds: float) -> None:
        """Fold one observed latency into the estimate."""
        key = (rung, objective, int(n_relations))
        with self._lock:
            prev = self._ewma.get(key)
            if prev is None:
                self._ewma[key] = float(seconds)
            else:
                self._ewma[key] = (1 - self.alpha) * prev + self.alpha * seconds

    def estimate(self, rung: str, objective: str,
                 n_relations: int) -> Optional[float]:
        """Current estimate for one rung, or ``None`` if never observed."""
        with self._lock:
            return self._ewma.get((rung, objective, int(n_relations)))

    def ladder_estimates(
        self, ladder: Sequence[str], objective: str, n_relations: int
    ) -> List[Optional[float]]:
        """Estimates down the ladder, with unknowns inheriting from above."""
        out: List[Optional[float]] = []
        for i, rung in enumerate(ladder):
            est = self.estimate(rung, objective, n_relations)
            if est is None and i > 0 and out[i - 1] is not None:
                est = out[i - 1] / self.inherit_discount
            out.append(est)
        return out


class OptimizerService:
    """Concurrent plan-serving facade over :func:`repro.optimize`.

    Parameters
    ----------
    max_workers:
        Thread-pool size for :meth:`submit`/:meth:`optimize_batch`.
    cache:
        A :class:`PlanCache`, ``None``/``False`` to disable caching, or
        ``True`` (default) for a fresh cache wired to this service's
        metrics.
    metrics:
        Shared :class:`MetricsRegistry` (fresh one by default).
    catalog_sources:
        Objects carrying a monotonically increasing ``version``
        attribute (``StatisticsCatalog``, ``SelectivityFeedback``).
        Their combined version is part of every cache key; when it
        changes, stale entries are eagerly invalidated.
    default_deadline:
        Budget (seconds) applied to requests that do not set their own.
    coarse_buckets:
        Bucket cap used by the degraded "coarse" rung.
    estimator:
        Custom :class:`LatencyEstimator` (tests use this to force
        deterministic skip decisions).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: Union[PlanCache, bool, None] = True,
        metrics: Optional[MetricsRegistry] = None,
        catalog_sources: Sequence = (),
        default_deadline: Optional[float] = None,
        coarse_buckets: int = 3,
        estimator: Optional[LatencyEstimator] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if cache is True:
            self.cache: Optional[PlanCache] = PlanCache(metrics=self.metrics)
        elif cache in (False, None):
            self.cache = None
        else:
            self.cache = cache
        self._sources = tuple(catalog_sources)
        self.default_deadline = default_deadline
        if coarse_buckets < 1:
            raise ValueError("coarse_buckets must be >= 1")
        self.coarse_buckets = coarse_buckets
        self.estimator = estimator if estimator is not None else LatencyEstimator()
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serving"
        )
        self._version_lock = threading.Lock()
        self._last_version = self._catalog_version()
        self._pending_lock = threading.Lock()
        self._pending: "set[Future]" = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def pending_requests(self) -> int:
        """Submitted requests not yet finished (queued or in flight)."""
        with self._pending_lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun; new submissions are refused."""
        return self._closed

    def close(self, cancel_pending: bool = True) -> None:
        """Shut the pool down so the hosting process can exit promptly.

        Queued-but-unstarted futures are cancelled (``cancel_pending``,
        default) and in-flight requests are drained — Python threads
        cannot be interrupted mid-optimization, so the running ones are
        waited for, but nothing behind them starts.  Without the
        cancellation a deep queue would keep the pool (and any worker
        process hosting it) alive until every request ran to completion.
        Idempotent; :meth:`submit` after close raises ``RuntimeError``.
        """
        with self._pending_lock:
            self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=cancel_pending)
        # Cancelled futures never ran _execute; drop them from the
        # pending set so accounting ends at zero.
        with self._pending_lock:
            self._pending = {f for f in self._pending if not f.cancelled()}

    def __enter__(self) -> "OptimizerService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(self, request: Optional[OptimizeRequest] = None,
               **kwargs) -> "Future[ServingResult]":
        """Schedule one request on the pool; returns a future.

        Either pass a prepared :class:`OptimizeRequest` or the keyword
        arguments to build one (``query=``, ``objective=``, ...).
        """
        if request is None:
            request = OptimizeRequest(**kwargs)
        elif kwargs:
            request = replace(request, **kwargs)
        return self._submit(request)

    def _submit(self, request: OptimizeRequest) -> "Future[ServingResult]":
        with self._pending_lock:
            if self._closed:
                raise RuntimeError("OptimizerService is closed")
            future = self._pool.submit(self._execute, request)
            self._pending.add(future)
        future.add_done_callback(self._request_done)
        return future

    def _request_done(self, future: "Future[ServingResult]") -> None:
        with self._pending_lock:
            self._pending.discard(future)

    def optimize(self, query: JoinQuery, objective: str = "lec",
                 **kwargs) -> ServingResult:
        """Synchronous single request, run on the calling thread."""
        return self._execute(
            OptimizeRequest(query=query, objective=objective, **kwargs)
        )

    def optimize_batch(
        self, requests: Iterable[OptimizeRequest]
    ) -> List[ServingResult]:
        """Run many requests on the pool; results in request order."""
        futures = [self._submit(r) for r in requests]
        return [f.result() for f in futures]

    def metrics_snapshot(self) -> Dict:
        """Shortcut to :meth:`MetricsRegistry.snapshot`."""
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Catalog versioning
    # ------------------------------------------------------------------

    def _catalog_version(self) -> Tuple[int, ...]:
        return tuple(int(s.version) for s in self._sources)

    def _refresh_catalog_version(self) -> Tuple[int, ...]:
        """Detect catalog/feedback mutations; evict stale plans eagerly.

        Only the fence comparison runs under ``_version_lock``; the
        eviction itself happens outside it because the cache may be a
        :class:`~repro.cluster.shared_cache.TieredPlanCache` whose shared
        tier takes the Manager lock — a cross-process round trip that
        must not be held under an in-process lock (LOCK002).  Eviction is
        idempotent (it drops anything older than ``current``), so two
        racing refreshers at worst both invalidate.
        """
        current = self._catalog_version()
        with self._version_lock:
            changed = current != self._last_version
            if changed:
                self._last_version = current
        if changed:
            if self.cache is not None:
                self.cache.invalidate_stale(current)
            self.metrics.counter("serving.catalog_invalidations").increment()
        return current

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute(self, request: OptimizeRequest) -> ServingResult:
        t0 = time.perf_counter()
        self.metrics.counter("serving.requests").increment()

        kind = _OBJECTIVES.get(str(request.objective).lower())
        if kind is None:
            # Let the facade raise its canonical error message.
            _optimize(request.query, request.objective, memory=request.memory)
            raise AssertionError("unreachable")  # pragma: no cover
        if request.memory is None:
            raise OptimizerConfigError(
                f"objective {request.objective!r} requires the memory= argument"
            )

        version = self._refresh_catalog_version()
        cm = request.cost_model if request.cost_model is not None else CostModel()
        key = PlanCacheKey(
            fingerprint=query_fingerprint(request.query),
            objective=kind,
            model_key=_model_key(cm),
            memory=memory_key(request.memory),
            knobs=request.knobs(),
            catalog_version=version,
        )

        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                latency = time.perf_counter() - t0
                self.metrics.histogram("serving.latency.cache_hit").record(latency)
                return ServingResult(
                    plan=hit.plan,
                    objective_value=hit.objective_value,
                    objective=kind,
                    rung=hit.rung,
                    cache_hit=True,
                    latency=latency,
                    deadline=self._deadline_of(request),
                    cache_tier=getattr(hit, "tier", "hot"),
                )

        result, rung, skipped = self._run_ladder(request, kind, cm, t0)
        latency = time.perf_counter() - t0
        deadline = self._deadline_of(request)
        exceeded = deadline is not None and latency > deadline

        if self.cache is not None and rung == RUNG_FULL:
            self.cache.put(key, result.plan, result.objective, rung=rung)

        self.metrics.counter(f"serving.rung.{rung}").increment()
        if rung != RUNG_FULL:
            self.metrics.counter("serving.degraded").increment()
        if exceeded:
            self.metrics.counter("serving.deadline_exceeded").increment()
        self.metrics.histogram("serving.latency.optimize").record(latency)

        return ServingResult(
            plan=result.plan,
            objective_value=result.objective,
            objective=kind,
            rung=rung,
            cache_hit=False,
            latency=latency,
            deadline=deadline,
            deadline_exceeded=exceeded,
            skipped_rungs=tuple(skipped),
        )

    def _deadline_of(self, request: OptimizeRequest) -> Optional[float]:
        return (
            request.deadline
            if request.deadline is not None
            else self.default_deadline
        )

    # -- degradation ladder --------------------------------------------

    def _ladder_for(self, kind: str) -> Tuple[str, ...]:
        if kind == "point":
            # The full objective already is the cheapest rung.
            return (RUNG_FULL,)
        return (RUNG_FULL, RUNG_COARSE, RUNG_LSC)

    def _run_ladder(
        self, request: OptimizeRequest, kind: str, cm: CostModel, t0: float
    ) -> Tuple[OptimizationResult, str, List[str]]:
        ladder = self._ladder_for(kind)
        deadline = self._deadline_of(request)
        n_rels = len(request.query.relations)
        estimates = self.estimator.ladder_estimates(ladder, kind, n_rels)

        skipped: List[str] = []
        for i, rung in enumerate(ladder):
            last = i == len(ladder) - 1
            if not last and deadline is not None:
                remaining = deadline - (time.perf_counter() - t0)
                est = estimates[i]
                # Skip a rung predicted not to fit; the final rung always
                # runs so the request is guaranteed *some* plan.
                if est is not None and est >= remaining:
                    skipped.append(rung)
                    self.metrics.counter("serving.rung_skipped").increment()
                    continue
            t1 = time.perf_counter()
            result = self._run_rung(rung, request, kind, cm)
            self.estimator.record(rung, kind, n_rels, time.perf_counter() - t1)
            return result, rung, skipped
        raise AssertionError("ladder always runs its final rung")  # pragma: no cover

    def _run_rung(
        self, rung: str, request: OptimizeRequest, kind: str, cm: CostModel
    ) -> OptimizationResult:
        common = dict(
            cost_model=cm,
            plan_space=request.plan_space,
            allow_cross_products=request.allow_cross_products,
        )
        if rung == RUNG_FULL:
            return _optimize(
                request.query,
                kind,
                memory=request.memory,
                top_k=request.top_k,
                max_buckets=request.max_buckets,
                fast=request.fast,
                include_mean=request.include_mean,
                **common,
            )
        if rung == RUNG_COARSE:
            if kind == "multiparam":
                # Same multi-parameter DP, fast mode + tight bucket cap.
                return _optimize(
                    request.query,
                    "multiparam",
                    memory=self._as_distribution(request.memory),
                    max_buckets=self.coarse_buckets,
                    fast=True,
                    **common,
                )
            # Everything else degrades to Algorithm A over a coarsened
            # memory distribution: one classical optimization per bucket.
            coarse = self._coarse_memory(request.memory)
            return _optimize(
                request.query,
                "algorithm_a",
                memory=coarse,
                include_mean=False,
                **common,
            )
        assert rung == RUNG_LSC
        return _optimize(
            request.query,
            "point",
            memory=self._point_memory(request.memory),
            **common,
        )

    # -- memory-input coercions for the degraded rungs -----------------

    def _as_distribution(self, memory) -> DiscreteDistribution:
        if isinstance(memory, DiscreteDistribution):
            return memory
        if isinstance(memory, MarkovParameter):
            return memory.marginal(0)
        return DiscreteDistribution([float(memory)], [1.0])

    def _coarse_memory(self, memory) -> DiscreteDistribution:
        dist = self._as_distribution(memory)
        if dist.n_buckets > self.coarse_buckets:
            dist = dist.rebucket(self.coarse_buckets)
        return dist

    def _point_memory(self, memory) -> float:
        if isinstance(memory, DiscreteDistribution):
            return float(memory.mean())
        if isinstance(memory, MarkovParameter):
            return float(memory.marginal(0).mean())
        return float(memory)
