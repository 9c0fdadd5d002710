"""Costers: the objective plugged into the System-R dynamic program.

The DP engine (:mod:`repro.optimizer.systemr`) is generic over *how a
step is costed*; each of the paper's settings is one :class:`Coster`:

* :class:`PointCoster` — Φ at one fixed parameter setting.  This is the
  LSC baseline (Theorem 2.1) and, run once per bucket, the inner loop of
  Algorithms A and B.
* :class:`ExpectedCoster` — ``E_M[Φ]`` with static random memory: the
  exact-LEC Algorithm C (Theorem 3.3).
* :class:`MarkovCoster` — dynamic memory: each join phase is costed
  against the chain's marginal distribution for that phase
  (Theorem 3.4).
* :class:`MultiParamCoster` — Algorithm D: memory, input sizes and
  selectivities all distributional; carries a page-count distribution per
  relation subset and takes expectations over (M, |L|, |R|) triples,
  either naively or via the linear-time paths of
  :mod:`repro.core.expected_cost`.

Every coster exposes the same five hooks (access, join step, intermediate
write, final sort, result pages), all returning scalars in the coster's
objective; because every objective is an expectation, DP additivity and
hence optimality is preserved.

Shared state lives in an :class:`~repro.core.context.OptimizationContext`
attached at :meth:`Coster.bind` time: subset sizes and size
distributions are memoized there instead of in per-coster private dicts,
survival tables are fetched from the context, and every step cost is
memoized under a key spanning the coster's full parameter identity —
so a context threaded across several optimizer invocations (Algorithms
A-D over one query, a parametric sweep, repeated facade calls) answers
repeated expectations from cache.  A coster bound without an explicit
context builds a private one, which reproduces the historical
(per-invocation) behavior exactly.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from ..core.context import OptimizationContext
from ..core.distributions import DiscreteDistribution
from ..core.expected_cost import (
    FAST_METHODS,
    expected_external_sort_cost_model,
    expected_join_cost_naive,
    expected_join_cost_naive_model,
)
from ..core.markov import MarkovParameter
from ..costmodel.estimates import project_pages
from ..costmodel.model import CostModel
from ..plans.nodes import Scan
from ..plans.properties import JoinMethod
from ..plans.query import JoinQuery

#: One join step the DP is about to cost: ``(method, left_rels,
#: right_rels, phase, left_presorted, right_presorted)``.
StepRequest = Tuple[JoinMethod, FrozenSet[str], FrozenSet[str], int, bool, bool]

__all__ = [
    "Coster",
    "PointCoster",
    "ExpectedCoster",
    "MarkovCoster",
    "MultiParamCoster",
]


class Coster(abc.ABC):
    """Objective-specific costing of DP steps.

    Call :meth:`bind` with the query before use; the engine does this.

    ``requires_ordered_phases`` declares whether the objective is only
    well-defined when every candidate plan schedules its joins in the
    canonical phases ``0..s-2`` per subset — the engine matches it
    against :attr:`~repro.plans.space.PlanSpace.ordered_phases`.
    """

    #: Phase-indexed objectives (Markov) need canonical phase numbering.
    requires_ordered_phases: bool = False

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.query: Optional[JoinQuery] = None
        self.context: Optional[OptimizationContext] = None

    def bind(
        self, query: JoinQuery, context: Optional[OptimizationContext] = None
    ) -> None:
        """Attach the query and the shared context.

        Without an explicit ``context`` a private one is created, so the
        coster starts from a cold cache — the historical behavior.  A
        supplied context must have been built for this exact query
        (checked via its statistics fingerprint); a mismatch falls back
        to a fresh context rather than serving stale sizes.
        """
        self.query = query
        if context is not None and context.matches(query):
            self.context = context
        else:
            self.context = OptimizationContext(query, cost_model=self.cost_model)

    @property
    def methods(self):
        """Join methods available to the engine."""
        return self.cost_model.methods

    def _memo_key(self) -> tuple:
        """The coster-identity prefix for context step-cost keys.

        Subclasses return a tuple covering every parameter that affects
        their numeric output; two costers with equal prefixes must
        produce identical costs for identical steps.
        """
        raise NotImplementedError

    # -- hooks ---------------------------------------------------------

    def access_cost(self, scan: Scan) -> float:
        """Cost of the leaf access path (memory independent)."""
        assert self.query is not None
        return self.cost_model.scan_node_cost(scan, self.query)

    @abc.abstractmethod
    def join_step_cost(
        self,
        method: JoinMethod,
        left_rels: FrozenSet[str],
        right_rels: FrozenSet[str],
        phase: int,
        left_presorted: bool = False,
        right_presorted: bool = False,
    ) -> float:
        """Objective value of joining two relation subsets with ``method``.

        The presorted flags grant sort-merge its interesting-order credit
        when an input already carries the join's sort order.
        """

    def _join_formula(
        self,
        method: JoinMethod,
        left_pages: float,
        right_pages: float,
        memory: float,
        left_presorted: bool,
        right_presorted: bool,
    ) -> float:
        """Dispatch to the order-aware SM formula when credit applies."""
        if method is JoinMethod.SORT_MERGE and (left_presorted or right_presorted):
            return self.cost_model.sort_merge_cost_ordered(
                left_pages, right_pages, memory, left_presorted, right_presorted
            )
        return self.cost_model.join_cost(method, left_pages, right_pages, memory)

    def prefetch_join_steps(
        self,
        requests: Sequence[StepRequest],
        pool=None,
    ) -> None:
        """Batch-evaluate a DP level's join steps into the context memo.

        The engine calls this once per DP level with every join step the
        level's subsets will cost; implementations may evaluate the
        not-yet-memoized ones in a single vectorized pass so subsequent
        :meth:`join_step_cost` calls are memo hits.  The contract is
        strict: a prefetched value must be **bit-identical** to what the
        on-demand path would have computed, and ``eval_count`` accounting
        must match one scalar evaluation per grid point.  The base
        implementation is a no-op (everything computes on demand).

        ``pool`` is ignored.  It stays in the signature because the
        benchmark's traced mode (``perfbench/spans.py``) calls every
        override as ``prefetch_join_steps(self, requests, pool)``.
        """

    def _join_step_key(
        self,
        method: JoinMethod,
        left_rels: FrozenSet[str],
        right_rels: FrozenSet[str],
        phase: int,
        left_presorted: bool,
        right_presorted: bool,
    ) -> tuple:
        """The context memo key :meth:`join_step_cost` files a step under.

        Must agree between the on-demand path and :meth:`
        prefetch_join_steps` so prefetched values are found.  Phase is
        ignored by default; phase-indexed objectives fold it in.
        """
        return (
            *self._memo_key(), "join",
            method, left_rels, right_rels, left_presorted, right_presorted,
        )

    @abc.abstractmethod
    def write_cost(self, rels: FrozenSet[str]) -> float:
        """Objective value of materialising the subset's result pages."""

    @abc.abstractmethod
    def final_sort_cost(self, rels: FrozenSet[str], phase: int) -> float:
        """Objective value of the enforcer sort over the subset's result."""

    # -- shared helpers --------------------------------------------------

    def _pages(self, rels: FrozenSet[str]) -> float:
        assert self.context is not None, "coster used before bind()"
        return self.context.subset_pages(rels)

    def _step(self, key: tuple, compute) -> float:
        """Memoize one step cost in the bound context."""
        assert self.context is not None, "coster used before bind()"
        return self.context.step_cost(key, compute)

    def supports_bushy(self) -> bool:
        """Whether this objective is well-defined for bushy plans.

        Compatibility wrapper: the capability now lives on
        :class:`~repro.plans.space.PlanSpace` (``ordered_phases``) matched
        against :attr:`requires_ordered_phases`.
        """
        return not self.requires_ordered_phases

    def pages_lower_bound(self, rels: FrozenSet[str]) -> float:
        """A lower bound on the page count this coster charges for ``rels``.

        Used by the DP's Chen & Schneider partition prune: every join
        method reads both inputs at least once, so two input lower bounds
        sum to a sound lower bound on any join step.  Point-valued
        costers return the exact page count; distributional costers the
        distribution's smallest support point.
        """
        return self._pages(rels)

    # -- union (SPJU) hooks ---------------------------------------------

    def union_overhead(self, arms, distinct: bool) -> float:
        """Objective value charged at a union root over costed arms.

        ``arms`` is a sequence of ``(rels, projection_ratio,
        materialised)`` triples, one per arm.  UNION ALL streams and is
        free; DISTINCT charges each materialised arm's projected write
        plus one external sort over the combined projected pages —
        mirroring :meth:`repro.costmodel.model.CostModel._union_cost`.
        """
        if not distinct:
            return 0.0
        total = 0.0
        total_pages = 0.0
        for rels, ratio, materialised in arms:
            pages = project_pages(self._pages(rels), ratio)
            if materialised:
                total += pages
            total_pages += pages
        return total + self._union_sort_cost(total_pages)

    def _union_sort_cost(self, pages: float) -> float:
        """Objective value of the dedup sort over ``pages``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support distinct unions"
        )


def _pending_steps(context, coster, requests):
    """Deduped ``(memo_key, request)`` pairs for not-yet-memoized steps."""
    seen = set()
    out = []
    for req in requests:
        key = coster._join_step_key(req[0], req[1], req[2], req[3], req[4], req[5])
        if key in seen or context.has_step_cost(key):
            continue
        seen.add(key)
        out.append((key, req))
    return out


def _pending_by_formula(context, coster, requests):
    """Pending steps grouped by ``(method, left_presorted, right_presorted)``.

    Steps in one group evaluate the same formula, so they can share one
    vectorized grid.
    """
    groups = {}
    for key, req in _pending_steps(context, coster, requests):
        groups.setdefault((req[0], req[4], req[5]), []).append((key, req))
    return groups


def _store_steps(context, keys, costs) -> None:
    """File batch-computed step costs under their memo keys.

    Routed through :meth:`OptimizationContext.step_cost` so each stored
    step counts as one miss — exactly what on-demand first evaluation
    would have recorded.
    """
    for key, cost in zip(keys, costs):
        context.step_cost(key, lambda _c=cost: float(_c))


def _expected_join_rows(
    cost_model: CostModel,
    method: JoinMethod,
    left_pages: np.ndarray,
    right_pages: np.ndarray,
    memory: DiscreteDistribution,
    left_presorted: bool,
    right_presorted: bool,
):
    """``E_M[Φ]`` per (left, right) pair, one formula grid for all pairs.

    Each pair's expectation is finished with the same ``np.dot`` against
    the memory pmf that :meth:`DiscreteDistribution.expectation` uses, so
    the results are bit-identical to the scalar
    ``memory.expectation(lambda m: formula(...))`` path.  ``eval_count``
    advances by the full grid size, as for the scalar path.
    """
    mv = memory.values
    shape = (left_pages.size, mv.size)
    grid_l = np.broadcast_to(left_pages[:, None], shape).ravel()
    grid_r = np.broadcast_to(right_pages[:, None], shape).ravel()
    grid_m = np.broadcast_to(mv[None, :], shape).ravel()
    if method is JoinMethod.SORT_MERGE and (left_presorted or right_presorted):
        rows = cost_model.sort_merge_cost_ordered_many(
            grid_l, grid_r, grid_m, left_presorted, right_presorted
        )
    else:
        rows = cost_model.join_cost_many(method, grid_l, grid_r, grid_m)
    return [float(np.dot(row, memory.probs)) for row in rows.reshape(shape)]


class PointCoster(Coster):
    """Φ at a single parameter setting — the LSC view.

    ``memory`` is the one specific value the classical optimizer assumes
    (the mean or mode of the true distribution).
    """

    def __init__(self, memory: float, cost_model: Optional[CostModel] = None):
        super().__init__(cost_model)
        if memory <= 0:
            raise ValueError("memory must be positive")
        self.memory = float(memory)

    def _memo_key(self) -> tuple:
        return ("point", self.memory)

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        key = self._join_step_key(
            method, left_rels, right_rels, phase, left_presorted, right_presorted
        )
        return self._step(
            key,
            lambda: self._join_formula(
                method,
                self._pages(left_rels),
                self._pages(right_rels),
                self.memory,
                left_presorted,
                right_presorted,
            ),
        )

    def prefetch_join_steps(self, requests, pool=None):
        """One ``join_cost_many`` grid per method for the whole level.

        The vectorized formulas are bit-identical to the scalar ones per
        element, so the memoized values match what on-demand evaluation
        would store; ``eval_count`` advances by one per step either way.
        """
        assert self.context is not None, "coster used before bind()"
        for (method, lps, rps), group in _pending_by_formula(
            self.context, self, requests
        ).items():
            keys = [key for key, _ in group]
            lp = np.array([self._pages(req[1]) for _, req in group])
            rp = np.array([self._pages(req[2]) for _, req in group])
            mem = np.full(lp.size, self.memory)
            if method is JoinMethod.SORT_MERGE and (lps or rps):
                costs = self.cost_model.sort_merge_cost_ordered_many(
                    lp, rp, mem, lps, rps
                )
            else:
                costs = self.cost_model.join_cost_many(method, lp, rp, mem)
            _store_steps(self.context, keys, costs)

    def write_cost(self, rels):
        return self._pages(rels)

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", rels)
        return self._step(
            key, lambda: self.cost_model.sort_cost(self._pages(rels), self.memory)
        )

    def _union_sort_cost(self, pages):
        return self.cost_model.sort_cost(pages, self.memory)


class ExpectedCoster(Coster):
    """``E_M[Φ]`` with static random memory — Algorithm C's objective."""

    def __init__(
        self,
        memory: DiscreteDistribution,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(cost_model)
        self.memory = memory

    def _memo_key(self) -> tuple:
        return ("expected", self.memory)

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        key = self._join_step_key(
            method, left_rels, right_rels, phase, left_presorted, right_presorted
        )

        def compute() -> float:
            lp = self._pages(left_rels)
            rp = self._pages(right_rels)
            return self.memory.expectation(
                lambda m: self._join_formula(
                    method, lp, rp, m, left_presorted, right_presorted
                )
            )

        return self._step(key, compute)

    def prefetch_join_steps(self, requests, pool=None):
        """One (steps × memory-buckets) formula grid per method."""
        assert self.context is not None, "coster used before bind()"
        for (method, lps, rps), group in _pending_by_formula(
            self.context, self, requests
        ).items():
            keys = [key for key, _ in group]
            lp = np.array([self._pages(req[1]) for _, req in group])
            rp = np.array([self._pages(req[2]) for _, req in group])
            costs = _expected_join_rows(
                self.cost_model, method, lp, rp, self.memory, lps, rps
            )
            _store_steps(self.context, keys, costs)

    def write_cost(self, rels):
        return self._pages(rels)

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", rels)

        def compute() -> float:
            pages = self._pages(rels)
            return self.memory.expectation(
                lambda m: self.cost_model.sort_cost(pages, m)
            )

        return self._step(key, compute)

    def _union_sort_cost(self, pages):
        return self.memory.expectation(
            lambda m: self.cost_model.sort_cost(pages, m)
        )


class MarkovCoster(Coster):
    """Dynamic memory: phase ``k`` costed under the chain's ``marginal(k)``.

    Exact for ordered-phase plan spaces (left-deep, zig-zag) because
    every candidate for a subset of size ``s`` schedules its joins in the
    same phases ``0..s-2`` and expectation distributes over the
    phase-cost sum (Theorem 3.4).
    """

    requires_ordered_phases = True

    def __init__(
        self,
        chain: MarkovParameter,
        cost_model: Optional[CostModel] = None,
    ):
        super().__init__(cost_model)
        if self.cost_model.pipelined_methods:
            raise ValueError(
                "pipelined joins merge execution phases; the per-phase "
                "Markov objective does not support them"
            )
        self.chain = chain

    def _memo_key(self) -> tuple:
        # Chains hash by identity; the key keeps the chain object alive,
        # so a context outliving the coster still resolves correctly.
        return ("markov", self.chain)

    def _join_step_key(
        self, method, left_rels, right_rels, phase, left_presorted, right_presorted
    ):
        return (
            *self._memo_key(), "join", phase,
            method, left_rels, right_rels, left_presorted, right_presorted,
        )

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        key = self._join_step_key(
            method, left_rels, right_rels, phase, left_presorted, right_presorted
        )

        def compute() -> float:
            lp = self._pages(left_rels)
            rp = self._pages(right_rels)
            marginal = self.chain.marginal(phase)
            return marginal.expectation(
                lambda m: self._join_formula(
                    method, lp, rp, m, left_presorted, right_presorted
                )
            )

        return self._step(key, compute)

    def prefetch_join_steps(self, requests, pool=None):
        """Like :class:`ExpectedCoster` but grouped by execution phase.

        Each phase is costed under its own marginal distribution, so the
        phase joins the grouping key alongside the formula identity.
        """
        assert self.context is not None, "coster used before bind()"
        groups = {}
        for key, req in _pending_steps(self.context, self, requests):
            groups.setdefault((req[0], req[3], req[4], req[5]), []).append((key, req))
        for (method, phase, lps, rps), group in groups.items():
            keys = [key for key, _ in group]
            lp = np.array([self._pages(req[1]) for _, req in group])
            rp = np.array([self._pages(req[2]) for _, req in group])
            costs = _expected_join_rows(
                self.cost_model, method, lp, rp, self.chain.marginal(phase),
                lps, rps,
            )
            _store_steps(self.context, keys, costs)

    def write_cost(self, rels):
        return self._pages(rels)

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", phase, rels)

        def compute() -> float:
            pages = self._pages(rels)
            marginal = self.chain.marginal(phase)
            return marginal.expectation(
                lambda m: self.cost_model.sort_cost(pages, m)
            )

        return self._step(key, compute)


class MultiParamCoster(Coster):
    """Algorithm D: sizes and selectivities uncertain alongside memory.

    Per dag node the paper carries exactly four distributions — memory,
    ``|B_j|``, ``|A_j|`` and the join selectivity.  Here the first three
    feed :meth:`join_step_cost` (a triple-bucket expectation) and the
    fourth is folded into the context-cached subset size distributions.

    Parameters
    ----------
    memory:
        Static memory distribution.
    max_buckets:
        Rebucketing width for propagated size distributions
        (Section 3.6.3).
    fast:
        Use the linear-time expected-cost paths where available instead
        of the naive ``b_M·b_L·b_R`` loop.
    """

    def __init__(
        self,
        memory: DiscreteDistribution,
        cost_model: Optional[CostModel] = None,
        max_buckets: int = 16,
        fast: bool = False,
    ):
        super().__init__(cost_model)
        self.memory = memory
        self.max_buckets = max_buckets
        self.fast = fast
        self._survival = None

    def bind(
        self, query: JoinQuery, context: Optional[OptimizationContext] = None
    ) -> None:
        super().bind(query, context)
        self._survival = self.context.survival_table(self.memory)

    def _memo_key(self) -> tuple:
        return ("multiparam", self.memory, self.max_buckets, self.fast)

    def size_distribution(self, rels: FrozenSet[str]) -> DiscreteDistribution:
        """Context-cached page-count distribution of a relation subset."""
        assert self.context is not None, "coster used before bind()"
        return self.context.size_distribution(rels, max_buckets=self.max_buckets)

    def _join_step_key(
        self, method, left_rels, right_rels, phase, left_presorted, right_presorted
    ):
        return (
            *self._memo_key(), "join",
            method, frozenset(left_rels), frozenset(right_rels),
            left_presorted, right_presorted,
        )

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        key = self._join_step_key(
            method, left_rels, right_rels, phase, left_presorted, right_presorted
        )

        def compute() -> float:
            ld = self.size_distribution(left_rels)
            rd = self.size_distribution(right_rels)
            presorted = left_presorted or right_presorted
            if self.fast and method in FAST_METHODS and not presorted:
                # Routed through the context's batched kernel memo: two
                # subsets with value-equal size distributions share one
                # evaluation, and level prefetches land in the same memo.
                return self.context.batched_join_costs(
                    [(method, ld, rd)], self.memory
                )[0]
            if not presorted:
                return expected_join_cost_naive_model(
                    self.cost_model, method, ld, rd, self.memory
                )
            # Order-aware sort-merge: no linear-time path; triple loop
            # with the presorted formula.
            def fn(_method, l, r, m):
                return self._join_formula(
                    _method, l, r, m, left_presorted, right_presorted
                )

            return expected_join_cost_naive(fn, method, ld, rd, self.memory)

        return self._step(key, compute)

    def prefetch_join_steps(self, requests, pool=None):
        """Feed a whole DP level's fast-path joins to the batched kernel.

        Only the linear-time methods batch (the naive triple-grid path is
        already one array op per step); presorted sort-merge steps keep
        their order-aware scalar route.  Values land in the context's
        ``fastjoin`` memo, so the per-step ``join_step_cost`` calls that
        follow find them without touching the kernel again.
        """
        if not self.fast:
            return
        assert self.context is not None, "coster used before bind()"
        batch = []
        for key, req in _pending_steps(self.context, self, requests):
            method, left_rels, right_rels, _, lps, rps = req
            if method not in FAST_METHODS or lps or rps:
                continue
            batch.append(
                (
                    method,
                    self.size_distribution(left_rels),
                    self.size_distribution(right_rels),
                )
            )
        if batch:
            self.context.batched_join_costs(batch, self.memory)

    def write_cost(self, rels):
        key = (*self._memo_key(), "write", frozenset(rels))
        return self._step(key, lambda: self.size_distribution(rels).mean())

    def final_sort_cost(self, rels, phase):
        key = (*self._memo_key(), "sort", frozenset(rels))
        return self._step(
            key,
            lambda: expected_external_sort_cost_model(
                self.cost_model, self.size_distribution(rels), self.memory
            ),
        )

    def pages_lower_bound(self, rels):
        """Smallest support point of the subset's (clamped) distribution."""
        return self.size_distribution(rels).min()

    def union_overhead(self, arms, distinct):
        """Distributional DISTINCT overhead: writes + expected dedup sort.

        Arm size distributions are scaled by their projection ratios and
        the convolved union size is clamped to the summed Chen &
        Schneider bounds before the expected external-sort cost is taken
        — the C6 rebucketing of the convolution stays inside the
        provable range.
        """
        if not distinct:
            return 0.0
        assert self.context is not None, "coster used before bind()"
        total = 0.0
        arm_dists = []
        lo_sum = 0.0
        hi_sum = 0.0
        for rels, ratio, materialised in arms:
            dist = self.size_distribution(rels)
            lo, hi = self.context.subset_bounds(rels)
            if ratio < 1.0:
                dist = dist.scale(ratio).clip(lo=1.0)
                lo, hi = max(1.0, lo * ratio), max(1.0, hi * ratio)
            if materialised:
                total += dist.mean()
            arm_dists.append(dist)
            lo_sum += lo
            hi_sum += hi
        acc = arm_dists[0]
        for nxt in arm_dists[1:]:
            acc = self.context.rebucket(
                self.context.convolve(acc, nxt), self.max_buckets
            )
        acc = acc.clip(lo=lo_sum * (1.0 - 1e-9), hi=hi_sum * (1.0 + 1e-9))
        return total + expected_external_sort_cost_model(
            self.cost_model, acc, self.memory
        )
