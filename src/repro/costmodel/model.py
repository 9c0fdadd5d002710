"""The cost model Φ(plan, v): costing whole plans under parameter settings.

:class:`CostModel` evaluates the paper's cost function Φ for a plan and a
parameter setting, under this library's execution model:

* every intermediate result (join output, filtered scan output) is
  materialised; a join's formula charges for reading its inputs, and the
  *consumer* of a join's output pays one write for materialising it —
  unless the consumer is a nested-loop join declared *pipelined*
  (``pipelined_methods``), whose outer input streams straight from its
  producer (the Section 4 pipelining extension);
* execution proceeds in *phases*, one per join (Section 3.5): a node's
  work is charged to its join's phase, an enforcer sort rides with the
  final phase;
* memory is either a single value (static) or one value per phase
  (dynamic).

The model counts cost-formula evaluations (``eval_count``) so experiments
can verify the paper's overhead claims (LEC optimization ≈ ``b ×`` one
LSC invocation) without relying on wall-clock noise.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.distributions import DiscreteDistribution
from ..core.markov import MarkovParameter
from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.properties import AccessPath, JoinMethod
from ..plans.query import JoinQuery
from . import formulas
from .estimates import node_size

__all__ = ["CostModel", "DEFAULT_METHODS"]

#: The paper's method set: the three classic algorithms.
DEFAULT_METHODS: Tuple[JoinMethod, ...] = (
    JoinMethod.NESTED_LOOP,
    JoinMethod.SORT_MERGE,
    JoinMethod.GRACE_HASH,
)


class CostModel:
    """Evaluates Φ(plan, v) and its building blocks.

    Parameters
    ----------
    methods:
        Join methods the optimizer may choose from.  Defaults to the
        paper's trio (NL, SM, GH); pass the extended set to enable the
        BNL/HH refinements.
    count_evaluations:
        When True (default) every join/sort formula evaluation increments
        :attr:`eval_count` — the optimizer-overhead metric of E4/E7.
    """

    def __init__(
        self,
        methods: Sequence[JoinMethod] = DEFAULT_METHODS,
        count_evaluations: bool = True,
        pipelined_methods: Sequence[JoinMethod] = (),
    ):
        if not methods:
            raise ValueError("at least one join method is required")
        self.methods: Tuple[JoinMethod, ...] = tuple(methods)
        self._count = count_evaluations
        self.eval_count = 0
        allowed = {JoinMethod.NESTED_LOOP, JoinMethod.BLOCK_NESTED_LOOP}
        bad = set(pipelined_methods) - allowed
        if bad:
            raise ValueError(
                "only nested-loop joins can pipeline their outer input, "
                f"got {sorted(m.value for m in bad)}"
            )
        self.pipelined_methods: frozenset = frozenset(pipelined_methods)

    def reset_counters(self) -> None:
        """Zero the formula-evaluation counter."""
        self.eval_count = 0

    # ------------------------------------------------------------------
    # Primitive costs
    # ------------------------------------------------------------------

    def join_cost(
        self, method: JoinMethod, outer: float, inner: float, memory: float
    ) -> float:
        """Cost of one join (reading both inputs; no output write)."""
        if self._count:
            self.eval_count += 1
        return formulas.join_cost(method, outer, inner, memory)

    def sort_merge_cost_ordered(
        self,
        outer: float,
        inner: float,
        memory: float,
        outer_presorted: bool,
        inner_presorted: bool,
    ) -> float:
        """Sort-merge cost with interesting-order credit for sorted inputs."""
        if self._count:
            self.eval_count += 1
        return formulas.sort_merge_cost_with_orders(
            outer, inner, memory, outer_presorted, inner_presorted
        )

    def sort_cost(self, pages: float, memory: float) -> float:
        """Cost of an enforcer sort over ``pages``."""
        if self._count:
            self.eval_count += 1
        return formulas.external_sort_cost(pages, memory)

    # ------------------------------------------------------------------
    # Batched primitive costs
    # ------------------------------------------------------------------
    #
    # Array counterparts of the primitives above.  Each element of the
    # result is bit-identical to the corresponding scalar call, and
    # ``eval_count`` advances by the number of grid points — one per
    # formula evaluation, exactly as if the scalar method had been called
    # in a loop — so the E4/E7 overhead accounting is unchanged.

    def join_cost_many(
        self,
        method: JoinMethod,
        outer: np.ndarray,
        inner: np.ndarray,
        memory: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`join_cost` over aligned parameter arrays."""
        out = formulas.join_cost_vec(method, outer, inner, memory)
        if self._count:
            self.eval_count += out.size
        return out

    def sort_merge_cost_ordered_many(
        self,
        outer: np.ndarray,
        inner: np.ndarray,
        memory: np.ndarray,
        outer_presorted: bool,
        inner_presorted: bool,
    ) -> np.ndarray:
        """Vectorized :meth:`sort_merge_cost_ordered`."""
        out = formulas.sort_merge_cost_with_orders_vec(
            outer, inner, memory, outer_presorted, inner_presorted
        )
        if self._count:
            self.eval_count += out.size
        return out

    def sort_cost_many(self, pages: np.ndarray, memory: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sort_cost`."""
        out = formulas.external_sort_cost_vec(pages, memory)
        if self._count:
            self.eval_count += out.size
        return out

    def scan_node_cost(self, scan: Scan, query: JoinQuery) -> float:
        """Memory-independent cost of a scan leaf (full or index scan)."""
        spec = query.relation(scan.table)
        base_rows = query.rows_of(scan.table) / max(spec.filter_selectivity, 1e-12)
        if scan.access is AccessPath.INDEX_SCAN:
            if spec.index is None:
                raise ValueError(
                    f"plan uses an index scan on {scan.table!r} but the "
                    "relation has no index"
                )
            return formulas.scan_cost(
                AccessPath.INDEX_SCAN,
                base_pages=spec.pages,
                selectivity=spec.filter_selectivity,
                rows=base_rows,
                index_height=spec.index.height,
                clustered=spec.index.clustered,
            )
        return formulas.scan_cost(
            AccessPath.FULL_SCAN,
            base_pages=spec.pages,
            selectivity=spec.filter_selectivity,
            rows=base_rows,
        )

    def join_breakpoints(
        self, method: JoinMethod, outer: float, inner: float
    ) -> List[float]:
        """Memory thresholds where this join's cost formula jumps."""
        return formulas.join_breakpoints(method, outer, inner)

    # ------------------------------------------------------------------
    # Whole-plan costing
    # ------------------------------------------------------------------

    def plan_cost(self, plan: Plan, query: JoinQuery, memory: float) -> float:
        """Φ(plan, v) with static memory ``v = memory``."""
        return self._cost_with_memory(plan, query, lambda phase: memory)

    def plan_cost_dynamic(
        self, plan: Plan, query: JoinQuery, memory_by_phase: Sequence[float]
    ) -> float:
        """Φ(plan, v) where ``v`` is one memory value per join phase.

        ``memory_by_phase`` must have at least ``plan.n_phases`` entries.
        """
        seq = list(memory_by_phase)
        if len(seq) < plan.n_phases:
            raise ValueError(
                f"need {plan.n_phases} phase memories, got {len(seq)}"
            )
        return self._cost_with_memory(plan, query, lambda phase: seq[phase])

    def phase_cost(
        self, plan: Plan, query: JoinQuery, phase: int, memory: float
    ) -> float:
        """Cost charged to a single execution phase at the given memory."""
        total = 0.0
        for node, node_phase in self._phases(plan):
            if node_phase != phase:
                continue
            total += self._node_cost(node, plan, query, memory)
        return total

    # ------------------------------------------------------------------
    # Expected costs (memory as the only uncertain parameter)
    # ------------------------------------------------------------------

    def plan_expected_cost(
        self, plan: Plan, query: JoinQuery, memory: DiscreteDistribution
    ) -> float:
        """``E[Φ(plan, M)]`` for static random memory ``M``."""
        return memory.expectation(lambda m: self.plan_cost(plan, query, m))

    def plan_expected_cost_markov(
        self, plan: Plan, query: JoinQuery, chain: MarkovParameter
    ) -> float:
        """``E[Σ_k Φ_k(plan, M_k)]`` under a Markov memory process.

        Uses only the per-phase marginals: expectation distributes over
        the sum of phase costs, so no sequence enumeration is needed
        (the insight behind Theorem 3.4).
        """
        if self.pipelined_methods:
            raise ValueError(
                "pipelined joins merge execution phases; the per-phase "
                "Markov objective does not support them"
            )
        if any(isinstance(n, UnionNode) for n in plan.nodes()):
            raise ValueError(
                "union plans have no canonical phase order; the per-phase "
                "Markov objective does not support them"
            )
        total = 0.0
        for phase in range(plan.n_phases):
            marginal = chain.marginal(phase)
            total += marginal.expectation(
                lambda m, _ph=phase: self.phase_cost(plan, query, _ph, m)
            )
        return total

    def plan_expected_cost_bruteforce(
        self, plan: Plan, query: JoinQuery, chain: MarkovParameter
    ) -> float:
        """Expected cost by enumerating all memory sequences (verification).

        Exponential in the number of phases; used by tests/experiments to
        confirm :meth:`plan_expected_cost_markov`.
        """
        total = 0.0
        for seq, prob in chain.sequences(plan.n_phases):
            total += prob * self.plan_cost_dynamic(plan, query, list(seq))
        return total

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _phases(self, plan: Plan) -> List[Tuple[PlanNode, int]]:
        joins = plan.joins()
        join_phase = {id(j): i for i, j in enumerate(joins)}
        out: List[Tuple[PlanNode, int]] = []
        # Walk with explicit parent tracking so each node is charged to the
        # nearest enclosing join's phase.
        def visit(node: PlanNode, enclosing: int) -> None:
            if isinstance(node, Join):
                my_phase = join_phase[id(node)]
            else:
                my_phase = enclosing
            for child in node.children:
                visit(child, my_phase)
            out.append((node, my_phase))

        visit(plan.root, max(0, len(joins) - 1))
        return out

    def _node_cost(
        self, node: PlanNode, plan: Plan, query: JoinQuery, memory: float
    ) -> float:
        if isinstance(node, Scan):
            return self.scan_node_cost(node, query)
        if isinstance(node, Project):
            return 0.0  # projection streams: pure width reduction
        if isinstance(node, UnionNode):
            return self._union_cost(node, query, memory)
        if isinstance(node, Sort):
            child_pages = node_size(node.child, query).pages
            cost = self.sort_cost(child_pages, memory)
            if isinstance(_strip_projects(node.child), Join):
                cost += child_pages  # the sort re-reads a materialised temp
            return cost
        assert isinstance(node, Join)
        left = node_size(node.left, query)
        right = node_size(node.right, query)
        if node.method is JoinMethod.SORT_MERGE:
            target = node.output_order_label
            cost = self.sort_merge_cost_ordered(
                left.pages,
                right.pages,
                memory,
                outer_presorted=node.left.order == target,
                inner_presorted=node.right.order == target,
            )
        else:
            cost = self.join_cost(node.method, left.pages, right.pages, memory)
        cost += self._child_write_cost(node, query)
        return cost

    def _child_write_cost(self, node: Join, query: JoinQuery) -> float:
        """Materialisation writes this join pays for its join-children.

        The outer (left) input of a pipelined nested-loop join streams
        from its producer and is never written.  Projections are
        transparent here: a projected join output is still materialised
        (at its projected width, via ``node_size``).
        """
        total = 0.0
        pipeline_left = node.method in self.pipelined_methods
        if isinstance(_strip_projects(node.left), Join) and not pipeline_left:
            total += node_size(node.left, query).pages
        if isinstance(_strip_projects(node.right), Join):
            total += node_size(node.right, query).pages
        return total

    def _union_cost(self, node: UnionNode, query: JoinQuery, memory: float) -> float:
        """Cost charged at a union node over its already-costed arms.

        UNION ALL streams: arms feed the output directly, the node is
        free, and no arm output is materialised.  DISTINCT must
        de-duplicate: every arm whose (projection-stripped) root is a
        join is written out at its projected width, then one external
        sort runs over the combined pages.
        """
        if not node.distinct:
            return 0.0
        total = 0.0
        total_pages = 0.0
        for child in node.inputs:
            pages = node_size(child, query).pages
            if isinstance(_strip_projects(child), (Join, Sort)):
                total += pages  # materialise the arm before deduplication
            total_pages += pages
        return total + self.sort_cost(total_pages, memory)

    def _cost_with_memory(self, plan: Plan, query: JoinQuery, memory_at) -> float:
        total = 0.0
        for node, phase in self._phases(plan):
            total += self._node_cost(node, plan, query, memory_at(phase))
        return total


def _strip_projects(node: PlanNode) -> PlanNode:
    """Peel streaming projection wrappers off a node."""
    while isinstance(node, Project):
        node = node.child
    return node
