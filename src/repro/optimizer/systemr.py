"""The System-R dynamic program, generic over objective *and* plan space.

This is the engine of Section 2.2, working on the subset dag: node ``S``
holds the best plan(s) for computing ``⋈_{i∈S} A_i``.  Everything the
paper varies — point vs. expected vs. phase-marginal vs. multi-parameter
costing — is injected through a :class:`~repro.optimizer.costers.Coster`,
so Theorem 2.1 (LSC), Theorem 3.3 (Algorithm C) and Theorem 3.4 (dynamic
parameters) are all instances of this one dynamic program.  Which plan
*shapes* the program searches is injected through a
:class:`~repro.plans.space.PlanSpace`: the space supplies the per-level
candidate-subset lists and the per-subset (left, right) partitions, so
left-deep, zig-zag and bushy search differ only in the space object.

Bookkeeping details that matter for fidelity:

* **DP invariant.** An entry's cost covers its whole subtree *except* the
  write of its own (top) output; extending a subplan charges that write,
  and the root pays it only when an enforcer sort must re-read the result.
  This matches :meth:`repro.costmodel.model.CostModel.plan_cost` exactly.
* **Interesting orders.** Entries are kept per ``(subset, order)`` pair,
  so a sort-merge plan that delivers the query's required order survives
  even when a hash plan is cheaper before the final sort is accounted.
* **Top-k.** With ``top_k = c > 1`` the engine retains the top ``c``
  entries per (subset, order) and combines candidate lists with the
  Proposition 3.1 merge — this is Algorithm B's candidate generator.
* **Plan spaces.** ``"left-deep"`` reproduces the paper's search space;
  ``"zig-zag"`` adds mirrored splits; ``"bushy"`` enumerates all
  partitions (the extension the paper defers).  The enlarged spaces are
  pruned with Chen & Schneider intermediate-size lower bounds: a
  partition whose children plus input-read bound cannot beat the worst
  retained entry of every reachable order bucket is skipped.
* **SPJU.** A :class:`~repro.plans.query.JoinQuery` that is actually a
  :class:`~repro.plans.spju.UnionQuery` is optimized arm by arm (the DP
  runs once per arm — predicates never cross arms) and combined under a
  single :class:`~repro.plans.nodes.Union` root, with the union's
  streaming/dedup overhead supplied by the coster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..core.context import OptimizationContext
from ..plans.nodes import Join, Plan, PlanNode, Project, Scan, Sort
from ..plans.nodes import Union as UnionNode
from ..plans.properties import AccessPath, order_from_join
from ..plans.query import JoinQuery, QueryError
from ..plans.space import PlanSpace
from ..plans.spju import UnionQuery
from .costers import Coster
from .errors import OptimizerConfigError
from .result import OptimizationResult, OptimizerStats, PlanChoice
from .topk import TopKList, merge_top_combinations

__all__ = ["SystemRDP", "DPEntry"]

#: Table type: subset -> (output order -> retained entries).
_Table = Dict[FrozenSet[str], Dict[Optional[str], "TopKList[DPEntry]"]]


@dataclass(frozen=True)
class DPEntry:
    """One retained subplan for a dag node.

    ``cost`` excludes the write of the entry's own output (see module
    docstring); ``order`` is the output order label, if any.
    """

    node: PlanNode
    cost: float
    order: Optional[str]


class SystemRDP:
    """Bottom-up join-order optimizer over the subset dag.

    Parameters
    ----------
    coster:
        Objective: point (LSC), expected (LEC), Markov, or multi-param.
    plan_space:
        A :class:`~repro.plans.space.PlanSpace` or its spelling:
        ``"left-deep"`` (paper heuristic 2), ``"zig-zag"``, ``"bushy"``,
        or ``"spju"`` (bushy + union blocks).
    allow_cross_products:
        Permit joining subsets with no connecting predicate (selectivity
        1 "trivially true" predicate, per the paper's expository device).
    top_k:
        Plans retained per (subset, order); ``> 1`` enables Algorithm B's
        candidate generation.
    context:
        Optional shared :class:`~repro.core.context.OptimizationContext`.
        When given (and matching the optimized query's statistics) the
        coster draws memoized sizes, distributions and step costs from
        it; otherwise a fresh context is created per :meth:`optimize`
        call.

    A level's join steps are prefetched in one batch through the coster's
    vectorized :meth:`~repro.optimizer.costers.Coster.prefetch_join_steps`
    exactly when the plan space is unpruned (left-deep).  Prefetched
    values are bit-identical to on-demand evaluation; under the Chen &
    Schneider prune, prefetching would evaluate steps the prune skips,
    inflating the ``formula_evaluations`` accounting the experiments rely
    on, so the enlarged spaces cost on demand.
    """

    def __init__(
        self,
        coster: Coster,
        plan_space="left-deep",
        allow_cross_products: bool = False,
        top_k: int = 1,
        context: Optional[OptimizationContext] = None,
    ):
        try:
            space = PlanSpace.parse(plan_space)
        except ValueError as exc:
            raise OptimizerConfigError(str(exc)) from None
        if coster.requires_ordered_phases and not space.ordered_phases:
            raise OptimizerConfigError(
                f"{type(coster).__name__} needs canonical join phases; "
                f"the {space.key!r} plan space does not provide them"
            )
        if top_k < 1:
            raise OptimizerConfigError("top_k must be >= 1")
        self.coster = coster
        self.space = space
        # Canonical spelling kept for observability / legacy callers.
        self.plan_space = space.key
        self.allow_cross_products = allow_cross_products
        self.top_k = top_k
        self.context = context
        # Chen & Schneider lower-bound pruning pays off (and keeps legacy
        # instrumentation exact) only on the enlarged spaces; level
        # prefetch runs exactly where it is off.
        self._prune = space.shape != "left-deep"

    # ------------------------------------------------------------------

    def optimize(self, query: JoinQuery) -> OptimizationResult:
        """Run the dynamic program and return the chosen plan.

        With ``top_k > 1`` the result's ``candidates`` list holds the top
        ``k`` complete plans (best first); otherwise just the winner.
        Union blocks (:class:`~repro.plans.spju.UnionQuery`) are routed
        through the per-arm SPJU path.
        """
        if isinstance(query, UnionQuery):
            return self._optimize_union(query)
        # bind() falls back to a fresh private context when the shared one
        # was built for different statistics — stale reuse is structurally
        # impossible, not merely discouraged.
        self.coster.bind(query, self.context)
        stats = OptimizerStats()
        evals_before = self.coster.cost_model.eval_count

        names = query.relation_names()
        table = self._run_dp(query, names, stats)

        full = frozenset(names)
        if full not in table or not self._entries_of(table, full):
            raise QueryError(
                "no plan found: the join graph is disconnected "
                "(pass allow_cross_products=True to permit cross joins)"
            )

        choices = self._finalize(full, query, table)
        stats.subsets_explored = sum(1 for s in table if self._entries_of(table, s))
        stats.formula_evaluations = self.coster.cost_model.eval_count - evals_before
        best = choices[0]
        kept = choices[: self.top_k] if self.top_k > 1 else [best]
        return OptimizationResult(best=best, candidates=kept, stats=stats)

    # ------------------------------------------------------------------
    # DP internals
    # ------------------------------------------------------------------

    def _run_dp(
        self, query: JoinQuery, names: Sequence[str], stats: OptimizerStats
    ) -> _Table:
        """Fill the subset table for ``names`` (one SPJ block).

        Levels come from :meth:`PlanSpace.level_candidates` as explicit
        lists — level ``k`` depends only on levels ``< k``, so a sharded
        serving tier can fan one level's subsets out to workers.
        """
        table: _Table = {}

        # Depth 1: access paths for the stored relations.  A relation with
        # an index over its local filter gets two candidate paths; the
        # per-(subset, order) TopKList keeps the best (or the top k).
        for name in names:
            paths = [Scan(table=name)]
            if query.relation(name).has_index_path():
                paths.append(Scan(table=name, access=AccessPath.INDEX_SCAN))
            bucket: TopKList[DPEntry] = TopKList(self.top_k)
            for scan in paths:
                entry = DPEntry(
                    node=scan, cost=self.coster.access_cost(scan), order=None
                )
                bucket.offer(entry.cost, entry)
                stats.entries_offered += 1
            table[frozenset((name,))] = {None: bucket}

        # Depths 2..n.
        for size in range(2, len(names) + 1):
            level = self.space.level_candidates(
                query,
                size,
                allow_cross_products=self.allow_cross_products,
                names=names,
            )
            if not self._prune:
                self._prefetch_level(level, query, table)
            for subset in level:
                self._build_subset(subset, query, table, stats)
        return table

    def _joinable_partitions(
        self,
        subset: FrozenSet[str],
        query: JoinQuery,
        table: _Table,
    ) -> Iterator[Tuple[FrozenSet[str], FrozenSet[str], str, Optional[str]]]:
        """``(left, right, label, order_target)`` per partition the DP joins.

        Skips partitions with a side absent from the table and, without
        ``allow_cross_products``, partitions no predicate crosses.  Both
        :meth:`_prefetch_level` and :meth:`_build_subset` iterate this,
        so the prefetch requests exactly the steps the scan will cost.
        """
        within = query.predicates_within(subset)
        for left_rels, right_rels in self.space.partitions(subset):
            if left_rels not in table or right_rels not in table:
                continue
            preds = [p for p in within if (p.left in left_rels) != (p.right in left_rels)]
            if preds:
                yield left_rels, right_rels, preds[0].label, preds[0].order_label
            elif self.allow_cross_products:
                yield left_rels, right_rels, f"cross[{min(right_rels)}]", None

    def _prefetch_level(
        self,
        level: Sequence[FrozenSet[str]],
        query: JoinQuery,
        table: _Table,
    ) -> None:
        """Hand one DP level's join steps to the coster in a single batch.

        Requests one step per method for every (left-sorted,
        right-sorted) combination of non-empty order buckets that
        :meth:`_build_subset` will combine.  Level ``k`` partitions only
        read levels ``< k``, all already in ``table``, so batching ahead
        of the subset loop sees the same state.
        """
        requests = []
        for subset in level:
            phase = len(subset) - 2
            for left_rels, right_rels, _, order_target in self._joinable_partitions(
                subset, query, table
            ):
                combos = {
                    (
                        order_target is not None and lorder == order_target,
                        order_target is not None and rorder == order_target,
                    )
                    for lorder, lbucket in table[left_rels].items()
                    if lbucket.items()
                    for rorder, rbucket in table[right_rels].items()
                    if rbucket.items()
                }
                for lsorted, rsorted in sorted(combos):
                    for method in self.coster.methods:
                        requests.append(
                            (method, left_rels, right_rels, phase, lsorted, rsorted)
                        )
        if requests:
            self.coster.prefetch_join_steps(requests)

    def _build_subset(
        self,
        subset: FrozenSet[str],
        query: JoinQuery,
        table: _Table,
        stats: OptimizerStats,
    ) -> None:
        buckets: Dict[Optional[str], TopKList[DPEntry]] = {}
        phase = len(subset) - 2
        for left_rels, right_rels, label, order_target in self._joinable_partitions(
            subset, query, table
        ):
            if self._prune and self._dominated(
                left_rels, right_rels, order_target or label, buckets, table
            ):
                stats.partitions_pruned += 1
                continue
            left_write = (
                self.coster.write_cost(left_rels) if len(left_rels) > 1 else 0.0
            )
            right_write = (
                self.coster.write_cost(right_rels) if len(right_rels) > 1 else 0.0
            )
            pipelined = self.coster.cost_model.pipelined_methods
            # Interesting orders: an input whose order matches this join's
            # order label earns sort-merge credit, so inputs must be
            # combined *per order group* — pooling across orders could
            # discard an order-carrying subplan that wins downstream.
            step_cache: Dict[tuple, float] = {}
            for lorder, lbucket in table[left_rels].items():
                for rorder, rbucket in table[right_rels].items():
                    left_entries = [e for _, e in lbucket.items()]
                    right_entries = [e for _, e in rbucket.items()]
                    if not left_entries or not right_entries:
                        continue
                    lsorted = order_target is not None and lorder == order_target
                    rsorted = order_target is not None and rorder == order_target
                    merged = merge_top_combinations(
                        [e.cost for e in left_entries],
                        [e.cost for e in right_entries],
                        self.top_k,
                    )
                    stats.merge_probes += merged.probes
                    for method in self.coster.methods:
                        key = (method, lsorted, rsorted)
                        if key not in step_cache:
                            step_cache[key] = self.coster.join_step_cost(
                                method,
                                left_rels,
                                right_rels,
                                phase,
                                left_presorted=lsorted,
                                right_presorted=rsorted,
                            )
                        step = step_cache[key]
                        # A pipelined nested-loop join streams its outer
                        # (left) input: no materialisation write for it.
                        write_children = right_write + (
                            0.0 if method in pipelined else left_write
                        )
                        order = order_from_join(
                            method, order_target if order_target else label
                        )
                        bucket = buckets.setdefault(order, TopKList(self.top_k))
                        for combined, li, ri in merged.combinations:
                            total = combined + step + write_children
                            node = self.space.join(
                                left=left_entries[li].node,
                                right=right_entries[ri].node,
                                method=method,
                                predicate_label=label,
                                order_label=order_target,
                            )
                            bucket.offer(
                                total, DPEntry(node=node, cost=total, order=order)
                            )
                            stats.entries_offered += 1
        if buckets:
            table[subset] = buckets

    def _dominated(
        self,
        left_rels: FrozenSet[str],
        right_rels: FrozenSet[str],
        order_label: str,
        buckets: Dict[Optional[str], "TopKList[DPEntry]"],
        table: _Table,
    ) -> bool:
        """Chen & Schneider partition prune (sound, never affects results).

        Every join method reads both inputs at least once, so
        ``lo(L) + lo(R)`` (the coster's page lower bounds) plus the
        cheapest retained child entries lower-bounds every candidate this
        partition can produce.  The partition is skipped only when that
        bound *strictly* exceeds the worst retained cost of every order
        bucket the partition could feed — so no entry that could ever be
        kept (or tie) is lost.
        """
        reachable = {order_from_join(m, order_label) for m in self.coster.methods}
        worst = None
        for key in reachable:
            bucket = buckets.get(key)
            if bucket is None:
                return False  # an open bucket accepts anything
            bucket_worst = bucket.worst_cost()
            if bucket_worst is None:
                return False  # bucket not full yet
            worst = bucket_worst if worst is None else max(worst, bucket_worst)
        lower = (
            self._min_cost(table, left_rels)
            + self._min_cost(table, right_rels)
            + self.coster.pages_lower_bound(left_rels)
            + self.coster.pages_lower_bound(right_rels)
        )
        return lower > worst

    @staticmethod
    def _min_cost(table: _Table, rels: FrozenSet[str]) -> float:
        best = None
        for bucket in table[rels].values():
            items = bucket.items()
            if items and (best is None or items[0][0] < best):
                best = items[0][0]
        return best if best is not None else 0.0

    @staticmethod
    def _entries_of(table, subset) -> List[DPEntry]:
        if subset not in table:
            return []
        out: List[DPEntry] = []
        for bucket in table[subset].values():
            out.extend(entry for _, entry in bucket.items())
        return out

    def _finalize(
        self,
        full: FrozenSet[str],
        query: JoinQuery,
        table,
    ) -> List[PlanChoice]:
        """Apply required-order enforcement, projection, and rank plans."""
        phase = max(0, len(full) - 2)
        needs_order = query.required_order is not None and len(full) > 1
        project = getattr(query, "projection_ratio", 1.0) < 1.0
        choices: List[PlanChoice] = []
        for _order, bucket in table[full].items():
            for cost, entry in bucket.items():
                total = cost
                node: PlanNode = entry.node
                if needs_order and entry.order != query.required_order:
                    total += self.coster.write_cost(full)
                    total += self.coster.final_sort_cost(full, phase)
                    node = Sort(child=node, sort_order=query.required_order)
                if project:
                    # Projection streams at the block root: free, and the
                    # plan's output size reports the projected width.
                    node = Project(child=node)
                choices.append(PlanChoice(plan=Plan(node), objective=total))
        choices.sort(key=lambda c: c.objective)
        return choices

    # ------------------------------------------------------------------
    # SPJU blocks
    # ------------------------------------------------------------------

    def _optimize_union(self, query: UnionQuery) -> OptimizationResult:
        """Optimize a union block: per-arm DP + union overhead.

        Arms share no predicates, so each arm's dag is independent; the
        chosen arm plans are combined under one Union root.  Arm outputs
        stream under UNION ALL (no materialisation write — the same
        invariant as the DP root) and are charged projected writes plus a
        dedup sort under DISTINCT, via :meth:`Coster.union_overhead`.
        """
        if not self.space.supports_union:
            raise OptimizerConfigError(
                f"query is a union block but plan space {self.space.key!r} "
                "does not admit union plans; use plan_space='spju' "
                "(or another '+union' space)"
            )
        if self.coster.requires_ordered_phases:
            raise OptimizerConfigError(
                f"{type(self.coster).__name__} needs canonical join phases; "
                "union plans do not have them"
            )
        self.coster.bind(query, self.context)
        stats = OptimizerStats()
        evals_before = self.coster.cost_model.eval_count

        arm_nodes: List[PlanNode] = []
        arm_info = []
        total = 0.0
        explored = 0
        for arm in query.arms:
            names = [r.name for r in arm.relations]
            table = self._run_dp(query, names, stats)
            full = frozenset(names)
            entries = self._entries_of(table, full)
            if not entries:
                raise QueryError(
                    f"no plan found for union arm over {sorted(names)}: its "
                    "join graph is disconnected (pass "
                    "allow_cross_products=True to permit cross joins)"
                )
            best = min(entries, key=lambda e: e.cost)
            node: PlanNode = best.node
            materialised = isinstance(node, Join)
            if arm.projection_ratio < 1.0:
                node = Project(child=node)
            arm_nodes.append(node)
            arm_info.append((full, arm.projection_ratio, materialised))
            total += best.cost
            explored += sum(1 for s in table if self._entries_of(table, s))

        total += self.coster.union_overhead(arm_info, query.distinct)
        root = UnionNode(inputs=tuple(arm_nodes), distinct=query.distinct)
        choice = PlanChoice(plan=Plan(root), objective=total)
        stats.subsets_explored = explored
        stats.formula_evaluations = self.coster.cost_model.eval_count - evals_before
        return OptimizationResult(best=choice, candidates=[choice], stats=stats)
