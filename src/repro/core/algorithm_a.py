"""Algorithm A: the standard optimizer as a black box (Section 3.2).

For each memory bucket ``m_i`` run an unmodified LSC optimizer assuming
``m_i`` is the real memory; this yields (up to) ``b`` candidate plans.
Then score every candidate by its true expected cost under the memory
distribution and keep the cheapest.

Guarantees: the result is never worse (in expectation) than the classical
LSC plan *provided the classical point (mean/mode) is among the buckets* —
callers can ensure this with ``include_mean=True`` (the default, matching
the paper's "without loss of generality" remark).  It may still miss the
true LEC plan: a plan optimal for no single bucket can win on average.
"""

from __future__ import annotations

from typing import List, Optional

from ..costmodel.model import CostModel
from ..optimizer.costers import PointCoster
from ..optimizer.result import OptimizationResult, OptimizerStats, PlanChoice
from ..optimizer.systemr import SystemRDP
from ..plans.nodes import Plan
from ..plans.query import JoinQuery
from .context import OptimizationContext
from .distributions import DiscreteDistribution

__all__ = ["optimize_algorithm_a"]


def optimize_algorithm_a(
    query: JoinQuery,
    memory: DiscreteDistribution,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    include_mean: bool = True,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """Run Algorithm A and return the candidate of least expected cost.

    The returned ``candidates`` list holds every distinct per-bucket
    winner with its expected cost (best first); ``stats`` accumulates the
    counters of all ``b`` black-box invocations plus the final costing
    pass.  A shared ``context`` lets the ``b`` black-box invocations (and
    any sibling optimizers) reuse memoized sizes and step costs.
    """
    cm = cost_model if cost_model is not None else CostModel()
    if context is None:
        context = OptimizationContext(query, cost_model=cm)
    probe_points = list(memory.support())
    if include_mean and memory.mean() not in probe_points:
        probe_points.append(memory.mean())

    stats = OptimizerStats(invocations=0)
    seen: dict = {}
    for m in probe_points:
        engine = SystemRDP(
            PointCoster(m, cost_model=cm),
            plan_space=plan_space,
            allow_cross_products=allow_cross_products,
            context=context,
        )
        result = engine.optimize(query)
        stats = stats.merged_with(result.stats)
        plan = result.plan
        seen.setdefault(plan.signature(), plan)

    evals_before = cm.eval_count
    choices: List[PlanChoice] = []
    for plan in seen.values():
        expected = cm.plan_expected_cost(plan, query, memory)
        choices.append(PlanChoice(plan=plan, objective=expected))
    choices.sort(key=lambda c: c.objective)
    stats.formula_evaluations += cm.eval_count - evals_before
    return OptimizationResult(best=choices[0], candidates=choices, stats=stats)
