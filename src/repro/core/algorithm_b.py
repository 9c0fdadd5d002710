"""Algorithm B: top-c candidates per bucket (Section 3.3).

Like Algorithm A, but each per-bucket System-R invocation retains the top
``c`` plans at every dag node (using the Proposition 3.1 merge to combine
candidate lists), yielding up to ``c·b`` candidates overall.  The wider
candidate set catches plans that are second-best at every single memory
value yet best on average — the case Algorithm A provably misses.
"""

from __future__ import annotations

from typing import List, Optional

from ..costmodel.model import CostModel
from ..optimizer.costers import PointCoster
from ..optimizer.result import OptimizationResult, OptimizerStats, PlanChoice
from ..optimizer.systemr import SystemRDP
from ..plans.query import JoinQuery
from .context import OptimizationContext
from .distributions import DiscreteDistribution

__all__ = ["optimize_algorithm_b"]


def optimize_algorithm_b(
    query: JoinQuery,
    memory: DiscreteDistribution,
    c: int = 3,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    include_mean: bool = True,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """Run Algorithm B with ``c`` plans per bucket; pick by expected cost.

    ``candidates`` holds the union of all buckets' top-``c`` lists
    (deduplicated) with true expected costs, best first.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
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
            top_k=c,
            context=context,
        )
        result = engine.optimize(query)
        stats = stats.merged_with(result.stats)
        for choice in result.candidates:
            seen.setdefault(choice.plan.signature(), choice.plan)

    evals_before = cm.eval_count
    choices: List[PlanChoice] = []
    for plan in seen.values():
        expected = cm.plan_expected_cost(plan, query, memory)
        choices.append(PlanChoice(plan=plan, objective=expected))
    choices.sort(key=lambda ch: ch.objective)
    stats.formula_evaluations += cm.eval_count - evals_before
    return OptimizationResult(best=choices[0], candidates=choices, stats=stats)
