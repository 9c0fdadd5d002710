"""The LSC baseline: classical System-R optimization at a point estimate.

"Current optimizers simply approximate each distribution by using the
mean or modal value.  They then choose the plan that is cheapest under
the assumption that the parameters actually take these specific values."
This module is that baseline (Theorem 2.1): the full System-R dynamic
program with a :class:`~repro.optimizer.costers.PointCoster`.
"""

from __future__ import annotations

from typing import Optional

from ..costmodel.model import CostModel
from ..optimizer.costers import PointCoster
from ..optimizer.result import OptimizationResult
from ..optimizer.systemr import SystemRDP
from .context import OptimizationContext
from ..plans.query import JoinQuery
from .distributions import DiscreteDistribution

__all__ = ["optimize_lsc", "lsc_at_mean", "lsc_at_mode"]


def optimize_lsc(
    query: JoinQuery,
    memory: float,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    top_k: int = 1,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """Find the least-specific-cost plan at the given memory value.

    This is one invocation of the standard optimizer; Algorithms A and B
    call it once per bucket.  Passing a shared ``context`` lets repeated
    invocations over the same query reuse memoized sizes and step costs.
    """
    coster = PointCoster(memory, cost_model=cost_model)
    engine = SystemRDP(
        coster,
        plan_space=plan_space,
        allow_cross_products=allow_cross_products,
        top_k=top_k,
        context=context,
    )
    return engine.optimize(query)


def lsc_at_mean(
    query: JoinQuery,
    memory: DiscreteDistribution,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """The classical choice: optimize at the distribution's *mean*."""
    return optimize_lsc(
        query,
        memory.mean(),
        cost_model=cost_model,
        plan_space=plan_space,
        allow_cross_products=allow_cross_products,
        context=context,
    )


def lsc_at_mode(
    query: JoinQuery,
    memory: DiscreteDistribution,
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """The other classical choice: optimize at the distribution's *mode*."""
    return optimize_lsc(
        query,
        memory.mode(),
        cost_model=cost_model,
        plan_space=plan_space,
        allow_cross_products=allow_cross_products,
        context=context,
    )
