"""Algorithm C: the exact LEC dynamic program (Sections 3.4-3.5).

Instead of generating candidates per parameter setting and re-scoring
them, Algorithm C merges candidate generation and costing: every DP step
is costed by its *expected* cost directly, and since expectation
distributes over the sum of node costs, the usual optimal-substructure
argument goes through — the result is the exact LEC left-deep plan
(Theorem 3.3).

Dynamic parameters (Section 3.5) need no new algorithm: passing a
:class:`~repro.core.markov.MarkovParameter` swaps the static memory
distribution for per-phase marginals, and the very same DP returns the
exact LEC plan over the random memory *sequence* (Theorem 3.4).
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.markov import MarkovParameter
from ..costmodel.model import CostModel
from ..optimizer.costers import ExpectedCoster, MarkovCoster
from ..optimizer.result import OptimizationResult
from ..optimizer.systemr import SystemRDP
from ..plans.query import JoinQuery
from .context import OptimizationContext
from .distributions import DiscreteDistribution

__all__ = ["optimize_algorithm_c"]


def optimize_algorithm_c(
    query: JoinQuery,
    memory: Union[DiscreteDistribution, MarkovParameter],
    cost_model: Optional[CostModel] = None,
    plan_space: str = "left-deep",
    allow_cross_products: bool = False,
    top_k: int = 1,
    context: Optional[OptimizationContext] = None,
) -> OptimizationResult:
    """Compute the LEC plan by expected-cost dynamic programming.

    Parameters
    ----------
    memory:
        A :class:`~repro.core.distributions.DiscreteDistribution` for the
        static case, or a :class:`~repro.core.markov.MarkovParameter` for
        memory that changes between join phases.
    plan_space:
        ``"left-deep"`` for the paper's space.  ``"bushy"`` is supported
        for static memory only (bushy trees have no canonical phase
        order).
    """
    if isinstance(memory, MarkovParameter):
        coster: Union[ExpectedCoster, MarkovCoster] = MarkovCoster(
            memory, cost_model=cost_model
        )
    elif isinstance(memory, DiscreteDistribution):
        coster = ExpectedCoster(memory, cost_model=cost_model)
    else:
        raise TypeError(
            "memory must be a DiscreteDistribution or MarkovParameter, "
            f"got {type(memory).__name__}"
        )
    engine = SystemRDP(
        coster,
        plan_space=plan_space,
        allow_cross_products=allow_cross_products,
        top_k=top_k,
        context=context,
    )
    return engine.optimize(query)
