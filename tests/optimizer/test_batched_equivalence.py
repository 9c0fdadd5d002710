"""Batched level evaluation must be invisible in every observable output.

On the unpruned left-deep space ``SystemRDP`` hands each DP level's join
steps to the coster's vectorized ``prefetch_join_steps`` before costing
them one call at a time; the on-demand path is forced here by replacing
that hook with a no-op.  The contract is *bit-identical* results: same
winning plan, same objective to the last ulp, and the same
``formula_evaluations`` accounting, because the prefetch requests
exactly the steps the per-subset scan costs.  These tests drive that
contract across every coster (algorithms A–D and the dependent Bayes-net
coster) and the seeded randomized search.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.algorithm_d import (
    optimize_algorithm_d,
    plan_expected_cost_multiparam,
)
from repro.core.bayesnet import DiscreteBayesNet
from repro.core.context import OptimizationContext
from repro.core.distributions import DiscreteDistribution
from repro.core.markov import MarkovParameter
from repro.optimizer.costers import (
    ExpectedCoster,
    MarkovCoster,
    MultiParamCoster,
    PointCoster,
)
from repro.optimizer.dependent import BayesNetCoster
from repro.optimizer.randomized import iterative_improvement
from repro.optimizer.systemr import SystemRDP
from repro.workloads.queries import (
    chain_query,
    random_query,
    star_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)

MEMORY = DiscreteDistribution([2000.0, 300.0], [0.7, 0.3])


def _queries():
    rng = np.random.default_rng(11)
    plain = [
        chain_query(4, rng),
        star_query(4, rng),
        chain_query(4, rng, require_order=True),
        random_query(4, rng, min_pages=200, max_pages=120000, rows_per_page=100),
    ]
    return [
        with_selectivity_uncertainty(with_size_uncertainty(q, 0.8), 0.8)
        for q in plain
    ]


QUERIES = _queries()


def _coster(kind: str):
    if kind == "point":
        return PointCoster(1200.0)
    if kind == "expected":
        return ExpectedCoster(MEMORY)
    if kind == "markov":
        chain = MarkovParameter(
            [300.0, 2000.0],
            [0.3, 0.7],
            [[0.6, 0.4], [0.2, 0.8]],
        )
        return MarkovCoster(chain)
    if kind == "multiparam-fast":
        return MultiParamCoster(MEMORY, fast=True)
    if kind == "multiparam-naive":
        return MultiParamCoster(MEMORY, fast=False)
    if kind == "bayesnet":
        net = DiscreteBayesNet()
        net.add_node("load", [0.0, 1.0], probs=[0.6, 0.4])
        net.add_node(
            "M", [2000.0, 500.0], parents=["load"],
            cpt={(0.0,): [0.9, 0.1], (1.0,): [0.2, 0.8]},
        )
        return BayesNetCoster(net)
    raise AssertionError(kind)


def _no_prefetch(*_):
    """Stand-in ``prefetch_join_steps``: every step computes on demand."""


def _run(kind: str, query, batching: bool, monkeypatch, top_k: int = 1):
    coster = _coster(kind)
    if not batching:
        monkeypatch.setattr(coster, "prefetch_join_steps", _no_prefetch)
    engine = SystemRDP(
        coster,
        plan_space="left-deep",
        top_k=top_k,
        context=OptimizationContext(query),
    )
    return engine.optimize(query)


COSTER_KINDS = [
    "point", "expected", "markov", "multiparam-fast", "multiparam-naive",
    "bayesnet",
]


class TestLevelBatchingEquivalence:
    @pytest.mark.parametrize("kind", COSTER_KINDS)
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_left_deep_bitwise_and_eval_parity(self, kind, qidx, monkeypatch):
        query = QUERIES[qidx]
        seq = _run(kind, query, batching=False, monkeypatch=monkeypatch)
        bat = _run(kind, query, batching=True, monkeypatch=monkeypatch)
        assert bat.plan.signature() == seq.plan.signature()
        assert math.isclose(
            bat.objective, seq.objective, rel_tol=0.0, abs_tol=0.0
        )
        # Without pruning the prefetch replays on-demand evaluation
        # one-for-one, so the paper's effort metric is unchanged too.
        assert (
            bat.stats.formula_evaluations == seq.stats.formula_evaluations
        )

    @pytest.mark.parametrize("kind", COSTER_KINDS)
    def test_candidate_lists_identical_with_top_k(self, kind, monkeypatch):
        query = QUERIES[1]
        seq, bat = (
            _run(kind, query, batching, monkeypatch, top_k=3)
            for batching in (False, True)
        )
        assert [c.plan.signature() for c in bat.candidates] == [
            c.plan.signature() for c in seq.candidates
        ]
        for b, s in zip(bat.candidates, seq.candidates):
            assert math.isclose(
                b.objective, s.objective, rel_tol=0.0, abs_tol=0.0
            )


class _SpyCoster(PointCoster):
    """Records the steps prefetched and the steps costed on demand."""

    def __init__(self):
        super().__init__(1200.0)
        self.prefetched = []
        self.on_demand = set()

    def prefetch_join_steps(self, requests, pool=None):
        self.prefetched.extend(requests)
        super().prefetch_join_steps(requests)

    def join_step_cost(
        self, method, left_rels, right_rels, phase,
        left_presorted=False, right_presorted=False,
    ):
        self.on_demand.add(
            (method, left_rels, right_rels, phase, left_presorted, right_presorted)
        )
        return super().join_step_cost(
            method, left_rels, right_rels, phase, left_presorted, right_presorted
        )


class TestPrefetchRequestsExactlyTheCostedSteps:
    """The level prefetch and the per-subset scan share one partition filter.

    ``formula_evaluations`` parity cannot see a prefetch that misses
    steps (they are simply costed on demand), so compare the step keys.
    """

    @pytest.mark.parametrize(
        "make_query, cross",
        [
            (lambda rng: chain_query(5, rng), False),
            (
                lambda rng: chain_query(
                    5, rng, require_order=True, shared_attribute=True
                ),
                False,
            ),
            (lambda rng: chain_query(4, rng), True),
        ],
        ids=["plain", "require-order", "cross-products"],
    )
    def test_left_deep_prefetch_matches_on_demand_keys(self, make_query, cross):
        query = make_query(np.random.default_rng(3))
        coster = _SpyCoster()
        SystemRDP(
            coster,
            plan_space="left-deep",
            allow_cross_products=cross,
            context=OptimizationContext(query),
        ).optimize(query)
        assert coster.on_demand
        if query.required_order is not None:
            # Interesting orders reach the prefetch as presorted steps.
            assert any(lps or rps for *_, lps, rps in coster.on_demand)
        assert len(coster.prefetched) == len(set(coster.prefetched))
        assert set(coster.prefetched) == coster.on_demand


class TestAlgorithmDEndToEnd:
    @pytest.mark.parametrize("fast", [False, True])
    def test_algorithm_d_batched_matches_sequential(self, fast, monkeypatch):
        query = QUERIES[3]
        bat = optimize_algorithm_d(query, MEMORY, fast=fast)
        monkeypatch.setattr(MultiParamCoster, "prefetch_join_steps", _no_prefetch)
        seq = optimize_algorithm_d(query, MEMORY, fast=fast)
        assert bat.plan.signature() == seq.plan.signature()
        assert math.isclose(
            bat.objective, seq.objective, rel_tol=0.0, abs_tol=0.0
        )

    def test_whole_plan_evaluator_fast_matches_naive(self):
        query = QUERIES[0]
        plan = optimize_algorithm_d(query, MEMORY, fast=True).plan
        naive = plan_expected_cost_multiparam(plan, query, MEMORY, fast=False)
        fast = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        assert fast == pytest.approx(naive, rel=1e-9)

    def test_whole_plan_evaluator_batching_is_deterministic(self):
        query = QUERIES[1]
        plan = optimize_algorithm_d(query, MEMORY, fast=True).plan
        first = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        again = plan_expected_cost_multiparam(plan, query, MEMORY, fast=True)
        assert math.isclose(first, again, rel_tol=0.0, abs_tol=0.0)


class TestRandomizedSearchDeterminism:
    def test_seeded_search_with_batched_scorer_is_reproducible(self):
        # DET001 discipline: the only randomness is the caller's seeded
        # generator, so two runs with equal seeds must tie-break the
        # same way even though the scorer routes through the batched
        # kernel (shared context memo included).
        query = QUERIES[3]
        outcomes = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            context = OptimizationContext(query)
            res = iterative_improvement(
                query,
                lambda p: plan_expected_cost_multiparam(
                    p, query, MEMORY, fast=True, context=context
                ),
                rng,
                n_restarts=3,
                max_steps=40,
            )
            outcomes.append((res.plan.signature(), res.objective))
        assert outcomes[0][0] == outcomes[1][0]
        assert math.isclose(
            outcomes[0][1], outcomes[1][1], rel_tol=0.0, abs_tol=0.0
        )

    def test_batched_and_sequential_scorers_pick_same_plan(self):
        query = QUERIES[0]
        picks = []
        for fast in (False, True):
            rng = np.random.default_rng(5)
            res = iterative_improvement(
                query,
                lambda p, _f=fast: plan_expected_cost_multiparam(
                    p, query, MEMORY, fast=_f
                ),
                rng,
                n_restarts=2,
                max_steps=30,
            )
            picks.append(res.plan.signature())
        assert picks[0] == picks[1]
