"""One expected-cost coster serves point, static and Markov memory.

LSC is the expected cost under a one-point distribution (Theorem 2.1),
a chain that never moves is static memory, and Algorithm A is
Algorithm B keeping one plan per dag node.  Each pair must agree bit
for bit: same plans, ``==`` objectives and the same effort counters.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.algorithm_a import optimize_algorithm_a
from repro.core.algorithm_b import optimize_algorithm_b
from repro.core.distributions import DiscreteDistribution, point_mass
from repro.core.lsc import optimize_lsc
from repro.core.markov import MarkovParameter
from repro.optimizer.costers import ExpectedCoster
from repro.optimizer.systemr import SystemRDP
from repro.workloads.queries import chain_query, star_query

MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
SPACES = ["left-deep", "zig-zag", "bushy"]


def _queries():
    rng = np.random.default_rng(17)
    return [chain_query(6, rng), star_query(6, rng), chain_query(5, rng)]


QUERIES = _queries()


def _summary(result):
    """Candidate plans, exact objectives and effort counters, best first."""
    return (
        [c.plan.signature() for c in result.candidates],
        [c.objective for c in result.candidates],
        result.stats,
    )


def _facade(query, objective, memory, space):
    repro.clear_context_cache()
    return repro.optimize(
        query, objective, memory=memory, plan_space=space, top_k=3
    )


class TestLscIsPointMassLec:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    @pytest.mark.parametrize("m", [400.0, 1500.0, 4000.0])
    def test_facade_results_identical(self, space, qidx, m):
        query = QUERIES[qidx]
        lsc = _facade(query, "lsc", m, space)
        lec = _facade(query, "lec", point_mass(m), space)
        assert _summary(lsc) == _summary(lec)


class TestStillChainIsStaticMemory:
    @pytest.mark.parametrize("space", ["left-deep", "zig-zag"])
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_identity_transition_equals_static(self, space, qidx):
        query = QUERIES[qidx]
        chain = MarkovParameter(MEMORY.values, MEMORY.probs, np.eye(3))
        dynamic = SystemRDP(
            ExpectedCoster(chain), plan_space=space, top_k=3
        ).optimize(query)
        static = SystemRDP(
            ExpectedCoster(MEMORY), plan_space=space, top_k=3
        ).optimize(query)
        assert _summary(dynamic) == _summary(static)


class TestAlgorithmAIsAlgorithmBAtOne:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_candidates_and_stats_identical(self, space, qidx):
        query = QUERIES[qidx]
        a = optimize_algorithm_a(query, MEMORY, plan_space=space)
        b = optimize_algorithm_b(query, MEMORY, c=1, plan_space=space)
        assert _summary(a) == _summary(b)

    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_candidates_are_the_per_bucket_lsc_winners(self, qidx):
        query = QUERIES[qidx]
        a = optimize_algorithm_a(query, MEMORY)
        probes = [*MEMORY.support(), MEMORY.mean()]
        winners = {optimize_lsc(query, m).plan.signature() for m in probes}
        assert sorted(c.plan.signature() for c in a.candidates) == sorted(winners)
        assert a.stats.invocations == len(probes)
