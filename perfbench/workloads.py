"""Seeded inputs for the three benchmark workloads, and their digest.

The benchmark builds its own inputs from the ``repro.workloads.queries``
primitives so that changes to the library's replay generators cannot move
them.  The same seed and size always give the same inputs, and
:func:`inputs_digest` hashes them through ``query_fingerprint``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.context import query_fingerprint
from repro.core.distributions import DiscreteDistribution
from repro.plans.query import JoinQuery
from repro.workloads.queries import (
    chain_query,
    random_query,
    star_query,
    with_selectivity_uncertainty,
    with_size_uncertainty,
)

#: Memory (pages) every request optimizes under.
MEMORY = DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])


@dataclass(frozen=True)
class Request:
    query: JoinQuery
    objective: str
    plan_space: str


@dataclass(frozen=True)
class Size:
    """How many inputs a workload pre-generates, and how large they are.

    The pools are sized so a run never exhausts them on this kind of
    host; a run that does stops early rather than repeat a query.
    """

    bushy_n: Sequence[int]
    bushy_pool: int
    leftdeep_n: Sequence[int]
    leftdeep_pool: int
    replay_distinct: int
    replay_requests: int
    replay_rounds: int
    replay_relations: Sequence[int]


FULL = Size(
    bushy_n=(8, 10, 12), bushy_pool=300,
    leftdeep_n=(7, 8, 9), leftdeep_pool=1200,
    replay_distinct=60, replay_requests=300, replay_rounds=40,
    replay_relations=(4, 6),
)
TINY = Size(
    bushy_n=(4, 5, 6), bushy_pool=60,
    leftdeep_n=(4, 5, 6), leftdeep_pool=60,
    replay_distinct=6, replay_requests=30, replay_rounds=6,
    replay_relations=(3, 4),
)


def dp_bushy(seed: int, size: Size) -> List[Request]:
    """Distinct chain queries, n cycling, objective alternating."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for i in range(size.bushy_pool):
        n = size.bushy_n[i % len(size.bushy_n)]
        query = with_selectivity_uncertainty(
            with_size_uncertainty(chain_query(n, rng), 0.8), 0.8
        )
        out.append(Request(query, ("lec", "multiparam")[i % 2], "bushy"))
    return out


def dp_leftdeep(seed: int, size: Size) -> List[Request]:
    """Distinct star queries, n cycling, objective alternating."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for i in range(size.leftdeep_pool):
        n = size.leftdeep_n[i % len(size.leftdeep_n)]
        out.append(Request(star_query(n, rng), ("lsc", "lec")[i % 2], "left-deep"))
    return out


@dataclass(frozen=True)
class Round:
    """``picks`` index into ``queries``: the order requests are sent in."""

    queries: List[Request]
    picks: np.ndarray

    def requests(self) -> List[Request]:
        return [self.queries[i] for i in self.picks]


def replay_rounds(seed: int, size: Size) -> List[Round]:
    """Rounds of Zipf picks, each over its own fresh distinct queries.

    One round is ``replay_requests`` picks over ``replay_distinct``
    queries with 1/rank weights; later rounds never repeat an earlier
    round's query, so every round has the same hit ratio on one gateway.
    """
    rng = np.random.default_rng([seed, 3])
    lo, hi = size.replay_relations
    weights = 1.0 / np.arange(1, size.replay_distinct + 1)
    weights /= weights.sum()
    rounds = []
    for _ in range(size.replay_rounds):
        queries = [
            Request(
                with_selectivity_uncertainty(
                    random_query(int(rng.integers(lo, hi + 1)), rng), 1.0, n_buckets=4
                ),
                "lec",
                "left-deep",
            )
            for _ in range(size.replay_distinct)
        ]
        picks = rng.choice(size.replay_distinct, size=size.replay_requests, p=weights)
        rounds.append(Round(queries, picks))
    return rounds


def _canonical(obj):
    """A JSON-able, platform-independent form of a fingerprint."""
    if isinstance(obj, DiscreteDistribution):
        return ["dist", [float(v).hex() for v in obj.values],
                [float(p).hex() for p in obj.probs]]
    if isinstance(obj, (tuple, list)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, float):
        return float(obj).hex()
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def inputs_digest(requests: Sequence[Request], picks: Sequence[int] = ()) -> str:
    """sha256 over each request's query fingerprint, objective and space.

    ``picks`` (the replay schedule) is hashed after the requests.
    """
    h = hashlib.sha256()
    for r in requests:
        doc = [_canonical(query_fingerprint(r.query)), r.objective, r.plan_space]
        h.update(json.dumps(doc, separators=(",", ":")).encode())
        h.update(b"\n")
    h.update(json.dumps([int(i) for i in picks]).encode())
    return h.hexdigest()[:16]
