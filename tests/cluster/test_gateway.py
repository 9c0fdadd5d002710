"""End-to-end gateway tests: real worker processes over real sockets.

Each test spins up a small cluster (1–2 worker processes), so the file
trades breadth per test for a handful of spawns.  Queries are kept tiny
(2–3 relations) to make each optimization cheap; the crash drills kill
the worker *before* dispatch, which exercises the same EOF → respawn →
re-warm → replay path as a mid-flight crash but without racing the
optimizer.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.catalog.schema import Catalog, Column, Table
from repro.catalog.statistics import StatisticsCatalog
from repro.cluster import AdmissionController, ClusterGateway, fingerprint_digest
from repro.cluster import gateway as gateway_mod
from repro.cluster.protocol import encode_frame
from repro.core.distributions import DiscreteDistribution
from repro.optimizer.errors import OptimizerConfigError
from repro.plans.query import JoinPredicate, JoinQuery, RelationSpec
from repro.serving.service import OptimizeRequest

_MEMORY = DiscreteDistribution([300.0, 900.0], [0.5, 0.5])


def _query(names=("R", "S", "T"), scale=1.0) -> JoinQuery:
    rels = [
        RelationSpec(name=n, pages=scale * 100.0 * (i + 1))
        for i, n in enumerate(names)
    ]
    preds = [
        JoinPredicate(names[i], names[i + 1], 0.01,
                      label=f"{names[i]}={names[i + 1]}")
        for i in range(len(names) - 1)
    ]
    return JoinQuery(rels, preds)


def _request(query=None, **kw) -> OptimizeRequest:
    fields = dict(objective="lec", memory=_MEMORY)
    fields.update(kw)
    return OptimizeRequest(
        query=query if query is not None else _query(), **fields,
    )


class TestOptimize:
    def test_end_to_end_and_cache_hit(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                first = await gw.optimize(_request())
                again = await gw.optimize(_request())
                return first, again

        first, again = asyncio.run(scenario())
        assert first.ok and not first.cache_hit
        assert first.rung == "full"
        assert first.plan.root is not None
        assert first.objective_value > 0

        assert again.ok and again.cache_hit
        assert again.cache_tier == "hot"
        assert again.objective_value == pytest.approx(first.objective_value)

    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                return await asyncio.gather(
                    *(gw.optimize(_request()) for _ in range(3))
                )

        results = asyncio.run(scenario())
        assert all(r.ok for r in results)
        # One leader does the work; the rest ride its future.
        assert sum(1 for r in results if r.coalesced) == 2
        values = {round(r.objective_value, 9) for r in results}
        assert len(values) == 1

    def test_routing_is_deterministic_per_fingerprint(self):
        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                queries = [_query(names=(f"A{i}", f"B{i}")) for i in range(6)]
                results = [await gw.optimize(_request(q)) for q in queries]
                repeats = [await gw.optimize(_request(q)) for q in queries]
                return results, repeats

        results, repeats = asyncio.run(scenario())
        assert {r.shard for r in results} == {0, 1}  # both shards used
        for first, second in zip(results, repeats):
            assert second.shard == first.shard
            assert second.cache_hit

    def test_validation_errors_raise_before_dispatch(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                with pytest.raises(OptimizerConfigError, match="objective"):
                    await gw.optimize(_request(objective="nonsense"))
                with pytest.raises(OptimizerConfigError, match="memory"):
                    await gw.optimize(query=_query(), objective="lec")
                with pytest.raises(OptimizerConfigError, match="cost model"):
                    from repro.costmodel.model import CostModel
                    await gw.optimize(_request(cost_model=CostModel()))

        asyncio.run(scenario())


class TestAdmission:
    def test_overload_sheds_at_the_door(self):
        async def scenario():
            admission = AdmissionController(soft_limit=1, hard_limit=2)
            async with ClusterGateway(shards=1, admission=admission) as gw:
                queries = [_query(names=(f"X{i}", f"Y{i}", f"Z{i}"))
                           for i in range(4)]
                return await asyncio.gather(
                    *(gw.optimize(_request(q)) for q in queries)
                )

        results = asyncio.run(scenario())
        shed = [r for r in results if r.status == "shed"]
        answered = [r for r in results if r.ok]
        assert shed, "hard limit 2 with 4 concurrent requests must shed"
        assert len(answered) + len(shed) == 4
        for r in shed:
            assert not r.ok
            assert r.admission is not None and not r.admission.accepted
        for r in answered:
            assert r.plan.root is not None


class TestCrashResilience:
    def test_dead_worker_is_restarted_and_request_replayed(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                await gw.optimize(_request())  # an answer to re-warm from
                gw.kill_worker(0)
                # The next request hits the dead socket: the gateway must
                # respawn the worker and replay, never drop.
                result = await gw.optimize(
                    _request(_query(names=("U", "V")))
                )
                pongs = await gw.check_health()
                snapshot = await gw.snapshot()
                return result, pongs, snapshot

        result, pongs, snapshot = asyncio.run(scenario())
        assert result.ok
        assert result.retries >= 1
        assert snapshot["restarts"] >= 1
        assert pongs[0] is not None and pongs[0]["shard"] == 0
        # The gateway re-warmed the respawned worker's cache.
        assert pongs[0]["warmed"] >= 1
        assert pongs[0]["warm_errors"] == 0

    def test_rewarmed_answer_is_a_bit_equal_cache_hit(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                first = await gw.optimize(_request())
                await _kill_and_await_respawn(gw, 0)
                pong = await gw.ping(0)
                again = await gw.optimize(_request())
                return first, pong, again

        first, pong, again = asyncio.run(scenario())
        assert not first.cache_hit
        assert pong["warmed"] == 1 and pong["warm_errors"] == 0
        # The new worker answered (no replay) from the warmed entry: the
        # plan document went worker -> gateway -> new worker and back,
        # and the objective survived every trip exactly (bit-equal is
        # the point, so no tolerance).
        assert again.cache_hit and again.retries == 0
        assert again.objective_value == first.objective_value  # optlint: disable=FLT001
        assert again.plan_doc == first.plan_doc

    def test_version_bump_before_crash_warms_nothing(self):
        schema = Catalog([Table("R", [Column("a")], n_rows=1000)])
        catalog = StatisticsCatalog(schema)

        async def scenario():
            async with ClusterGateway(
                shards=1, catalog_sources=[catalog]
            ) as gw:
                await gw.optimize(_request())
                catalog.bump_version()
                await _kill_and_await_respawn(gw, 0)
                pong = await gw.ping(0)
                after = await gw.optimize(_request())
                return pong, after

        pong, after = asyncio.run(scenario())
        assert pong["warmed"] == 0
        assert pong["version"] == [catalog.version]
        assert after.ok and not after.cache_hit

    def test_undecodable_warm_entry_is_counted_not_fatal(self):
        async def scenario():
            async with ClusterGateway(shards=1) as gw:
                await gw.optimize(_request())
                good = next(iter(gw.shards[0].recent.values()))
                bad = dict(good, plan={"kind": "no-such-node"})
                gw.shards[0].writer.write(encode_frame(
                    {"type": "warm", "entries": [bad, {"request": 3}, good]}
                ))
                pong = await gw.ping(0)
                again = await gw.optimize(_request())
                return pong, again

        pong, again = asyncio.run(scenario())
        assert pong["warm_errors"] == 2 and pong["warmed"] == 1
        assert again.ok and again.cache_hit  # the worker kept serving


async def _kill_and_await_respawn(gw: ClusterGateway, index: int) -> None:
    """Kill one worker and wait until the gateway has replaced it."""
    shard = gw.shards[index]
    old_pid = shard.proc.pid
    gw.kill_worker(index)
    for _ in range(500):
        if shard.proc.pid != old_pid:
            return
        await asyncio.sleep(0.01)
    raise AssertionError("worker was not respawned")


class TestDigests:
    def test_fingerprint_digest_is_stable(self):
        fp = ("chain", ("R", 100.0), ("S", 50.0))
        assert fingerprint_digest(fp) == fingerprint_digest(
            ("chain", ("R", 100.0), ("S", 50.0))
        )
        assert fingerprint_digest(fp) != fingerprint_digest(("star",))

    def test_single_shard_routes_without_hashing(self, monkeypatch):
        def no_digest(fingerprint):
            raise AssertionError("a 1-shard gateway must not hash")

        monkeypatch.setattr(gateway_mod, "fingerprint_digest", no_digest)
        gw = ClusterGateway(shards=1)
        assert gw.shard_for(("chain", ("R", 100.0), ("S", 50.0))) == 0
        with pytest.raises(AssertionError):
            ClusterGateway(shards=2).shard_for(("star",))


class TestHealth:
    def test_ping_reports_worker_state(self):
        async def scenario():
            async with ClusterGateway(shards=2) as gw:
                await gw.optimize(_request())
                return await gw.check_health()

        pongs = asyncio.run(scenario())
        assert len(pongs) == 2
        for i, pong in enumerate(pongs):
            assert pong is not None
            assert pong["shard"] == i
            assert pong["queue_depth"] == 0
            assert "cache" in pong and "metrics" in pong

    def test_health_loop_counts_a_failed_sweep_and_keeps_going(self):
        async def scenario():
            async with ClusterGateway(shards=1, health_interval=0.02) as gw:
                real = gw.check_health
                calls = []

                async def flaky(timeout: float = 5.0):
                    calls.append(1)
                    if len(calls) == 1:
                        raise RuntimeError("injected sweep failure")
                    return await real(timeout)

                gw.check_health = flaky
                for _ in range(500):
                    if len(calls) >= 2:
                        break
                    await asyncio.sleep(0.01)
                counter = gw.metrics.registry.counter("cluster.health_errors")
                return len(calls), counter.value

        calls, errors = asyncio.run(scenario())
        assert errors == 1
        assert calls >= 2  # the sweep after the failure still ran
