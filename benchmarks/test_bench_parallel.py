"""Batched-serving benchmark: one ``optimize_batch`` frame per shard.

Coalescing same-shard requests into one ``optimize_batch`` frame keeps
cluster replay throughput at least on par with the request-at-a-time
wire path.  The snapshot records ``cpu_count`` so the numbers stay
interpretable on any host.

Results land in ``BENCH_parallel.json`` via ``record_snapshot``.  The
committed copy is the regression baseline: the gate compares the fresh
dimensionless batched-vs-plain throughput ratio against the committed
one and fails on a >25% drop — wall-clock never gates, so a slower CI
machine cannot trip it.  CI's ``bench-parallel`` job runs this file
with ``--quick`` and uploads the fresh snapshot.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster.replay import run_replay

from conftest import record_snapshot

#: gate slack: fail when a fresh ratio drops below committed / this.
_GATE_SLACK = 1.25

_BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_parallel.json"
)

#: fresh measurements accumulated across this module's tests, then
#: snapshotted (and gated) at the end.
_RESULTS: dict = {"cluster": {}}


class TestClusterBatchedServing:
    def test_batched_replay_throughput(self, quick_mode):
        requests = 24 if quick_mode else 48
        common = dict(
            shards=2,
            n_distinct=requests,
            n_requests=requests,
            seed=7,
            concurrency=8,
            min_relations=4,
            max_relations=5,
            schedule="unique",  # every request a fresh optimization
        )
        plain = run_replay(**common)
        batched = run_replay(**common, batch_size=4)
        for report in (plain, batched):
            assert report["lost"] == 0 and report["errors"] == 0
            assert report["answered"] == report["accepted"]

        ratio = (
            batched["optimize_throughput_qps"]
            / plain["optimize_throughput_qps"]
            if plain["optimize_throughput_qps"] > 0 else 0.0
        )
        _RESULTS["cluster"] = {
            "requests": requests,
            "shards": 2,
            "batch_size": 4,
            "plain_qps": round(plain["optimize_throughput_qps"], 2),
            "batched_qps": round(batched["optimize_throughput_qps"], 2),
            "batched_over_plain": ratio,
        }
        print(f"\n[bench-parallel] cluster replay: plain "
              f"{plain['optimize_throughput_qps']:.1f}/s batched "
              f"{batched['optimize_throughput_qps']:.1f}/s "
              f"(ratio {ratio:.2f}x)")
        # Batching is a transport optimization: it must not cost
        # throughput.  Generous floor absorbs runner noise.
        assert ratio >= 0.5, (
            f"batched replay throughput collapsed to {ratio:.2f}x plain"
        )


class TestRegressionGate:
    def test_snapshot_and_gate(self, quick_mode):
        """Record the snapshot; gate fresh ratios vs the committed ones.

        Runs last in the module (pytest executes in definition order),
        after the timing test populated ``_RESULTS``.  Workload sizes
        differ between ``--quick`` and full mode, so the snapshot keeps
        one section per mode and the gate only compares like with like.
        Only the dimensionless ratio gates.
        """
        assert _RESULTS["cluster"], "timing tests must run before the gate"
        mode = "quick" if quick_mode else "full"
        committed = {}
        if os.path.exists(_BASELINE_PATH):
            with open(_BASELINE_PATH, encoding="utf-8") as fh:
                committed = json.load(fh)

        payload = {
            "gate_slack": _GATE_SLACK,
            "modes": dict(committed.get("modes", {})),
        }
        payload["modes"][mode] = dict(_RESULTS)
        record_snapshot("parallel", payload)

        baseline = committed.get("modes", {}).get(mode)
        if baseline is None:
            pytest.skip(f"no committed {mode!r}-mode baseline yet")
        base_ratio = baseline.get("cluster", {}).get("batched_over_plain")
        if base_ratio:
            floor = base_ratio / _GATE_SLACK
            fresh = _RESULTS["cluster"]["batched_over_plain"]
            assert fresh >= floor, (
                f"batched replay regression: fresh ratio {fresh:.2f}x < "
                f"floor {floor:.2f}x (committed {base_ratio:.2f}x)"
            )
