"""Cluster replay driver: ``python -m repro.cluster``.

Replays a seeded Zipf workload through the sharded serving tier and
prints throughput, latency percentiles, cache-tier hit rates and the
degradation-rung distribution — the scaling numbers the ROADMAP's
"millions of users" milestone asks for.

Examples::

    python -m repro.cluster --quick --shards 2     # CI smoke
    python -m repro.cluster --requests 1000 --shards 4
    python -m repro.cluster --requests 500 --shards 4 --kill-worker
"""

from __future__ import annotations

import argparse
import sys

from .admission import AdmissionController
from .replay import run_replay


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Replay a Zipf workload through the sharded cluster tier.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload for smoke testing")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--distinct", type=int, default=16,
                        help="number of distinct queries (default 16)")
    parser.add_argument("--requests", type=int, default=64,
                        help="total requests to replay (default 64)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="max in-flight client requests (default 8)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload RNG seed (default 0)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request budget in milliseconds")
    parser.add_argument("--relations", type=int, nargs=2, default=(4, 6),
                        metavar=("MIN", "MAX"),
                        help="per-query relation count range (default 4 6)")
    parser.add_argument("--kill-worker", action="store_true",
                        help="kill worker 0 mid-replay (crash drill)")
    parser.add_argument("--soft-limit", type=int, default=8,
                        help="admission soft queue limit per shard")
    parser.add_argument("--hard-limit", type=int, default=64,
                        help="admission hard queue limit per shard")
    parser.add_argument("--batch-size", type=int, default=1,
                        help="send requests in optimize_batch frames of "
                             "this size (default 1 = legacy frames)")
    args = parser.parse_args(argv)

    if args.quick:
        args.distinct, args.requests = 4, 12
        args.relations = (3, 4)
        args.concurrency = min(args.concurrency, 4)

    deadline = None if args.deadline is None else args.deadline / 1000.0
    report = run_replay(
        shards=args.shards,
        n_distinct=args.distinct,
        n_requests=args.requests,
        seed=args.seed,
        concurrency=args.concurrency,
        deadline=deadline,
        min_relations=args.relations[0],
        max_relations=args.relations[1],
        kill_worker_at=args.requests // 2 if args.kill_worker else None,
        admission=AdmissionController(
            soft_limit=args.soft_limit, hard_limit=args.hard_limit
        ),
        batch_size=args.batch_size,
    )

    cfg = report["config"]
    print(f"cluster replay: {args.distinct} distinct queries, "
          f"{cfg['requests']} requests, {cfg['shards']} shards, "
          f"seed {args.seed}, {cfg['cpu_count']} cpus")
    print(f"throughput: {report['throughput_qps']:.1f} q/s "
          f"({report['optimize_throughput_qps']:.1f} optimizations/s) "
          f"over {report['wall_seconds']:.3f}s")
    print(f"accounting: accepted {report['accepted']}, "
          f"answered {report['answered']}, errors {report['errors']}, "
          f"shed {report['shed']}, lost {report['lost']}, "
          f"retried {report['retried']}, coalesced {report['coalesced']}")
    lat = report["latency"]
    if lat.get("count"):
        print(f"latency: p50 {lat['p50'] * 1e3:.1f} ms, "
              f"p99 {lat['p99'] * 1e3:.1f} ms over {lat['count']} requests")
    tiers = report["cache_tiers"]
    print(f"cache tiers: hot {tiers['hot_hit_rate']:.0%}, "
          f"shared {tiers['shared_hit_rate']:.0%}, "
          f"any {tiers['any_hit_rate']:.0%} "
          f"({tiers['shared_entries']} shared entries)")
    print(f"rungs: {report['rungs']}")
    if report["restarts"]:
        print(f"worker restarts: {report['restarts']}")
    if report["admission"]:
        adm = report["admission"]
        print(f"admission: admit {adm.get('admit', 0):.0f}, "
              f"degrade {adm.get('degrade', 0):.0f}, "
              f"shed {adm.get('shed', 0):.0f}")
    return 0 if report["lost"] == 0 and report["errors"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
