"""The repository benchmark: three closed-loop workloads over ``repro``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dp-bushy --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload
    python3 perfbench/selftest.py                            # tiny self-test

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``dp-bushy`` -- in-process ``repro.optimize()``, one caller, distinct
  chain queries (n cycling over 8/10/12, size and selectivity uncertainty
  0.8), bushy space, objective alternating ``lec``/``multiparam``.
* ``dp-leftdeep`` -- in-process, one caller, distinct star queries (n
  cycling over 7/8/9), left-deep space, objective alternating
  ``lsc``/``lec``.
* ``replay-zipf`` -- a one-shard ``ClusterGateway`` driven through its
  public ``optimize()`` with two requests outstanding; rounds of 300 Zipf
  picks over 60 fresh distinct 4-6 relation ``lec`` queries.

The in-process workloads time each request in CPU time of the benchmark
process: the optimizer runs sequentially in the caller by default, so on
an idle host this equals wall time, and it leaves out the time a shared
host takes the CPU away.  Their median latency is taken per request class
(n and objective) and then over the six classes, because the classes do
not overlap and a plain median would fall in the gap between two of them.

On the in-process workloads every gated time is also scaled to a
reference host speed with the kernel in ``perfbench/calibrate.py``, run
after each request; the unscaled CPU and wall figures are printed beside
them, ungated.  ``replay-zipf`` is timed in wall time, unscaled.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it runs the same inputs untraced and then
traced, and reports the per-layer metrics (see ``perfbench/layers.json``
for which end-to-end metric each should move).  Every answer is checked
outside the timed region; a wrong answer makes the run exit 1.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import faulthandler
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("dp-bushy", "dp-leftdeep", "replay-zipf")
DEFAULT_SEED = 0
#: Requests per workload cycle: n cycles over 3 values, objective over 2.
DP_CYCLE = 6
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
#: Relative agreement required between the optimizer and the re-costing.
REL_TOL = 1e-9
SETUP_SAMPLES = 5
GATEWAY_STARTS = 21
REQUEST_TIMEOUT_S = 60.0
#: An in-process run measures ``seconds`` of scaled CPU time, but ends after
#: this many times ``seconds`` of wall time on a host too slow or too busy
#: to give it that, so that every run ends in bounded time.
WALL_CAP = 1.3
#: End-to-end metrics the one command prints that BENCHMARK.json cannot
#: gate: they are zero or undefined on some workloads.
EXTRA_UNITS = {"hit_latency_p50_ms": "ms", "miss_latency_p50_ms": "ms",
               "failed_frac": "frac", "wall_throughput_per_s": "1/s",
               "wall_latency_p50_ms": "ms", "cpu_throughput_per_s": "1/s",
               "cpu_latency_p50_ms": "ms", "host_scale": "x"}

sys.path.insert(0, str(SRC))

import calibrate  # noqa: E402  (perfbench/, first on sys.path)


def _load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail(latencies):
    """The value with exactly TAIL_BEYOND samples above it.

    Returns ``(value, percentile, samples, beyond)``; the percentile is
    the share of samples at or below the value.  With too few samples the
    maximum is reported, with fewer than TAIL_BEYOND beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, n - 1 if n <= TAIL_BEYOND else 0)
    return ordered[k], 100.0 * (k + 1) / n, n, n - 1 - k


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _median_ms(seconds):
    return 1000.0 * statistics.median(seconds) if seconds else 0.0


def class_median_ms(latencies, classes=DP_CYCLE):
    """Median over request classes of each class's median latency (ms).

    Request ``i`` is in class ``i % classes``; a run stops at a cycle
    boundary, so every class holds the same number of requests.
    """
    return _median_ms([
        statistics.median(latencies[c::classes])
        for c in range(min(classes, len(latencies)))
    ])


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------

_SETUP_PROGRAM = """
import sys, time
t0 = time.process_time()
sys.path[:0] = sys.argv[1:3]
import numpy as np
import repro
from repro.workloads.queries import chain_query
query = chain_query(3, np.random.default_rng(0))
memory = repro.DiscreteDistribution([400.0, 1500.0, 4000.0], [0.25, 0.5, 0.25])
repro.optimize(query, "lec", memory=memory)
took = time.process_time() - t0
import calibrate
kernel = [calibrate.kernel_seconds() for _ in range(5)][2:]
print(took * calibrate.REF_SECONDS / sorted(kernel)[1])
"""


def setup_in_process() -> float:
    """Median of fresh-interpreter ``import repro`` plus one warm-up optimize.

    Each sample is the CPU time of the fresh interpreter, all its threads
    included, scaled by the reference kernel run in that interpreter right
    after.  The first sample is discarded: it may compile bytecode.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROGRAM, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


def drive_dp(requests, seconds=None, limit=None, tracer=None, calibrated=False):
    """Closed loop, one caller; stops at a cycle boundary after ``seconds``
    of CPU time (or ``WALL_CAP * seconds`` of wall time).

    With ``calibrated`` the reference kernel runs after every request and
    ``seconds`` counts the requests' CPU time scaled by it.  Returns
    ``(records, wall, cpu, kernel)`` with one ``(request, result, latency,
    wall_latency)`` record per answered request and one kernel time per
    record if calibrated; ``latency`` and ``cpu`` are CPU time of this
    process, ``wall_latency`` and ``wall`` wall time.
    """
    import repro
    from workloads import MEMORY

    records = []
    root = tracer.intern("request") if tracer is not None else None
    kernel = []
    if calibrated:
        for _ in range(3):  # warm-up
            calibrate.kernel_seconds()
    measured = 0.0
    start = time.perf_counter()
    cpu_start = time.process_time()
    for i, req in enumerate(requests):
        if limit is not None and i >= limit:
            break
        if not calibrated:
            measured = time.process_time() - cpu_start
        if (seconds is not None and i % DP_CYCLE == 0
                and (measured >= seconds
                     or time.perf_counter() - start >= WALL_CAP * seconds)):
            break
        if tracer is not None:
            tracer.request.set(i)
            idx, token = tracer.open(root)
        t0 = time.perf_counter()
        c0 = time.process_time()
        result = repro.optimize(
            req.query, req.objective, memory=MEMORY, plan_space=req.plan_space
        )
        latency = time.process_time() - c0
        wall_latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(idx, token)
            tracer.request.set(-1)
            tracer.end_request()
            stats = repro.last_context().stats()
            tracer.counters["context.hits"] += sum(s["hits"] for s in stats.values())
            tracer.counters["context.lookups"] += sum(
                s["hits"] + s["misses"] for s in stats.values()
            )
        records.append((req, result, latency, wall_latency))
        if calibrated:
            kernel.append(calibrate.kernel_seconds())
            measured += latency * calibrate.REF_SECONDS / kernel[-1]
    wall = time.perf_counter() - start
    return records, wall, time.process_time() - cpu_start, kernel


def check_dp(records):
    """Re-cost every plan with an independent whole-plan evaluator."""
    from repro import CostModel, plan_expected_cost_multiparam
    from repro.plans.space import PlanSpace
    from workloads import MEMORY

    problems = []
    for req, result, _, _ in records:
        plan = result.plan
        cm = CostModel()
        if req.objective == "lsc":
            ref = cm.plan_cost(plan, req.query, MEMORY.mean())
        elif req.objective == "lec":
            ref = cm.plan_expected_cost(plan, req.query, MEMORY)
        else:
            ref = plan_expected_cost_multiparam(plan, req.query, MEMORY)
        got = result.objective
        if not abs(got - ref) <= REL_TOL * abs(ref):
            problems.append(
                f"{req.objective} objective {got!r} != re-costed {ref!r} "
                f"for plan {plan.signature()}"
            )
        if not PlanSpace.parse(req.plan_space).admits(plan):
            problems.append(f"plan {plan.signature()} outside {req.plan_space}")
    return problems


def dp_layer_metrics(tracer, records):
    k = len(records)
    own = tracer.self_ms()
    c = tracer.counters

    def per(value):
        return value / k

    def ms(name):
        return per(own.get(name, 0.0))

    def frac(num, den):
        return num / den if den else 0.0

    stats = [r.stats for _, r, _, _ in records]
    yielded = c["space.partitions.yielded"]
    pruned = sum(s.partitions_pruned for s in stats)
    return {
        "context.size_distribution.calls": per(c["context.size_distribution.calls"]),
        "context.size_distribution.self_ms": ms("context.size_distribution"),
        "context.hit_rate": frac(c["context.hits"], c["context.lookups"]),
        "space.partitions.yielded": per(yielded),
        "space.partitions.self_ms": ms("space.partitions"),
        "space.join.calls": per(c["space.join.calls"]),
        "space.join.self_ms": ms("space.join"),
        "space.level_candidates.self_ms": ms("space.level_candidates"),
        "topk.offer.calls": per(c["topk.offer.calls"]),
        "topk.offer.kept_frac": frac(c["topk.offer.kept"], c["topk.offer.calls"]),
        "topk.merge.probes": per(c["topk.merge.probes"]),
        "topk.merge.self_ms": ms("topk.merge"),
        "systemr.self_ms": ms("systemr"),
        "systemr.subsets_explored": per(sum(s.subsets_explored for s in stats)),
        "systemr.partitions_pruned": per(pruned),
        "systemr.prune_frac": frac(pruned, yielded),
        "systemr.prefetch_used_frac": frac(
            c["systemr.prefetched_used"], c["systemr.prefetched_keys"]
        ),
        "costers.join_step_cost.calls": per(c["costers.join_step_cost.calls"]),
        "costers.join_step_cost.self_ms": ms("costers.join_step_cost"),
        "costers.prefetch_join_steps.rows": per(c["costers.prefetch_join_steps.rows"]),
        "costers.prefetch_join_steps.self_ms": ms("costers.prefetch_join_steps"),
        "costers.write_cost.self_ms": ms("costers.write_cost"),
        "kernel.batched.rows": per(c["kernel.batched.rows"]),
        "kernel.batched.self_ms": ms("kernel.batched"),
        "kernel.formula_evaluations": per(sum(s.formula_evaluations for s in stats)),
        "facade.self_ms": ms("facade"),
    }


def run_dp(name, requests, args):
    import repro

    if not args.trace:
        records, wall, _, kernel = drive_dp(
            requests, seconds=args.seconds, calibrated=True
        )
        scale = calibrate.factors(kernel)
        cpu = [rec[2] for rec in records]
        latencies = [t * f for t, f in zip(cpu, scale)]
        p50 = class_median_ms(latencies)
        return records, check_dp(records), {
            "throughput_per_s": len(records) / sum(latencies),
            "latency_p50_ms": p50,
            "latency_tail": tail(latencies),
            "hit_latency_p50_ms": None,
            "miss_latency_p50_ms": p50,
            "cpu_throughput_per_s": len(records) / sum(cpu),
            "cpu_latency_p50_ms": class_median_ms(cpu),
            "wall_throughput_per_s": len(records) / wall,
            "wall_latency_p50_ms": class_median_ms([rec[3] for rec in records]),
            "host_scale": statistics.median(scale),
        }

    from spans import Tracer, install_optimizer

    plain, _, plain_cpu, _ = drive_dp(requests, seconds=args.seconds / 2)
    repro.clear_context_cache()
    tracer = Tracer()
    patches = install_optimizer(tracer)
    try:
        records, _, cpu, _ = drive_dp(requests, limit=len(plain), tracer=tracer)
    finally:
        patches.undo()
    layers = dp_layer_metrics(tracer, records)
    layers.update(_trace_summary(tracer, cpu, plain_cpu))
    _write_spans(tracer, name, args)
    return plain + records, check_dp(plain + records), layers


# ----------------------------------------------------------------------
# Cluster replay
# ----------------------------------------------------------------------


async def _start_gateway():
    from repro.cluster.gateway import ClusterGateway

    t0 = time.perf_counter()
    gateway = ClusterGateway(shards=1)
    await gateway.start()
    for shard in range(gateway.n_shards):
        await gateway.ping(shard)
    return gateway, time.perf_counter() - t0


async def drive_replay(gateway, rounds, concurrency, seconds=None, n_rounds=None,
                       tracer=None):
    """Closed loop with ``concurrency`` callers; stops at a round boundary.

    Returns ``(records, wall, rounds_run)``; a record is ``(request,
    ClusterResult or None, latency, failure)``.
    """
    from repro.serving.service import OptimizeRequest
    from workloads import MEMORY

    schedule = []
    for r, round_ in enumerate(rounds):
        for req in round_.requests():
            schedule.append((r, req, OptimizeRequest(
                query=req.query, objective=req.objective, memory=MEMORY,
                plan_space=req.plan_space,
            )))
    records = []
    state = {"next": 0, "round": 0}
    root = tracer.intern("request") if tracer is not None else None
    worker_span = tracer.intern("service.worker") if tracer is not None else None
    start = time.perf_counter()

    def take():
        i = state["next"]
        if i >= len(schedule):
            return None
        r = schedule[i][0]
        if r != state["round"]:
            if n_rounds is not None and r >= n_rounds:
                return None
            if seconds is not None and time.perf_counter() - start >= seconds:
                return None
            state["round"] = r
        state["next"] = i + 1
        return i, schedule[i]

    async def caller():
        while True:
            item = take()
            if item is None:
                return
            i, (_, req, request) = item
            if tracer is not None:
                tracer.request.set(i)
                idx, token = tracer.open(root)
            failure = None
            result = None
            t0 = time.perf_counter()
            try:
                result = await asyncio.wait_for(
                    gateway.optimize(request), REQUEST_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                failure = "timeout"
            except Exception as exc:  # counted, and the run is marked failed
                failure = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(idx, token)
                gw = tracer.gateway_span.pop(i, None)
                if (gw is not None and result is not None and result.ok
                        and not result.coalesced):
                    end = tracer.end[gw]
                    tracer.record(worker_span, end - result.worker_latency, end,
                                  gw, i)
            if failure is None and not result.ok:
                failure = f"{result.status}: {result.error}"
            if result is not None:
                # Nothing reads the plan document; keeping thousands of them
                # would make peak_rss_mb grow with the requests served.
                result = dataclasses.replace(result, plan_doc=None)
            records.append((req, result, latency, failure))

    await asyncio.gather(*(caller() for _ in range(concurrency)))
    return records, time.perf_counter() - start, state["round"] + 1


def check_replay(records):
    """Every ok answer must equal in-process ``optimize()`` on the request."""
    import repro
    from workloads import MEMORY

    expected = {}
    problems = []
    for req, result, _, failure in records:
        if failure is not None:
            continue
        key = id(req.query)
        if key not in expected:
            expected[key] = repro.optimize(
                req.query, req.objective, memory=MEMORY, plan_space=req.plan_space
            ).objective
        if result.objective_value != expected[key]:
            problems.append(
                f"served objective {result.objective_value!r} != in-process "
                f"{expected[key]!r}"
            )
    return problems


def _replay_result_metrics(records, snapshot):
    ok = [(res, lat) for _, res, lat, f in records if f is None]
    misses = [res for res, _ in ok if not res.cache_hit and not res.coalesced]
    direct = [lat - res.worker_latency for res, lat in ok if not res.coalesced]
    n = len(records)
    tiers = snapshot["cache_tiers"]
    return {
        "service.worker_ms": _median_ms([r.worker_latency for r in misses]),
        "service.degraded_frac": sum(r.rung != "full" for r, _ in ok) / n,
        "gateway.overhead_ms": _median_ms(direct),
        "gateway.coalesced_frac": sum(r.coalesced for r, _ in ok) / n,
        "gateway.retries": float(sum(r.retries for r, _ in ok)),
        "gateway.shed": float(sum(1 for _, r, _, _ in records
                                  if r is not None and r.status == "shed")),
        "cache.hot_hit_rate": tiers["hot_hit_rate"],
        "cache.shared_hit_rate": tiers["shared_hit_rate"],
    }


async def _gateway_setup():
    samples = []
    for _ in range(GATEWAY_STARTS):
        gateway, took = await _start_gateway()
        samples.append(took)
        await gateway.close()
    return statistics.median(samples)


async def _replay_untraced(rounds, concurrency, seconds):
    gateway, _ = await _start_gateway()
    try:
        records, wall, _ = await drive_replay(gateway, rounds, concurrency, seconds)
    finally:
        await gateway.close()
    return records, wall


async def _replay_traced(rounds, concurrency, seconds, tracer):
    from spans import install_gateway

    gateway, _ = await _start_gateway()
    try:
        plain, plain_wall, n_rounds = await drive_replay(
            gateway, rounds, concurrency, seconds
        )
        snapshot = await gateway.snapshot()
    finally:
        await gateway.close()
    patches = install_gateway(tracer)
    try:
        gateway, _ = await _start_gateway()
        try:
            records, wall, _ = await drive_replay(
                gateway, rounds, concurrency, n_rounds=n_rounds, tracer=tracer
            )
        finally:
            await gateway.close()
    finally:
        patches.undo()
    return plain, plain_wall, snapshot, records, wall


def run_replay(name, rounds, args):
    concurrency = min(2, os.cpu_count() or 1)
    if not args.trace:
        records, wall = asyncio.run(
            _replay_untraced(rounds, concurrency, args.seconds)
        )
        ok = [(res, lat) for _, res, lat, f in records if f is None]
        latencies = [lat for _, lat in ok]
        # Requests here span three processes and wait on each other, so
        # they are timed in wall time, unscaled: the reference kernel does
        # not predict how fast the processes hand requests on.
        return records, check_replay(records), {
            "throughput_per_s": len(ok) / wall,
            "latency_p50_ms": _median_ms(latencies),
            "latency_tail": tail(latencies),
            "hit_latency_p50_ms": _median_ms([l for r, l in ok if r.cache_hit]),
            "miss_latency_p50_ms": _median_ms([l for r, l in ok if not r.cache_hit]),
            "cpu_throughput_per_s": None,
            "cpu_latency_p50_ms": None,
            "wall_throughput_per_s": len(ok) / wall,
            "wall_latency_p50_ms": _median_ms(latencies),
            "host_scale": None,
        }

    from spans import Tracer

    tracer = Tracer()
    plain, plain_wall, snapshot, records, wall = asyncio.run(
        _replay_traced(rounds, concurrency, args.seconds / 2, tracer)
    )
    layers = _replay_result_metrics(plain, snapshot)
    own = tracer.self_ms()
    k = len(records)
    layers.update({
        "protocol.encode.self_ms": own.get("protocol.encode", 0.0) / k,
        "protocol.decode.self_ms": own.get("protocol.decode", 0.0) / k,
        "protocol.bytes_per_request": tracer.counters["protocol.bytes"] / k,
        "serialize.query_to_dict.self_ms": own.get("serialize.query_to_dict", 0.0) / k,
    })
    layers.update(_trace_summary(tracer, wall, plain_wall))
    _write_spans(tracer, name, args)
    return plain + records, check_replay(plain + records), layers


# ----------------------------------------------------------------------
# Trace summary and output
# ----------------------------------------------------------------------


def _trace_summary(tracer, wall, plain_wall):
    """Tracing overhead, and the share of request time no layer claims.

    ``wall`` and ``plain_wall`` are the traced and untraced run times, in
    whichever clock the workload times requests with.
    """
    own = tracer.self_ms()
    own.pop("request", None)
    root = tracer.total_ms("request")
    return {
        "trace.overhead_frac": wall / plain_wall - 1.0,
        "trace.unattributed_frac": 1.0 - sum(own.values()) / root if root else 0.0,
    }


def _write_spans(tracer, name, args):
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{name}-seed{args.seed}-spans.npz")


def _env(args, extra):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **extra,
    }


def run_one(args) -> int:
    import workloads as wl

    spec = _load_spec()
    size = wl.TINY if args.tiny else wl.FULL
    # Set-up is measured first, while this process is still small.
    setup = None
    if not args.trace:
        if args.workload == "replay-zipf":
            setup = asyncio.run(_gateway_setup())
        else:
            setup = setup_in_process()
    if args.workload == "replay-zipf":
        rounds = wl.replay_rounds(args.seed, size)
        digest = wl.inputs_digest(
            [q for r in rounds for q in r.queries],
            [i for r in rounds for i in r.picks],
        )
        extra = {"shards": 1, "concurrency": min(2, os.cpu_count() or 1),
                 "requests_per_round": size.replay_requests,
                 "distinct_per_round": size.replay_distinct}
    else:
        make = wl.dp_bushy if args.workload == "dp-bushy" else wl.dp_leftdeep
        requests = make(args.seed, size)
        digest = wl.inputs_digest(requests)
        extra = {"shards": 0, "concurrency": 1}
    extra["inputs_digest"] = digest
    if args.seed == DEFAULT_SEED and not args.tiny:
        with open(HERE / "digests.json") as f:
            recorded = json.load(f)[args.workload]
        if digest != recorded:
            print(f"inputs digest {digest} for seed {DEFAULT_SEED} drifted from "
                  f"the recorded {recorded}", file=sys.stderr)
            return 3

    if args.workload == "replay-zipf":
        records, problems, values = run_replay(args.workload, rounds, args)
        failed = sum(1 for rec in records if rec[3] is not None)
    else:
        records, problems, values = run_dp(args.workload, requests, args)
        failed = 0
    attempted = len(records)

    if args.trace:
        metrics_spec = spec["per_layer"]
    else:
        metrics_spec = spec["end_to_end"]
        values["setup_s"] = setup
        value, pct, samples, beyond = values.pop("latency_tail")
        values["latency_tail_ms"] = 1000.0 * value
        values["peak_rss_mb"] = peak_rss_mb()
        extra["tail"] = {"percentile": pct, "samples": samples, "beyond": beyond}
        values["failed_frac"] = failed / attempted
    units = dict(EXTRA_UNITS, **{m["name"]: m["unit"] for m in metrics_spec})
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in metrics_spec
    }
    print(json.dumps(_env(args, extra)))
    for key in sorted(values):
        v = values[key]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"{key:40s} {shown:>14s} {units[key]}")
    for p in problems[:20]:
        print(f"PROGRAM DEFECT: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            code = code or proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # A hung run still ends, with a traceback, in under three minutes.
    faulthandler.dump_traceback_later(170, exit=True)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
