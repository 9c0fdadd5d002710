"""Self-test of the benchmark at a tiny size (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, ends with a well-formed
result line carrying exactly the metrics BENCHMARK.json names with their
units; that the ungated end-to-end metrics are printed too; that the
inputs for the default seed still hash to the recorded digests; and that
a deliberately corrupted objective trips both correctness checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402


def _run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def check_outputs(spec) -> None:
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = _run(workload, trace)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for m in result["metrics"].values():
                assert isinstance(m["value"], float), m
            env = json.loads(lines[0])
            for field in ("cpu_count", "python", "numpy", "shards", "concurrency",
                          "inputs_digest"):
                assert field in env, (workload, field)
            if trace == 0:
                assert {"percentile", "samples"} <= set(env["tail"]), env
                printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
                for name, unit in {**want, **run.EXTRA_UNITS}.items():
                    assert printed.get(name) == unit, (workload, name, printed)
            print(f"ok  {workload} --trace {trace}")


def check_digests() -> None:
    with open(HERE / "digests.json") as f:
        recorded = json.load(f)
    rounds = wl.replay_rounds(run.DEFAULT_SEED, wl.FULL)
    current = {
        "dp-bushy": wl.inputs_digest(wl.dp_bushy(run.DEFAULT_SEED, wl.FULL)),
        "dp-leftdeep": wl.inputs_digest(wl.dp_leftdeep(run.DEFAULT_SEED, wl.FULL)),
        "replay-zipf": wl.inputs_digest(
            [q for r in rounds for q in r.queries],
            [i for r in rounds for i in r.picks],
        ),
    }
    assert current == recorded, (current, recorded)
    print("ok  default-seed input digests")


def check_corruption_is_caught() -> None:
    import repro

    bushy = wl.dp_bushy(1, wl.TINY)[:4]
    records = run.drive_dp(bushy)[0]
    assert run.check_dp(records) == []
    req, result, *timings = records[1]
    bad = SimpleNamespace(plan=result.plan, objective=result.objective * (1 + 1e-6))
    assert run.check_dp([(req, bad, *timings)]), "corrupted dp objective passed"

    req = wl.replay_rounds(1, wl.TINY)[0].queries[0]
    good = repro.optimize(req.query, req.objective, memory=wl.MEMORY).objective
    served = SimpleNamespace(objective_value=good)
    assert run.check_replay([(req, served, 0.0, None)]) == []
    served = SimpleNamespace(objective_value=good * (1 + 1e-12))
    assert run.check_replay([(req, served, 0.0, None)]), "corrupted replay objective passed"
    print("ok  corrupted objectives are caught")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    check_corruption_is_caught()
    check_digests()
    check_outputs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
