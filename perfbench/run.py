"""echlab benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload census|floors|queries|torus \
        --seed N --seconds S --trace 0|1

With --trace 0 the workload runs in a fresh single-threaded Python process
(perfbench/child.py) for S seconds of timed operations, after several
set-up-only processes; the end-to-end metrics of BENCHMARK.json come from
these. With --trace 1 one round runs untraced and one traced, each in its
own process, and the per-layer metrics come from the traced call tree.
Prints each metric with its unit, then one JSON line; writes the full
result (and the call tree) under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 6  # extra processes that only set up; setup_s is the median
CHILD_TIMEOUT_S = 170


def child(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    # half the set-up probes run before the measuring process and half after
    # it, so a slow spell of the machine touches few of them
    probes = [child(workload, seed, "--mode", "setup")["setup_s"] for _ in range(SETUP_PROBES // 2)]
    run = child(workload, seed, "--mode", "measure", "--seconds", str(seconds))
    probes += [child(workload, seed, "--mode", "setup")["setup_s"] for _ in range(SETUP_PROBES // 2)]
    latencies = run["latencies"]
    metrics = {
        "setup_s": statistics.median(probes + [run["setup_s"]]),
        "wall_s": statistics.median(run["round_walls"]),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    run["setup_probes"] = probes
    return metrics, run


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    plain = child(workload, seed, "--mode", "measure", "--rounds", "1")
    traced = child(workload, seed, "--mode", "measure", "--rounds", "1", "--trace")
    metrics = dict(traced.pop("per_layer"))
    metrics["trace.wall_s"] = sum(traced["raw_latencies"])
    metrics["trace.overhead_s"] = sum(traced["raw_latencies"]) - sum(plain["raw_latencies"])
    (BENCH / "results" / f"tree-{workload}-seed{seed}.json").write_text(
        json.dumps(traced.pop("tree"), indent=1))
    for key in ("attempted", "failed", "wrong"):
        traced[key] += plain[key]
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "echlab" / "__init__.py").is_file():
        print("error: run from the root of an echlab checkout (no src/echlab here)", file=sys.stderr)
        return 2
    (BENCH / "results").mkdir(exist_ok=True)
    try:
        if args.trace:
            values, run = per_layer(args.workload, args.seed)
        else:
            values, run = end_to_end(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:44s} {values[m['name']]:14.6g} {m['unit']}")
    result = {
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, run=run)
    (BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
