"""One workload in one fresh single-threaded process.

    python3 perfbench/child.py --workload W --seed N --mode setup|measure
        [--seconds S] [--rounds R] [--trace]

Prints one JSON line. setup: the set-up time alone. measure: runs whole
rounds (at least two) while the timed operations stay within about S seconds
(or exactly R rounds), one operation at a time, checking every output after
its timing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import refmath
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent


def import_echlab():
    """Import echlab from the checkout's src tree, and only from there."""
    src = ROOT / "src"
    if not (src / "echlab" / "__init__.py").is_file():
        raise SystemExit(f"no echlab source under {src}")
    sys.path.insert(0, str(src))
    import echlab
    import echlab.cli  # noqa: F401  (submodules the operations call)

    if Path(echlab.__file__).resolve().parent != (src / "echlab").resolve():
        raise SystemExit(f"echlab imported from {echlab.__file__}, not from {src}")
    return echlab


def run_op(echlab, op: workloads.Op):
    """Time one operation; returns (seconds, rc, output, error)."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = echlab.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects its input this way
            return perf_counter() - start, exc.code, None, err.getvalue()
        except Exception:
            return perf_counter() - start, None, None, traceback.format_exc()
        return perf_counter() - start, rc, out.getvalue(), err.getvalue()
    start = perf_counter()
    try:
        value = op.call()
    except Exception:
        return perf_counter() - start, None, None, traceback.format_exc()
    return perf_counter() - start, None, value, ""


def judge(op: workloads.Op, rc, output, error: str) -> str | None:
    """None when the operation succeeded with a correct output; otherwise
    why it counts as failed."""
    if output is None:
        return f"FAILED (exit {rc}): {error}"
    try:
        op.check(rc, output)
    except (checks.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"WRONG: {exc!r}"
    return None


# This machine's speed for the same instructions drifts by up to a factor
# of two over seconds to minutes (other tenants share its cores). Every
# timing is scaled to a reference speed: the fixed piece of pure-Python work
# below (big-integer floors, Fractions, dicts, indented JSON, a sort; the
# same mix as echlab's) is timed just before and just after each operation,
# and the operation's time is multiplied by REFERENCE_S over the mean of the
# two. The raw times are kept beside the scaled ones in the result file.
REFERENCE_S = 0.005


def reference_seconds() -> float:
    start = perf_counter()
    x = (3, 1, 7, 1009)
    total = Fraction(0)
    rows = []
    for k in range(1, 400):
        c = refmath.floor_mul(x, k)
        total += Fraction(c, k)
        rows.append({"m": [k, c], "I": 2 * c})
    json.dumps(rows, indent=2)
    rows.sort(key=lambda e: (e["I"], e["m"]))
    return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=0, help="fixed round count (0: timed)")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    (BENCH / "results").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH / "results"))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    before = reference_seconds()
    start = perf_counter()
    echlab = import_echlab()
    tracer = None
    if args.trace:
        import calltree

        tracer = calltree.Tracer()
        tracer.install(echlab)
    ctx = workloads.Context(args.workload, args.seed, ROOT, workdir, echlab)
    build = workloads.ROUNDS[args.workload]
    ops = build(ctx, 0)
    setup_s = perf_counter() - start
    setup_s *= 2 * REFERENCE_S / (before + reference_seconds())
    ctx.flush()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies: list[float] = []
    round_walls: list[float] = []
    attempted = failed = wrong = output_bytes = 0
    raw: list[float] = []
    rnd = 0
    while True:
        wall = 0.0
        gc.collect()
        for op in ops:
            before = reference_seconds()
            seconds, rc, output, error = run_op(echlab, op)
            scale = 2 * REFERENCE_S / (before + reference_seconds())
            attempted += 1
            wall += seconds * scale
            latencies.append(seconds * scale)
            raw.append(seconds)
            if isinstance(output, str):
                output_bytes += len(output.encode())
            problem = judge(op, rc, output, error)
            if problem:
                failed += 1
                wrong += output is not None
                print(f"{problem} {op.kind} {op.argv or op.size}", file=sys.stderr)
        round_walls.append(wall)
        if rnd == 0:
            # set-up plus the first round is the same work in every run, so
            # the peak resident set is taken here
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rnd += 1
        if args.rounds and rnd >= args.rounds:
            break
        # timed runs make at least two rounds, then stop before a round that
        # would overshoot by more than half a round
        if not args.rounds and rnd >= 2 and sum(round_walls) + wall / 2 >= args.seconds:
            break
        ops = build(ctx, rnd)
        ctx.flush()

    result = {
        "setup_s": setup_s,
        "round_walls": round_walls,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "raw_latencies": raw,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        import calltree

        result["per_layer"] = calltree.per_layer(tracer, output_bytes)
        result["tree"] = tracer.tree()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
