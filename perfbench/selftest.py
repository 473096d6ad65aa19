"""Self-test of the output checks: python3 perfbench/selftest.py

From the root of a checkout, runs the smallest operation of every kind in
every workload once, requires its genuine output to pass, then corrupts
that output in one place and requires the same judgement to count it as a
failed operation. Exits 0 when every checker passes both tests.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import child
import workloads


def _json_edit(edit):
    def corrupt(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return corrupt


def _csv_edit(edit):
    def corrupt(text):
        rows = list(csv.reader(io.StringIO(text)))
        edit(rows)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    return corrupt


def _bump(row, col, by):
    row[col] = str(int(row[col]) + by)


def _flip_period(obj):
    last = obj["periods"][-1]
    if last["kind"] == "count":
        last["count"] += 1
    else:
        last["kind"] = "none" if last["kind"] != "none" else "positive-dimensional"


CORRUPT = {
    "census-json": _json_edit(lambda o: o["entries"][-1].update(I=o["entries"][-1]["I"] + 2)),
    "census-csv": _csv_edit(lambda rows: _bump(rows[-1], -2, 2)),
    "growth": _json_edit(lambda o: o["counts"].__setitem__(-1, o["counts"][-1] - 1)),
    "ellipsoid-verify": _json_edit(lambda o: o.update(generators=o["generators"] - 1)),
    "index-large-m": _json_edit(lambda o: o.update(J0=o["J0"] + 2)),
    "stheta-members": _csv_edit(lambda rows: rows.pop()),
    "stheta-semiconvergents": _csv_edit(lambda rows: _bump(rows[-1], 1, 1)),
    "in-s-theta": lambda answer: not answer,
    "admissible-end": lambda answer: not answer,
    "index-report": lambda reports: [dataclasses.replace(reports[0], I=reports[0].I + 2)] + reports[1:],
    "torus-map": _json_edit(_flip_period),
    "zeta-check": _json_edit(lambda o: o.update(passed=not o["passed"])),
    "zeta-solve": _json_edit(lambda o: o.pop()),
}


def corruptor(kind: str):
    return next(f for prefix, f in CORRUPT.items() if kind.startswith(prefix))


def main() -> int:
    echlab = child.import_echlab()
    results_dir = child.BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=results_dir))
    bad = 0
    try:
        for workload, build in workloads.ROUNDS.items():
            ctx = workloads.Context(workload, 0, child.ROOT, workdir, echlab)
            smallest: dict[str, workloads.Op] = {}
            ops = build(ctx, 0)
            ctx.flush()
            for op in ops:
                if op.kind not in smallest or op.size < smallest[op.kind].size:
                    smallest[op.kind] = op
            for kind, op in sorted(smallest.items()):
                _, rc, output, error = child.run_op(echlab, op)
                genuine = child.judge(op, rc, output, error)
                corrupted = child.judge(op, rc, corruptor(kind)(output), "") if output is not None else None
                ok = genuine is None and corrupted is not None
                bad += not ok
                print(f"{'ok ' if ok else 'BAD'} {workload:8s} {kind:24s} genuine: "
                      f"{genuine or 'passed'}; corrupted: {corrupted or 'NOT DETECTED'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test passed" if not bad else f"self-test FAILED for {bad} checker(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
