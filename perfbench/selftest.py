#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, with real child processes:

1. a child whose outputs match the stored reference fails no check, and a
   whole run of it through run_workload is correct;
2. a corrupted reference makes exactly the corrupted check fail;
3. a child that exits 3 (enumeration cap exceeded) counts every one of its
   checks as failed, none dropped, and makes the result incorrect;
4. two seeds of ``tables`` give different inputs but identical outputs,
   both equal to the reference: the seed changes only the inputs.

Prints one line per check and exits 0 when all hold.  Takes about a minute,
most of it the two ``tables`` passes.
"""

from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def scored(child: dict, reference: dict) -> run.Score:
    score = run.Score()
    score.work(child, reference)
    return score


def main() -> int:
    deadline = time.monotonic() + 900
    reference = run.load_reference("selftest_cap")
    n = sum(len(items) for items in reference.values())
    expect(n > 0, f"selftest_cap reference has {n} checks")

    good = run.spawn("selftest_cap", 0, "work", deadline)
    score = scored(good, reference)
    expect(good["rc"] == 0 and score.attempted == n and score.failed == 0,
           f"matching outputs: {score.failed} of {score.attempted} checks failed")
    record = run.run_workload("selftest_cap", 0, 1, trace=False)
    expect(record["correct"] and record["failed"] == 0 and record["attempted"] > n,
           f"whole run: correct={record['correct']}, "
           f"{record['failed']} of {record['attempted']} checks failed")

    corrupted = copy.deepcopy(reference)
    job = sorted(corrupted)[0]
    key = sorted(corrupted[job])[0]
    corrupted[job][key] = "corrupted"
    score = scored(good, corrupted)
    expect(score.attempted == n and score.failed == 1,
           f"corrupted reference item {job!r} / {key!r}: "
           f"{score.failed} of {score.attempted} checks failed")

    capped = run.spawn("selftest_cap", 0, "work", deadline, extra_env={"SOLWEIGHTS_CAP": "10"})
    score = scored(capped, reference)
    expect(capped["rc"] == 3, f"capped child exit code {capped['rc']}")
    expect(score.attempted == n and score.failed == n,
           f"exit-3 child: {score.failed} of {score.attempted} checks failed")
    line = run.result_line([{"correct": score.failed == 0, "attempted": score.attempted,
                             "failed": score.failed, "metrics": {}}], combined=False)
    expect('"correct": false' in line and f'"failed": {n}' in line, f"result line {line}")

    tables = run.load_reference("tables")
    a = run.spawn("tables", 1, "work", deadline)
    b = run.spawn("tables", 2, "work", deadline)
    expect(a["rc"] == 0 and b["rc"] == 0, f"tables children exit {a['rc']}, {b['rc']}")
    if a["result"] and b["result"]:
        order_a = a["result"]["inputs"]["group_order"]
        order_b = b["result"]["inputs"]["group_order"]
        expect(order_a != order_b, f"seed 1 order {order_a} differs from seed 2 order {order_b}")
        expect(a["result"]["outputs"] == b["result"]["outputs"],
               "seeds 1 and 2 give identical outputs")
        for seed, child in ((1, a), (2, b)):
            score = scored(child, tables)
            expect(score.failed == 0,
                   f"seed {seed} matches the reference: "
                   f"{score.failed} of {score.attempted} checks failed")

    print("selftest", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
