#!/usr/bin/env python3
"""Cold-run benchmark of the solweights verification pipeline.

    python3 perfbench/run.py --workload {tables,sol_l0,sol_l1,all} \\
        --seed N --seconds S --trace {0,1}

Every pass of a workload is a fresh child interpreter (child.py) that calls
the public API or ``solweights.cli.main``; this process only spawns,
times and checks.  Children run one at a time.  A run first makes
SETUP_PROBES set-up-only children, then whole passes until the next pass
would end after ``--seconds`` (always at least one).

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the run's children: ``wall_s`` (spawn to exit), ``setup_s`` (spawn to
the first computation), ``cpu_s`` (user plus system time of the child) and
``peak_rss_mb``.  With ``--trace 1`` one traced pass gives the per-layer
metrics, and a microbenchmark child gives the per-``mul`` and closure rates.

Every output of every child is compared with ``reference/<workload>.json``;
a crash or a nonzero exit counts all of that child's checks as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run records and
span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
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
PACKAGE = ROOT / "src" / "solweights"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PROBES = 6
RUN_LIMIT_S = 170        # every run of a BENCHMARK.json workload ends within 180 s
FULL_RUN_LIMIT_S = 1800  # the complete CLI runs take minutes
BASELINE_KEEP = 30       # untraced wall times kept for the tracing overhead

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

MODULES = ("cli", "cohomology", "fields", "fusion_tables", "groups", "linalg",
           "poset_limits", "robinson", "solmodel", "util", "zoo")


def _per_layer() -> list[tuple[str, str, tuple]]:
    """(metric, unit, source) for every per-layer metric.  Sources:
    ("module", m, field), ("function", f, field), ("counter", key),
    ("micro", key) and ("trace", key)."""
    out = []
    for mod in MODULES:
        out += [(f"{mod}.calls", "count", ("module", mod, "calls")),
                (f"{mod}.s", "s", ("module", mod, "s")),
                (f"{mod}.self_s", "s", ("module", mod, "self_s"))]
    out.append(("bench.self_s", "s", ("module", "bench", "self_s")))

    def fn(name, *fields):
        for f in fields:
            out.append((f"{name}.{f}", "count" if f == "calls" else "s", ("function", name, f)))

    def counter(key):
        out.append((key, "count", ("counter", key)))

    for kind in ("perm", "matrix_l0", "matrix_l1", "triple_l0", "triple_l1"):
        out.append((f"groups.mul.us.{kind}", "us", ("micro", f"groups.mul.us.{kind}")))
    for kind in ("perm", "matrix", "triple"):
        counter(f"groups.mul.calls.{kind}")
    fn("groups.generate", "s")
    counter("groups.generate.elements")
    counter("groups.generate.max_order")
    out.append(("groups.generate.elements_per_s", "1/s",
                ("micro", "groups.generate.elements_per_s")))
    fn("groups.from_elements", "s")
    fn("groups.induced_outer", "s")
    counter("groups.induced_outer.points")
    for name in ("identify", "fingerprint", "conjugacy_classes", "class_index_table",
                 "sylow_subgroup", "subgroup_orbit", "quotient_group", "abelian_invariants",
                 "center", "normalizer"):
        fn(f"groups.{name}", "s")
    for name in ("verify_quaternion_lemma", "build_sol_model", "verify_torus_sequence",
                 "sectional_rank_certificate"):
        fn(f"solmodel.{name}", "s", "self_s")
    fn("robinson.robinson_matrix", "s", "calls")
    fn("robinson.choice_invariance", "s", "calls")
    counter("robinson.robinson_matrix.elements")
    counter("robinson.rank_mismatches")
    fn("linalg.gf2_rank", "calls", "s")
    fn("linalg.rank", "calls", "s")
    fn("cohomology.h2_dim", "s")
    fn("cohomology.odd_h2_kx", "s")
    for path in ("cyclic-sylow-vanishing", "elementary-abelian-invariants", "wreath-nakaoka",
                 "three-term-vanishing", "kunneth"):
        counter(f"cohomology.path.{path}")
    fn("poset_limits.verify_lim_A2", "s")
    fn("poset_limits.cochain_cohomology", "s")
    fn("fields.field_tower", "s")
    fn("fusion_tables.load_tables", "s")
    fn("zoo.named_group", "calls", "s")
    out += [("trace.root_s", "s", ("trace", "root_s")),
            ("trace.self_sum_s", "s", ("trace", "self_sum_s")),
            ("trace.overhead_s", "s", ("trace", "overhead_s")),
            ("trace.spans", "count", ("trace", "spans"))]
    return out


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str, deadline: float,
          trace_file: Path | None = None, extra_env: dict | None = None) -> dict:
    """Run one child to completion and measure it from outside."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = dict(os.environ)
    env.pop("SOLWEIGHTS_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra_env or {})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += "\nkilled: run time limit reached"
    wall = time.monotonic() - t_spawn
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = None
    if proc.returncode == 0 and out.strip():
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except json.JSONDecodeError:
            result = None
    return {
        "mode": mode,
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "setup_s": result["ready"] - t_spawn if result else None,
        "peak_rss_mb": result["maxrss_kb"] / 1024 if result else None,
        "result": result,
        "stderr": err[-4000:],
    }


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


class Score:
    """Checks attempted and failed.  Every reference item of a work child
    is one check, and so is every output item the reference lacks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, n: int, why: str):
        self.attempted += n
        self.failed += n
        self.failures.append(why)

    def probe(self, child: dict):
        """A set-up or microbenchmark child: one check, that it completed."""
        if child["result"] is None:
            self.fail(1, f"{child['mode']} child exit {child['rc']}: {child['stderr'][-300:]}")
        else:
            self.attempted += 1

    def work(self, child: dict, reference: dict):
        n_expected = sum(len(items) for items in reference.values())
        if child["result"] is None:
            self.fail(max(1, n_expected),
                      f"work child exit {child['rc']}: {child['stderr'][-300:]}")
            return
        outputs = child["result"]["outputs"]
        for job in sorted(reference.keys() | outputs.keys()):
            want, got = reference.get(job, {}), outputs.get(job, {})
            for key in sorted(want.keys() | got.keys()):
                self.attempted += 1
                if key not in want or key not in got or want[key] != got[key]:
                    self.failed += 1
                    self.failures.append(f"{job} / {key}: expected {want.get(key, '<absent>')!r}, "
                                         f"got {got.get(key, '<absent>')!r}"[:400])

    def check(self, ok: bool, why: str):
        if ok:
            self.attempted += 1
        else:
            self.fail(1, why)


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))}
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _commit(), "src_lines": lines, "src_lines_total": sum(lines.values())}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _baseline_path(workload: str) -> Path:
    return OUT / f"untraced-wall-{workload}.json"


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_untraced(workload: str, seed: int, seconds: float, deadline: float,
                 reference: dict, score: Score, children: list) -> dict:
    t0 = time.monotonic()
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    for _ in range(SETUP_PROBES):
        child = spawn(workload, seed, "setup", deadline)
        children.append(child)
        score.probe(child)
        if child["setup_s"] is not None:
            samples["setup_s"].append(child["setup_s"])
    last = 0.0
    passes = 0
    while passes == 0 or (time.monotonic() - t0) + last <= seconds:
        if time.monotonic() >= deadline:
            break
        child = spawn(workload, seed, "work", deadline)
        children.append(child)
        score.work(child, reference)
        passes += 1
        last = child["wall_s"]
        for key in END_TO_END:
            if child[key] is not None:
                samples[key].append(child[key])
    OUT.mkdir(exist_ok=True)
    path = _baseline_path(workload)
    kept = json.loads(path.read_text()) if path.is_file() else []
    path.write_text(json.dumps((kept + samples["wall_s"])[-BASELINE_KEEP:]))
    return {key: {"value": _median_or_zero(samples[key]), "unit": unit}
            for key, unit in END_TO_END.items()}


def run_traced(workload: str, seed: int, deadline: float, reference: dict,
               score: Score, children: list) -> tuple[dict, dict]:
    path = _baseline_path(workload)
    baseline = json.loads(path.read_text()) if path.is_file() else []
    if not baseline:
        child = spawn(workload, seed, "work", deadline)
        children.append(child)
        score.work(child, reference)
        baseline = [child["wall_s"]]
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"trace-{workload}-seed{seed}.json"
    traced = spawn(workload, seed, "work", deadline, trace_file=span_file)
    children.append(traced)
    score.work(traced, reference)
    micro = spawn(workload, seed, "micro", deadline)
    children.append(micro)
    score.probe(micro)

    trace = dict((traced["result"] or {}).get("trace") or {})
    root = trace.get("root_s", 0.0)
    score.check(bool(trace) and abs(trace["self_sum_s"] - root) <= 1e-6 * max(1.0, root),
                f"self times {trace.get('self_sum_s')} do not add up to the top-level span {root}")
    trace["overhead_s"] = traced["wall_s"] - statistics.median(baseline)
    sources = {
        "module": trace.get("modules", {}),
        "function": trace.get("functions", {}),
        "counter": trace.get("counters", {}),
        "micro": (micro["result"] or {}).get("metrics", {}),
        "trace": trace,
    }
    metrics = {}
    for name, unit, (kind, key, *field) in PER_LAYER:
        value = sources[kind].get(key, {} if field else 0)
        metrics[name] = {"value": value.get(field[0], 0) if field else value, "unit": unit}
    return metrics, trace


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    limit = FULL_RUN_LIMIT_S if workload in workloads.FULL_WORKLOADS else RUN_LIMIT_S
    deadline = time.monotonic() + limit
    reference = load_reference(workload)
    score = Score()
    if not reference:
        score.fail(1, f"no reference output {REFERENCE / (workload + '.json')}")
    children: list[dict] = []
    trace_data = None
    if trace:
        metrics, trace_data = run_traced(workload, seed, deadline, reference, score, children)
    else:
        metrics = run_untraced(workload, seed, seconds, deadline, reference, score, children)
    inputs = next((c["result"]["inputs"] for c in children if c["result"]), None)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "metadata": metadata(), "inputs": inputs,
        "correct": score.failed == 0, "attempted": score.attempted, "failed": score.failed,
        "failures": score.failures[:50], "metrics": metrics,
        "children": [{k: c[k] for k in ("mode", "rc", "wall_s", "cpu_s", "setup_s",
                                         "peak_rss_mb")} for c in children],
        "functions": (trace_data or {}).get("functions"),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def print_record(record: dict) -> None:
    meta = record["metadata"]
    works = [c for c in record["children"] if c["mode"] == "work"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"({len(works)} pass(es); Python {meta['python']}, nproc {meta['nproc']}, "
          f"commit {meta['commit'][:12]}, src {meta['src_lines_total']} lines)")
    if record["inputs"]:
        print(f"   inputs: {json.dumps(record['inputs'])}")
    for name, m in record["metrics"].items():
        print(f"   {name:<44} {m['value']!r:>24} {m['unit']}")
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"   {'check_fail_frac':<44} {frac!r:>24} ratio "
          f"({record['failed']} of {record['attempted']} checks failed)")
    for why in record["failures"][:10]:
        print(f"   FAILED {why}")
    if record["functions"]:
        print("   per function (traced): calls, s, self_s")
        rows = sorted(record["functions"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows[:40]:
            print(f"     {name:<42} {row['calls']:>9} {row['s']:>10.3f} {row['self_s']:>10.3f}")


def result_line(records: list[dict], combined: bool) -> str:
    if combined:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    else:
        metrics = records[0]["metrics"]
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    choices = workloads.BENCHMARK_WORKLOADS + workloads.FULL_WORKLOADS + ("all",)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=choices, default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no program source at {PACKAGE}", file=sys.stderr)
        return 2
    names = workloads.BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        records.append(record)
    print(result_line(records, combined=args.workload == "all"), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
