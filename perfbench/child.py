"""One benchmark child: a fresh interpreter that runs one workload pass.

    python3 perfbench/child.py --workload W --seed N --mode {setup,work,micro}
                               [--trace-file PATH]

Set-up is the interpreter start, the imports, ``load_tables`` and
``field_tower`` for the workload's levels.  The child reads the clock when
set-up ends, which is when the first computation starts; ``time.monotonic``
is CLOCK_MONOTONIC, shared by every process on the machine, so the parent
subtracts its own spawn time from it.

The last line of standard output is one JSON object with ``ready``,
``maxrss_kb``, ``inputs``, ``outputs`` (mode work), ``metrics`` (mode micro)
and, with ``--trace-file``, the span aggregates under ``trace``.  A failing
job makes the child exit nonzero without that line: with the code that
``cli.main`` returned, or 1 on an exception.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def _import_program():
    import solweights

    if not Path(solweights.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"solweights imported from {solweights.__file__}, not from {SRC}")
    for info in pkgutil.iter_modules(solweights.__path__):
        if info.name != "__main__":
            importlib.import_module(f"solweights.{info.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "work", "micro"], required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    import workloads

    _import_program()
    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    from solweights import fields, fusion_tables

    result: dict = {}

    def body():
        fusion_tables.load_tables()
        for level in workloads.SETUP_LEVELS[args.workload]:
            fields.field_tower(level)
        result["ready"] = time.monotonic()
        if args.mode == "work":
            outputs = {}
            for name, job in workloads.JOBS[args.workload](args.seed):
                outputs[name] = workloads.normalize(job())
            result["outputs"] = outputs
        elif args.mode == "micro":
            import micro

            result["metrics"] = micro.run(args.seed)

    try:
        if tracer is None:
            body()
        else:
            tracer.root(body)
    except workloads.CliExit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    result["inputs"] = workloads.inputs(args.workload, args.seed)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(args.trace_file)
        result["trace"] = tracer.aggregate()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
