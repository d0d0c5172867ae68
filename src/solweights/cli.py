"""Batch command-line interface.

Every verification and computation is a subcommand emitting a run report;
the process exits 0 exactly when all checks in the report pass, 1 on a
failed check, 2 on usage errors, and 3 when an enumeration cap is exceeded.
Each ``cmd_*`` returns (command, inputs, results, checks); ``main`` times
the call and emits the report, whose only varying field is ``timing``.
``hasse`` writes plain text instead and returns None.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import groups
from .errors import CapExceeded, SolweightsError, UnknownSpec
from .util import check

ENV_CAP = "SOLWEIGHTS_CAP"


def _emit(report: dict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(f"== {report['command']} ==")
        for key, value in report["results"].items():
            print(f"{key}: {value}")
        for check in report["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            print(f"[{status}] {check['check']}: expected {check['expected']}, "
                  f"got {check['computed']}")
        print(f"elapsed: {report['timing']['elapsed_s']}s")
    return 0 if all(c["pass"] for c in report["checks"]) else 1


DEF0_TABLE = [
    ("S3", 1), ("x(S3,S3)", 1), ("x(S3,x(S3,S3))", 1), ("wr(S3,C2)", 0),
    ("dih(C3xC3)", 4), ("m324", 1), ("GL(3,2)", 1), ("GL(4,2)", 1),
    ("S6", 1), ("wr(S3,S3)", 1), ("S5", 0), ("A7", 0), ("S7", 0),
]


def cmd_defect_zero(args):
    from .robinson import robinson_matrix
    from .zoo import named_group

    results = robinson_matrix(named_group(args.group)).to_json(name=args.group)
    return "defect-zero", {"group": args.group}, results, []


def cmd_table_def0(args):
    from .robinson import defect_zero_block_count
    from .zoo import named_group

    checks = [check(f"z({spec})", expected, defect_zero_block_count(named_group(spec))[0])
              for spec, expected in DEF0_TABLE]
    matched = sum(1 for c in checks if c["pass"])
    return "table-def0", {}, {"matched": f"{matched}/{len(checks)}"}, checks


def cmd_weights(args):
    from .fusion_tables import weight_count

    w = weight_count(args.system, args.l)
    checks = [check(f"w({args.system}, {args.l}) = 12", 12, w["total"])]
    if args.system == "F" and args.l == 0:
        expected = (1, 1, 4, 1, 1, 0, 1, 1, 1, 1)
        checks.append(check("per-row z-vector", list(expected),
                            [r["z"] for r in w["rows"]]))
    return ("weights", {"system": args.system, "l": args.l},
            {"total": w["total"], "rows": w["rows"]}, checks)


def cmd_verify(args):
    if args.target == "quaternion":
        from .solmodel import verify_quaternion_lemma

        if not 1 <= args.l <= 3:
            raise SolweightsError("verify quaternion requires --l in 1..3")
        checks = verify_quaternion_lemma(args.l)["checks"]
        return "verify-quaternion", {"l": args.l}, {"checks_run": len(checks)}, checks
    if args.target == "sol":
        if args.l not in (0, 1):
            raise SolweightsError("verify sol requires --l in {0, 1}")
        from .solmodel import (
            sectional_rank_certificate,
            spotcheck_l1,
            verify_k_radicals_l0,
            verify_torus_sequence,
        )

        torus = verify_torus_sequence(args.l)
        checks = torus["checks"] + sectional_rank_certificate(args.l)["checks"]
        checks += (verify_k_radicals_l0() if args.l == 0 else spotcheck_l1())["checks"]
        return ("verify-sol", {"l": args.l},
                {"checks_run": len(checks), "skipped": torus["skipped"]}, checks)
    raise SolweightsError(f"unknown verify target {args.target!r}")


def cmd_cohomology(args):
    from .cohomology import h2_dim, odd_h2_kx
    from .zoo import named_group

    G = named_group(args.group)
    if args.prime is not None:
        results = h2_dim(G, args.prime, name=args.group).to_json()
    else:
        results = odd_h2_kx(G, name=args.group).to_json()
    return "cohomology", {"group": args.group, "prime": args.prime}, results, []


def cmd_lim(args):
    from .poset_limits import verify_lim_A2

    rep = verify_lim_A2(args.l)
    checks = [check("lim = 0", 0, rep["lim_dim"]),
              check("criterion", "a" if args.l >= 1 else "b", rep["criterion"]),
              check("verify_lim_A2 verdict", True, rep["pass"])]
    return "lim", {"l": args.l}, rep, checks


def cmd_hasse(args) -> None:
    from .fusion_tables import hasse_export

    sys.stdout.write(hasse_export(args.l, args.format))


def _level(text: str) -> int:
    """The --l argument: a nonnegative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """The --cap argument and SOLWEIGHTS_CAP: a positive integer."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solweights",
        description="Exact verification suite for the 2-local weight computations",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON run report")
    parser.add_argument("--cap", type=_positive, default=None,
                        help="override the enumeration cap (a positive integer)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("defect-zero", help="defect-zero block data for one group")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_defect_zero)

    p = sub.add_parser("table-def0", help="reproduce the 13-row block count table")
    p.set_defaults(func=cmd_table_def0)

    p = sub.add_parser("weights", help="weight count for a local system")
    p.add_argument("--system", choices=["H", "F"], required=True)
    p.add_argument("--l", type=_level, required=True)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("verify", help="structure verifications")
    p.add_argument("target", choices=["quaternion", "sol"])
    p.add_argument("--l", type=_level, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cohomology", help="degree-two cohomology certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--prime", type=int, default=None)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("lim", help="vanishing of the twist-functor limit")
    p.add_argument("--l", type=_level, required=True)
    p.set_defaults(func=cmd_lim)

    p = sub.add_parser("hasse", help="export a centric radical class diagram")
    p.add_argument("--l", type=_level, required=True)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=cmd_hasse)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = args.cap
    if cap is None and os.environ.get(ENV_CAP):
        try:
            cap = _positive(os.environ[ENV_CAP])
        except argparse.ArgumentTypeError as exc:
            print(f"bad {ENV_CAP} value: {exc}", file=sys.stderr)
            return 2
    saved_cap = groups.DEFAULT_CAP
    if cap is not None:
        groups.DEFAULT_CAP = cap
    try:
        t0 = time.monotonic()
        out = args.func(args)
        if out is None:
            return 0
        command, inputs, results, checks = out
        return _emit({"command": command, "inputs": inputs, "results": results,
                      "checks": checks,
                      "timing": {"elapsed_s": round(time.monotonic() - t0, 3)}}, args.json)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (UnknownSpec, SolweightsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        groups.DEFAULT_CAP = saved_cap


if __name__ == "__main__":
    raise SystemExit(main())
