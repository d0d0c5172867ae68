"""The public-API calls each benchmark child makes, per workload.

A workload is a list of jobs.  A job is a name and a function returning a
flat dict of output items; every item is compared with the stored reference
in ``reference/<workload>.json``.  ``solweights`` is imported only inside the
job functions, so the parent process (run.py) never imports the program.

Only ``tables`` takes inputs from the seed.  The inputs of the ``sol_*``
workloads are fixed, because the paper has one instance (q = 5 and q = 25);
their seed is used only by the layer microbenchmarks of a traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter

# The workloads of BENCHMARK.json; a run must end within 180 s, so each pass fits that.
BENCHMARK_WORKLOADS = ("tables", "sol_l0", "sol_l1")
# The complete CLI runs (about 155 s and 265 s cold), run by hand only.
FULL_WORKLOADS = ("sol_l0_full", "sol_l1_full")

# field_tower levels built during set-up, before the first computation
SETUP_LEVELS = {
    "tables": (),
    "sol_l0": (0,),
    "sol_l1": (1,),
    "sol_l0_full": (0,),
    "sol_l1_full": (1,),
    "selftest_cap": (),
}

# acceptance criterion 8: the 21 (group, prime) degree-two certificates
H2_PAIRS = (
    ("S6", 3), ("S7", 3), ("GL(4,2)", 3), ("x(S3,S3)", 3), ("wr(S3,C2)", 3),
    ("S5", 3), ("GL(3,2)", 3), ("wr(S3,S3)", 3), ("m324", 3), ("A7", 3),
    ("dih(C3xC3)", 3), ("m108", 3),
    ("S5", 5), ("S6", 5), ("S7", 5), ("S7", 7), ("A7", 5), ("A7", 7),
    ("GL(3,2)", 7), ("GL(4,2)", 5), ("GL(4,2)", 7),
)


class CliExit(Exception):
    """cli.main returned a nonzero exit code."""

    def __init__(self, code: int):
        super().__init__(f"cli exit code {code}")
        self.code = code


def normalize(value):
    """The JSON form of an output, so tuples and lists compare equal."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def _report_items(report: dict) -> dict:
    """Items of a verification report: one per check, plus the rest
    of the report without its timing field."""
    items = {}
    for key, value in report.items():
        if key in ("checks", "timing", "elapsed_s"):
            continue
        items[key] = value
    for check in report["checks"]:
        name = f"check {check['check']}"
        n = 2
        while name in items:
            name = f"check {check['check']} #{n}"
            n += 1
        items[name] = check
    return items


def _cli(argv: list[str]) -> dict:
    from solweights import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise CliExit(code)
    return _report_items(json.loads(buf.getvalue()))


def _embed(action, m: tuple, slot: int) -> tuple:
    ms = [action.mat.identity] * 3
    ms[slot] = m
    return action.make(*ms)


# ---------------------------------------------------------------------------
# tables: the permutation-group side, no 2-local model
# ---------------------------------------------------------------------------


def tables_inputs(seed: int) -> dict:
    from solweights import cli

    specs = [spec for spec, _ in cli.DEF0_TABLE]
    random.Random(seed).shuffle(specs)
    return {"group_order": specs, "choice_seed": seed}


def _defect_zero(spec: str) -> dict:
    from solweights import robinson, zoo

    count, bound = robinson.defect_zero_block_count(zoo.named_group(spec))
    return {"z": count, "bound": bound}


def _choice_invariance(spec: str, seed: int) -> dict:
    from solweights import robinson, zoo

    rep = robinson.choice_invariance(zoo.named_group(spec), runs=20, seed=seed)
    return {"baseline": rep.baseline, "runs": rep.runs, "all_equal": rep.all_equal,
            "ranks": sorted(set(rep.ranks)), "variations": dict(Counter(rep.variations))}


def _weights(system: str, l: int) -> dict:
    from solweights import fusion_tables

    w = fusion_tables.weight_count(system, l)
    return {"total": w["total"], "rows": w["rows"]}


def _h2_all() -> dict:
    from solweights import cohomology, zoo

    return {f"h2({spec}, {p})": cohomology.h2_dim(zoo.named_group(spec), p, name=spec).to_json()
            for spec, p in H2_PAIRS}


def _lim(l: int) -> dict:
    from solweights import poset_limits

    return {"report": poset_limits.verify_lim_A2(l)}


def tables_jobs(seed: int) -> list:
    inputs = tables_inputs(seed)
    jobs = []
    for spec in inputs["group_order"]:
        jobs.append((f"defect_zero_block_count({spec})", lambda s=spec: _defect_zero(s)))
        jobs.append((f"choice_invariance({spec})",
                     lambda s=spec: _choice_invariance(s, inputs["choice_seed"])))
    for system, l in (("F", 0), ("F", 1), ("H", 0), ("H", 1)):
        jobs.append((f"weight_count({system}, {l})", lambda s=system, l=l: _weights(s, l)))
    jobs.append(("h2_dim", _h2_all))
    jobs.append(("verify_lim_A2(0)", lambda: _lim(0)))
    jobs.append(("verify_lim_A2(1)", lambda: _lim(1)))
    return jobs


# ---------------------------------------------------------------------------
# sol_l0: the quaternion lemma and the Q row of the l = 0 radical table
# ---------------------------------------------------------------------------


def _q_row_l0() -> dict:
    """The Q row of verify_k_radicals_l0: N_K(Q) from its explicit
    generators, Out_K(Q) and the centralizer count, without the
    orbit-stabilizer certificate and the identification against m324."""
    from solweights import groups, solmodel

    model = solmodel.build_sol_model(0)
    action = model.action
    gens = [_embed(action, tuple(g), i) for i in range(3) for g in model.sl2_normalizer_gens]
    gens += [action.make(model.c, model.c, model.c), model.d, model.tau, model.rho]
    nk_q = groups.FiniteGroup.generate(action, gens, cap=100_000, name="N_K(Q)")
    Q = model.r0
    out = groups.induced_outer(nk_q.generators, Q, action=action)
    c_in_n = sum(1 for g in nk_q.elements
                 if all(action.mul(g, p) == action.mul(p, g) for p in Q.generators))
    return {"|K| closed form": model.k_order, "|Q|": Q.order, "|N_K(Q)|": nk_q.order,
            "|Out_K(Q)|": out.order, "|C_N(Q)|": c_in_n,
            "|Aut_K(Q)|": nk_q.order // c_in_n}


def _quaternion_jobs() -> list:
    return [(f"cli verify quaternion --l {L}",
             lambda L=L: _cli(["--json", "verify", "quaternion", "--l", str(L)]))
            for L in (1, 2, 3)]


def sol_l0_jobs(seed: int) -> list:
    return _quaternion_jobs() + [("radicals l=0, row Q", _q_row_l0)]


# ---------------------------------------------------------------------------
# sol_l1: the l = 1 torus and the spot checks that fit one run
# ---------------------------------------------------------------------------


def _torus_l1() -> dict:
    from solweights import solmodel

    return _report_items(solmodel.verify_torus_sequence(1))


def _per_factor_l1() -> dict:
    """Spot check (iii): the normalizer of Q8 in SL_2(25), by orbit and by closure."""
    from solweights import fields, groups, solmodel, zoo

    model = solmodel.build_sol_model(1)
    sl2 = zoo.sl2_group(1)
    fq, _, omega = fields.field_tower(1)
    x5 = (omega, 0, 0, fq.inv(omega))
    y5 = (0, fq.neg(1), 1, 0)
    q8 = groups.FiniteGroup.generate(sl2.action, [sl2.power(x5, 2), y5], cap=9)
    cert = groups.subgroup_orbit(sl2.action, sl2.generators, q8, cap=1000,
                                 ambient_order=sl2.order)
    nq8 = groups.FiniteGroup.generate(sl2.action, model.sl2_normalizer_gens, cap=64)
    involutions = sum(1 for e in nq8.elements if nq8.element_order(e) == 2)
    return {"|S|": model.sylow.order, "|SL2(25)|": sl2.order,
            "orbit of Q8": cert.orbit_size, "|N(Q8)| by orbit": cert.normalizer_order,
            "|N(Q8)| by closure": nq8.order, "involutions in N(Q8)": involutions}


def _csu_l1() -> dict:
    """Spot check (ii) up to Out: C_S(U), the container N_K(R0) and the
    normalizer of C_S(U) in it, by scan."""
    from solweights import groups, solmodel

    model = solmodel.build_sol_model(1)
    action = model.action
    r0_gens = list(model.r0.generators)
    csu = groups.FiniteGroup.generate(action, r0_gens + [model.d], cap=5000, name="C_S(U)")
    n_r0 = groups.FiniteGroup.generate(
        action, r0_gens + [action.make(model.c, model.c, model.c), model.tau, model.rho],
        cap=50_000, name="N_K(R0)")
    n_csu = groups.normalizer(n_r0, csu)
    return {"|C_S(U)|": csu.order, "|N_K(R0)|": n_r0.order,
            "|N_{N_K(R0)}(C_S(U))|": n_csu.order}


def _witness_l1() -> dict:
    """Spot check (iv) up to the container: P = Q1Q2Q3<s> and P meet L0."""
    from solweights import groups, solmodel

    model = solmodel.build_sol_model(1)
    action = model.action
    p0 = groups.FiniteGroup.generate(
        action, [g for Q in model.factor_q for g in Q.generators], cap=300, name="Q1Q2Q3")
    s = action.mul(_embed(action, model.x, 0), model.tau)
    s2 = action.mul(s, s)
    P = groups.FiniteGroup.generate(action, list(p0.generators) + [s], cap=2048)
    p_plus = groups.FiniteGroup.generate(action, list(p0.generators) + [s2], cap=1024)
    return {"|Q1Q2Q3|": p0.order,
            "s^2 = [x, x, 1]": s2 == action.make(model.x, model.x, action.mat.identity),
            "|P|": P.order, "|P meet L0|": p_plus.order}


def sol_l1_jobs(seed: int) -> list:
    return [("verify_torus_sequence(1)", _torus_l1),
            ("spotcheck l=1 (iii) per-factor", _per_factor_l1),
            ("spotcheck l=1 (ii) C_S(U) normalizer", _csu_l1),
            ("spotcheck l=1 (iv) witness subgroups", _witness_l1)]


# ---------------------------------------------------------------------------
# the complete CLI runs and the self-test
# ---------------------------------------------------------------------------


def sol_l0_full_jobs(seed: int) -> list:
    return _quaternion_jobs() + [
        ("cli verify sol --l 0", lambda: _cli(["--json", "verify", "sol", "--l", "0"]))]


def sol_l1_full_jobs(seed: int) -> list:
    return [("cli verify sol --l 1", lambda: _cli(["--json", "verify", "sol", "--l", "1"]))]


def selftest_cap_jobs(seed: int) -> list:
    """For selftest.py: one CLI call that an enumeration cap turns into exit 3."""
    return [("cli defect-zero --group D16",
             lambda: _cli(["--json", "defect-zero", "--group", "D16"]))]


JOBS = {
    "tables": tables_jobs,
    "sol_l0": sol_l0_jobs,
    "sol_l1": sol_l1_jobs,
    "sol_l0_full": sol_l0_full_jobs,
    "sol_l1_full": sol_l1_full_jobs,
    "selftest_cap": selftest_cap_jobs,
}


def inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of a workload, for the run record."""
    if workload == "tables":
        return tables_inputs(seed)
    return {"fixed": "the paper's single instance; the seed only drives the microbenchmarks"}
