"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy verifications come from the session fixtures (computed once, first-run
wall time recorded in the reports), so the stated runtime budgets are
checked against genuine cold-run timings.
"""

import time

from solweights import solmodel
from solweights.fusion_tables import weight_count
from solweights.linalg import gram_gf2
from solweights.poset_limits import (
    build_chain_poset,
    cochain_cohomology,
    constant_functor,
    verify_lim_A2,
)
from solweights.robinson import (
    choice_invariance,
    cycle_type,
    defect_zero_block_count,
    robinson_matrix,
    two_complement_shortcut,
)
from solweights.zoo import named_group

from conftest import failing

DEF0_TABLE = [
    ("S3", 1), ("x(S3,S3)", 1), ("x(S3,x(S3,S3))", 1), ("wr(S3,C2)", 0),
    ("dih(C3xC3)", 4), ("m324", 1), ("GL(3,2)", 1), ("GL(4,2)", 1),
    ("S6", 1), ("wr(S3,S3)", 1), ("S5", 0), ("A7", 0), ("S7", 0),
]


def report(criterion: int, ok: bool, detail: str):
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_def0_table():
    t0 = time.monotonic()
    results = {spec: defect_zero_block_count(named_group(spec))[0]
               for spec, _ in DEF0_TABLE}
    elapsed = time.monotonic() - t0
    ok = all(results[spec] == expected for spec, expected in DEF0_TABLE)
    ok = ok and elapsed <= 300
    report(1, ok, f"13/13 block counts exact in {elapsed:.1f}s (limit 300s)")


def test_criterion_02_weights():
    w_f0 = weight_count("F", 0)
    zs = [r["z"] for r in w_f0["rows"]]
    ok = (w_f0["total"] == 12 and zs == [1, 1, 4, 1, 1, 0, 1, 1, 1, 1])
    for system, l in (("F", 1), ("H", 0), ("H", 1)):
        ok = ok and weight_count(system, l)["total"] == 12
    report(2, ok, f"w(F,0)=w(F,1)=w(H,0)=w(H,1)=12, z-vector {tuple(zs)}")


def test_criterion_03_matrix_details():
    a7 = robinson_matrix(named_group("A7"))
    types = sorted(cycle_type(c.rep) for c in a7.classes)
    ok = (types == [(3, 3), (5,), (7,), (7,)]
          and a7.n_shape == (4, 33)
          and all(row == 0 for row in gram_gf2(a7.matrix_rows))
          and a7.gram_rank() == 0)
    s7 = robinson_matrix(named_group("S7"))
    ok = ok and s7.n_shape == (1, 10) and s7.gram_rank() == 0
    s5 = robinson_matrix(named_group("S5"))
    ok = ok and s5.matrix_rows == [0]
    w = robinson_matrix(named_group("wr(S3,S3)"))
    ok = ok and w.matrix_rows == [1]
    report(3, ok, "A7: 4 classes {(3,3),(5),(7),(7)}, |X|=33, NN^T even; "
                  "S7: |X|=10 rank 0; S5: N=[0]; S3 wr S3: N=[1]")


def test_criterion_04_quaternion(quaternion_reports):
    fails = {l: failing(quaternion_reports[l]) for l in (1, 2, 3)}
    ok = all(not f for f in fails.values())
    report(4, ok, "quaternion suite exact at l=1,2,3 "
                  f"({sum(len(quaternion_reports[l]['checks']) for l in fails)} checks)")


def test_criterion_05_sol_l0(torus_report_l0, sectional_report):
    fails = failing(torus_report_l0) + failing(sectional_report)
    elapsed = torus_report_l0["elapsed_s"] + sectional_report["elapsed_s"]
    ok = not fails and elapsed <= 120
    report(5, ok, f"|S|=1024, ranks 1..4, T unique C4^3, S/T = C2 x D8, "
                  f"s(S)=6 in {elapsed:.1f}s (limit 120s)")


def test_criterion_06_k_radicals_l0(radicals_report_l0):
    fails = failing(radicals_report_l0)
    orders = radicals_report_l0["out_orders"]
    ok = (not fails
          and [orders[k] for k in ("S", "Q", "QR", "QR*", "C_S(U)")]
          == [1, 324, 18, 6, 6])
    report(6, ok, f"Out orders {tuple(orders.values())}, all zoo-identified, "
                  "|N_K(Q)|=82944 by orbit 125")


def test_criterion_07_spotchecks_l1(spotcheck_report_l1, torus_report_l1):
    fails = failing(spotcheck_report_l1) + failing(torus_report_l1)
    elapsed = spotcheck_report_l1["elapsed_s"]
    ok = not fails and elapsed <= 600
    report(7, ok, f"|S|=8192, Out 1296 ~ S3 wr S3, normalizer 48 by orbit 325, "
                  f"witness O_2 = 2, in {elapsed:.1f}s (limit 600s)")


def test_criterion_08_cohomology():
    from solweights.cohomology import h2_dim

    ok = True
    for spec, path in [("S6", "elementary-abelian-invariants"),
                       ("S7", "elementary-abelian-invariants"),
                       ("GL(4,2)", "elementary-abelian-invariants"),
                       ("x(S3,S3)", "elementary-abelian-invariants"),
                       ("wr(S3,C2)", "elementary-abelian-invariants"),
                       ("S5", "cyclic-sylow-vanishing"),
                       ("GL(3,2)", "cyclic-sylow-vanishing"),
                       ("wr(S3,S3)", "three-term-vanishing"),
                       ("m324", "wreath-nakaoka")]:
        cert = h2_dim(named_group(spec), 3, name=spec)
        ok = ok and cert.dim == 0 and cert.path == path
    for spec in ("A7", "dih(C3xC3)"):
        ok = ok and h2_dim(named_group(spec), 3, name=spec).dim == 1
    m = h2_dim(named_group("m108"), 3, name="m108")
    ok = ok and m.dim == 1 and m.invariant_vectors == [[0, 0, 0, 0, 1, 1]]
    for spec, p in [("S5", 5), ("S6", 5), ("S7", 5), ("S7", 7), ("A7", 5),
                    ("A7", 7), ("GL(3,2)", 7), ("GL(4,2)", 5), ("GL(4,2)", 7)]:
        cert = h2_dim(named_group(spec), p, name=spec)
        ok = ok and cert.dim == 0 and cert.path == "cyclic-sylow-vanishing"
    report(8, ok, "all degree-two certificates exact, m108 invariant is "
                  "x1x3 + x2x3, every p >= 5 case vanishes on the cyclic path")


def test_criterion_09_limits():
    r1 = verify_lim_A2(1)
    r0 = verify_lim_A2(0)
    facts = r0["facts"]
    ok = (r1["pass"] and r1["criterion"] == "a"
          and r0["pass"] and r0["criterion"] == "b"
          and facts["normalizer_order"] == 72 and facts["index"] == 35
          and facts["index_coprime_to_3"]
          and facts["h2_A7_dim"] == 1 and facts["h2_normalizer_dim"] == 1
          and r0["cochain_h0"] == 0)
    report(9, ok, "lim = 0 at both levels (criteria a/b), normalizer 72 with "
                  "index 35 coprime to 3, cochain cross-check agrees")


def test_criterion_10_property_suite():
    ok = True
    details = []
    for spec, expected in DEF0_TABLE:
        rep = choice_invariance(named_group(spec), runs=20, seed=11)
        ok = ok and rep.all_equal and rep.baseline == expected
        ok = ok and len(rep.ranks) >= 20
        details.append(f"{spec}:{len(rep.ranks)}")
    # shortcut agreement on every normal-2-complement group in the table
    for spec, expected in DEF0_TABLE:
        G = named_group(spec)
        shortcut = two_complement_shortcut(G)
        if shortcut is not None:
            ok = ok and shortcut == defect_zero_block_count(G)[0]
    # multiplicativity on two products
    z3 = defect_zero_block_count(named_group("S3"))[0]
    zw = defect_zero_block_count(named_group("wr(S3,C2)"))[0]
    ok = ok and defect_zero_block_count(named_group("x(S3,S3)"))[0] == z3 * z3
    ok = ok and defect_zero_block_count(named_group("x(S3,wr(S3,C2))"))[0] == z3 * zw
    # delta . delta = 0 on every assembled complex
    from solweights.fusion_tables import load_hasse

    for tag in ("l0", "lpos"):
        diagram = load_hasse(tag)
        poset = build_chain_poset([n for n, _ in diagram.nodes], diagram.edges,
                                  max_length=3)
        cochain_cohomology(constant_functor(poset, 3), 2)
    report(10, ok, "rank invariant under 20 randomized choices per group, "
                   "shortcut = matrix count, multiplicativity, delta^2 = 0")


def test_criterion_11_bound(monkeypatch):
    reps = [solmodel.bound_check(l) for l in (0, 1)]
    ok = all(rep["pass"] and rep["weight"] == 12 and rep["sectional_rank"] == 6
             and rep["bound"] == 64 for rep in reps)
    monkeypatch.setattr(solmodel, "sectional_rank_certificate", lambda level: {"upper": 0})
    ok = ok and not solmodel.bound_check(1)["pass"]
    report(11, ok, "12 <= 2^6 with s(S) computed at l=0 and l=1; "
                   "degenerate bound correctly fails")
