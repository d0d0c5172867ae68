import pytest

from solweights import solmodel
from solweights.fields import field_tower
from solweights.groups import (
    FiniteGroup, MatrixAction, abelian_invariants, center, is_abelian, is_normal,
    normalizer, quotient_group, subgroups,
)
from solweights.solmodel import _q8_subgroups, build_sol_model
from solweights.zoo import named_group, sl2_group

from conftest import failing


# -- model construction ----------------------------------------------------------


def test_model_orders_l0(sol0):
    assert sol0.sylow.order == 1024
    assert sol0.r0.order == 256
    assert (sol0.z_group.order, sol0.u_group.order,
            sol0.e_group.order, sol0.a_group.order) == (2, 4, 8, 16)


def test_model_orders_l1(sol1):
    assert sol1.sylow.order == 8192
    assert sol1.r0.order == 2048
    assert sol1.torus.order == 512


def test_r0_order_formula(sol0, sol1):
    for model in (sol0, sol1):
        level = model.level
        assert model.r0.order == (2 ** (level + 3)) ** 3 // 2


def test_k_order_closed_form(sol0, sol1):
    assert sol0.k_order == 10_368_000
    assert sol1.k_order == 6 * 15600 ** 3


def test_central_sign_identification(sol0):
    act = sol0.action
    mat = act.mat
    minus = mat.mul(sol0.y, sol0.y)
    left = act.make(minus, minus, mat.identity)
    right = act.make(mat.identity, mat.identity, minus)
    assert left == right
    assert set(sol0.z_group.elements) == {act.identity, left}


def test_frame_relations(sol0, sol1):
    for model in (sol0, sol1):
        mat = model.action.mat
        n = 2 ** (model.level + 2)
        xp = mat.identity
        for _ in range(n):
            xp = mat.mul(xp, model.x)
        assert xp == mat.identity
        assert mat.mul(model.c, model.c) == mat.inv(model.x)


@pytest.mark.parametrize("level", [0, 1])
def test_sl2_normalizer_gens_match_sl2_side_reference(level):
    # reference: the Q8 built from scratch over F_q inside SL_2(q) and its
    # normalizer by scan
    fq, _, omega = field_tower(level)
    sl2 = sl2_group(level)
    mat = sl2.action
    x = (omega, 0, 0, fq.inv(omega))
    y = (0, fq.neg(1), 1, 0)
    x_q = sl2.power(x, 2 ** level)
    Q = FiniteGroup.generate(mat, [x_q, y], cap=16)
    N = normalizer(sl2, Q)
    assert build_sol_model(level).sl2_normalizer_gens == list(N.generators)


def test_model_and_reports_are_memoized(sol0, sol1, torus_report_l0, torus_report_l1,
                                        sectional_report, sectional_report_l1,
                                        radicals_report_l0, spotcheck_report_l1,
                                        quaternion_reports):
    assert build_sol_model(0) is sol0
    assert build_sol_model(1) is sol1
    assert solmodel.verify_torus_sequence(0) is torus_report_l0
    assert solmodel.verify_torus_sequence(1) is torus_report_l1
    assert solmodel.sectional_rank_certificate(0) is sectional_report
    assert solmodel.sectional_rank_certificate(1) is sectional_report_l1
    assert solmodel.verify_k_radicals_l0() is radicals_report_l0
    assert solmodel.spotcheck_l1() is spotcheck_report_l1
    for level, report in quaternion_reports.items():
        assert solmodel.verify_quaternion_lemma(level) is report


@pytest.mark.parametrize("fixture,command,extra", [
    ("quaternion_reports", "verify-quaternion", set()),
    ("torus_report_l0", "verify-torus", {"skipped"}),
    ("torus_report_l1", "verify-torus", {"skipped"}),
    ("sectional_report", "sectional-rank", {"lower", "upper"}),
    ("radicals_report_l0", "verify-k-radicals", {"out_orders"}),
    ("spotcheck_report_l1", "spotcheck", {"out_order_witness"}),
    ("sectional_report_l1", "sectional-rank", {"lower", "upper"}),
])
def test_report_keys_and_check_levels(request, fixture, command, extra):
    value = request.getfixturevalue(fixture)
    reports = value.values() if fixture == "quaternion_reports" else [value]
    for report in reports:
        assert report["command"] == command
        assert set(report) == {"command", "l", "checks", "elapsed_s"} | extra
        assert report["checks"]
        for record in report["checks"]:
            assert list(record) == ["check", "l", "expected", "computed", "pass"]
            assert record["l"] == report["l"]


def test_d_is_involution_commuting_with_tau(sol0):
    act = sol0.action
    assert act.mul(sol0.d, sol0.d) == act.identity
    assert act.mul(sol0.d, sol0.tau) == act.mul(sol0.tau, sol0.d)
    assert sol0.tau_prime == act.mul(sol0.d, sol0.tau)


def test_complement_four_group(sol0):
    act = sol0.action
    four = FiniteGroup.generate(act, [sol0.d, sol0.tau], cap=5)
    assert four.order == 4
    assert all(e == act.identity for e in four.elements if e in sol0.r0.index)
    assert four.order * sol0.r0.order == sol0.sylow.order


def normal_four_subgroups_reference(S):
    """Normal Klein four subgroups of S, by closing every commuting pair of
    distinct involutions."""
    act = S.action
    involutions = [e for e in S.elements if e != act.identity and act.mul(e, e) == act.identity]
    found = set()
    for i, a in enumerate(involutions):
        for b in involutions[i + 1:]:
            if act.mul(a, b) == act.mul(b, a):
                V = FiniteGroup.generate(act, [a, b], cap=4)
                if is_normal(S, V):
                    found.add(frozenset(V.elements))
    return len(found)


@pytest.mark.parametrize("spec", ["D8", "D16", "quat(16)", "x(C2,D8)", "wr(C2,C2)",
                                  "x(C4,C4)", "x(C2,x(C2,C2))"])
def test_normal_four_subgroups_lie_in_second_centre(spec):
    S = named_group(spec)
    assert solmodel._count_normal_four_subgroups(S) == normal_four_subgroups_reference(S)


def torus_copies_reference(S, T):
    """The subgroups of S isomorphic to the abelian group T, by filtering
    every subgroup of S by order, commutativity and invariants."""
    return sum(1 for H in subgroups(S) if H.order == T.order and is_abelian(H)
               and abelian_invariants(H) == abelian_invariants(T))


@pytest.mark.parametrize("spec,invariants,count", [
    ("x(C2,x(C4,C4))", (4, 4), 4), ("wr(C4,C2)", (4, 4), 1), ("x(C4,D8)", (4, 4), 1),
    ("D16", (8,), 1), ("quat(16)", (8,), 1),
    # copies H with H meet T < T, outside C_S(T): the index bound matters
    ("quat(8)", (4,), 3), ("D8", (2, 2), 2)])
def test_torus_copies_match_brute_force(spec, invariants, count):
    S = named_group(spec)
    # T is the first subgroup with these invariants; it is normal in each case
    T = next(H for H in subgroups(S) if is_abelian(H) and abelian_invariants(H) == invariants)
    found = solmodel._count_torus_copies(S, T, quotient_group(S, T))
    assert found == torus_copies_reference(S, T) == count


def test_center_of_sylow(sol0, sol1):
    for model in (sol0, sol1):
        assert set(center(model.sylow).elements) == set(model.z_group.elements)


# -- report-backed checks -----------------------------------------------------------


def test_torus_report_l0(torus_report_l0):
    assert failing(torus_report_l0) == []


def test_torus_report_l1(torus_report_l1):
    assert failing(torus_report_l1) == []
    assert torus_report_l1["skipped"], "uniqueness searches must be flagged at l=1"


def test_sectional_report(sectional_report, sectional_report_l1):
    for report in (sectional_report, sectional_report_l1):
        assert failing(report) == []
        assert (report["lower"], report["upper"]) == (6, 6)


@pytest.mark.parametrize("spec,rank", [("S4", 2), ("quat(8)", 2), ("D8", 2),
                                       ("x(C2,D8)", 3), ("C4", 1)])
def test_sectional_rank_exhaustive(spec, rank):
    # S4 has non-abelian sections, such as S4 itself and S4/V4
    assert solmodel._sectional_rank_exhaustive(named_group(spec)) == rank


@pytest.mark.parametrize("level", [1, 2, 3])
def test_quaternion_reports(quaternion_reports, level):
    assert failing(quaternion_reports[level]) == []


@pytest.mark.parametrize("level", [1, 2])
def test_q8_search_matches_brute_force(level):
    fq, fq2, omega = field_tower(level)
    mat = MatrixAction(fq2)
    x = (omega, 0, 0, fq2.inv(omega))
    y = (0, fq2.neg(1), 1, 0)
    R = FiniteGroup.generate(mat, [x, y], cap=2 ** (level + 4))
    brute = set()
    for a in R.elements:
        for b in R.elements:
            if mat.mul(a, b) == mat.mul(b, a):
                continue
            H = FiniteGroup.generate(mat, [a, b], cap=R.order + 1)
            if H.order == 8 and sum(1 for e in H.elements if H.element_order(e) == 2) == 1:
                brute.add(frozenset(H.elements))
    assert len(brute) == 2 ** level
    assert _q8_subgroups(R).keys() == brute


def test_inn_aut_orders_l0(radicals_report_l0):
    checks = {c["check"]: c for c in radicals_report_l0["checks"]}
    assert checks["|Aut_K(Q)| = 324 * 64"]["pass"]
    assert checks["|C_N(Q)| = |Z(Q)| = 4"]["pass"]
