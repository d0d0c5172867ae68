from dataclasses import replace

from conftest import failing

from solweights import solmodel
from solweights.fusion_tables import load_tables


def test_k_radicals_l0_all_pass(radicals_report_l0):
    assert failing(radicals_report_l0) == []


def test_k_radicals_out_orders(radicals_report_l0):
    assert radicals_report_l0["out_orders"] == {
        "S": 1, "Q": 324, "QR": 18, "QR*": 6, "C_S(U)": 6,
    }


def test_k_radicals_l0_expect_the_table_k_column(monkeypatch):
    # the expected |Out_K(P)| and isomorphism type come from the K column
    # that the weight count reads, so a wrong entry there fails its row
    tables = load_tables()
    rows = [replace(row, out={**row.out, "K": "S5"}) if row.label == "QR*" else row
            for row in tables["l0"]]
    monkeypatch.setattr(solmodel, "load_tables", lambda: {**tables, "l0": rows})
    report = solmodel.verify_k_radicals_l0.__wrapped__()
    assert [c["check"] for c in failing(report)] == ["|Out_K(QR*)|", "Out_K(QR*) type"]


def test_orbit_certification_l0(radicals_report_l0):
    checks = {c["check"]: c for c in radicals_report_l0["checks"]}
    assert checks["orbit of Q under K"]["computed"] == 125
    assert checks["|N_K(Q)| by orbit-stabilizer"]["computed"] == 82944
    # per-factor oracle: orbit 5 in each copy, combined 5^3
    assert 5 ** 3 == 125
    assert 10_368_000 // 125 == 82944


def test_spotcheck_l1_all_pass(spotcheck_report_l1):
    assert failing(spotcheck_report_l1) == []


def test_spotcheck_l1_key_values(spotcheck_report_l1):
    checks = {c["check"]: c for c in spotcheck_report_l1["checks"]}
    assert checks["orbit of Q8 under SL2(25)"]["computed"] == 325
    assert 15600 // 48 == 325
    assert checks["|Out_K(Q1Q2Q3)| = 1296"]["computed"] == 1296
    assert checks["witness |O_2(Out_K(P))| = 2 (not radical)"]["computed"] == 2


def test_spotcheck_l1_out_type_by_search(spotcheck_report_l1):
    checks = {c["check"]: c for c in spotcheck_report_l1["checks"]}
    assert checks["Out_K(Q1Q2Q3) type"]["computed"] == "isomorphism-verified"
