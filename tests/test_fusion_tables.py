import pytest

from solweights import fusion_tables, groups, solmodel
from solweights.errors import ValidationFailure
from solweights.fusion_tables import (
    eval_exponent,
    hasse_export,
    load_hasse,
    load_tables,
    resolve_out_descriptor,
    weight_count,
)


def test_row_counts():
    tables = load_tables()
    assert len(tables["l0"]) == 10
    assert len(tables["k_lpos"]) == 11
    assert len(tables["h_lpos"]) == 18
    assert len(tables["f_lpos"]) == 17


@pytest.mark.parametrize("bad", ["Foo", "D4", "GL4(2) x C0"])
def test_unknown_descriptor_fails_load(monkeypatch, bad):
    # "Foo" fails the descriptor parser; "D4" and "C0" parse, and the spec
    # grammar rejects them
    read = fusion_tables._read_data

    def with_bad_cell(name):
        text = read(name)
        if name == "table_l0.tsv":
            text = text.replace("A\t4\t-\t-\tGL4(2)\t", f"A\t4\t-\t-\t{bad}\t")
        return text

    monkeypatch.setattr(fusion_tables, "_read_data", with_bad_cell)
    with pytest.raises(ValidationFailure, match=r"^table l0 row A: "):
        fusion_tables.load_tables.__wrapped__()


def test_load_tables_closes_no_group(monkeypatch):
    def no_closure(*args):
        raise AssertionError("load_tables closed a group")

    monkeypatch.setattr(groups, "_dimino", no_closure)
    # a cap no memo holds groups for, so a named_group call could not be
    # answered from an earlier test's cache
    monkeypatch.setattr(groups, "DEFAULT_CAP", groups.DEFAULT_CAP - 1)
    tables = fusion_tables.load_tables.__wrapped__()
    assert {key: len(rows) for key, rows in tables.items()} == {
        "l0": 10, "k_lpos": 11, "h_lpos": 18, "f_lpos": 17}


def test_eval_exponent():
    assert eval_exponent("10+3l", 1) == 13
    assert eval_exponent("8", 2) == 8
    assert eval_exponent("9+2l", 2) == 13
    with pytest.raises(ValidationFailure):
        eval_exponent("3l+9", 1)


@pytest.mark.parametrize("desc,order", [
    ("S3 wr S3", 1296),
    ("(C3)^3:(C2xS3)", 324),
    ("(C3)^3:(C2xC2)", 108),
    ("(C3xC3):-1:C2", 18),
    ("(S3 wr C2) x S3", 432),
    ("S3 x (S3 wr C2)", 432),
    ("((S3 wr C2) x S3)", 432),
    ("(S3) x (S3)", 36),  # starts and ends with a parenthesis but is not wrapped
    ("S3 x S3 x S3", 216),
    ("GL3(2)", 168),
    ("GL4(2)", 20160),
    ("1", 1),
])
def test_descriptor_resolution(desc, order):
    assert resolve_out_descriptor(desc).order == order


def test_specific_cells():
    tables = load_tables()
    l0 = {r.label: r for r in tables["l0"]}
    assert l0["C_S(E)"].out["F"] == "GL3(2)"
    assert resolve_out_descriptor(l0["C_S(E)"].out["F"]).order == 168
    f = {r.label: r for r in tables["f_lpos"]}
    assert f["A"].out["F"] == "GL4(2)"
    assert f["A"].order_exponent(1) == 4
    assert f["Q1Q2Q3"].out["K"] == "S3 wr S3"


def test_f_column_dichotomy():
    # already validated at load; re-assert here on an example pair
    tables = load_tables()
    for row in tables["f_lpos"]:
        partners = [d for d in (row.out["K"], row.out["H"]) if d is not None]
        if partners:
            assert any(resolve_out_descriptor(row.out["F"]).order
                       == resolve_out_descriptor(p).order for p in partners)


@pytest.mark.parametrize("system,l", [("F", 0), ("F", 1), ("F", 2),
                                      ("H", 0), ("H", 1)])
def test_weight_counts_twelve(system, l):
    assert weight_count(system, l)["total"] == 12


def test_weight_f0_z_vector():
    w = weight_count("F", 0)
    assert [r["label"] for r in w["rows"]] == [
        "S", "Q", "QR", "QR*", "C_S(U)", "R", "R*", "RR*", "C_S(E)", "A"]
    assert [r["z"] for r in w["rows"]] == [1, 1, 4, 1, 1, 0, 1, 1, 1, 1]


def test_weight_invariant_under_row_permutation():
    w = weight_count("F", 1)
    assert w["total"] == sum(sorted(r["z"] for r in w["rows"]))


def test_z_invariant_under_isomorphic_construction():
    from solweights.robinson import defect_zero_block_count
    from solweights.zoo import named_group

    # same abstract group through two different registry constructions
    assert (defect_zero_block_count(named_group("wr(C2,C2)"))[0]
            == defect_zero_block_count(named_group("D8"))[0])
    assert (defect_zero_block_count(resolve_out_descriptor("S3 x S3"))[0]
            == defect_zero_block_count(named_group("x(S3,S3)"))[0])


def test_bound_check(monkeypatch):
    for l in (0, 1):
        assert solmodel.bound_check(l) == {"l": l, "weight": 12, "sectional_rank": 6,
                                           "bound": 64, "pass": True}
    # negative control: a zero sectional rank fails the bound
    monkeypatch.setattr(solmodel, "sectional_rank_certificate", lambda level: {"upper": 0})
    assert not solmodel.bound_check(1)["pass"]


def test_hasse_shapes():
    d0 = load_hasse("l0")
    assert len(d0.nodes) == 10 and len(d0.edges) == 14
    d1 = load_hasse("lpos")
    assert len(d1.nodes) == 17 and len(d1.edges) == 29


def test_hasse_required_edges():
    d0 = load_hasse("l0")
    for edge in [("A", "R"), ("A", "C_S(E)"), ("Q", "QR"), ("RR*", "S")]:
        assert edge in d0.edges
    d1 = load_hasse("lpos")
    assert ("R", "R**") in d1.edges
    assert ("A", "Q1Q2Q3") in d1.edges


def test_hasse_exponents_strictly_increase():
    for tag, l in (("l0", 0), ("lpos", 1)):
        d = load_hasse(tag)
        exps = dict(d.nodes)
        for low, high in d.edges:
            assert eval_exponent(exps[low], l) < eval_exponent(exps[high], l)


def test_hasse_export_dot():
    dot = hasse_export(0, "dot")
    assert dot.startswith("digraph")
    assert dot.count("->") == 14
    assert dot.count("rank=same") == len({e for _, e in load_hasse("l0").nodes})
    # deterministic
    assert dot == hasse_export(0, "dot")


def test_hasse_export_json():
    import json

    data = json.loads(hasse_export(1, "json"))
    assert len(data["nodes"]) == 17
    assert len(data["edges"]) == 29
    assert data["l"] == 1
