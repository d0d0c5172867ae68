import random

import pytest

from solweights import groups
from solweights.errors import CapExceeded
from solweights.groups import class_index_table
from solweights.robinson import (
    choice_invariance,
    cycle_type,
    defect_zero_block_count,
    defect_zero_classes,
    repick,
    robinson_matrix,
    two_complement_shortcut,
)
from solweights.zoo import named_group, trivial_group

TABLE = [
    ("S3", 1), ("x(S3,S3)", 1), ("x(S3,x(S3,S3))", 1), ("wr(S3,C2)", 0),
    ("dih(C3xC3)", 4), ("m324", 1), ("GL(3,2)", 1), ("GL(4,2)", 1),
    ("S6", 1), ("wr(S3,S3)", 1), ("S5", 0), ("A7", 0), ("S7", 0),
]


def test_defect_zero_classes_c2_empty():
    C2 = named_group("C2")
    assert defect_zero_classes(C2) == []


def test_defect_zero_classes_wreath_nine_cycle():
    G = named_group("wr(S3,S3)")
    dz = defect_zero_classes(G)
    assert len(dz) == 1
    assert cycle_type(dz[0].rep) == (9,)


def test_defect_zero_classes_a7():
    dz = defect_zero_classes(named_group("A7"))
    assert sorted(cycle_type(c.rep) for c in dz) == [(3, 3), (5,), (7,), (7,)]


@pytest.mark.parametrize("spec,expected", TABLE)
def test_block_count_table(spec, expected):
    count, bound = defect_zero_block_count(named_group(spec))
    assert count == expected
    assert count <= bound


def test_matrix_wreath_single_one():
    data = robinson_matrix(named_group("wr(S3,S3)"))
    assert data.n_shape == (1, 1)
    assert data.raw_counts == [[3]]
    assert data.matrix_rows == [1]


def test_matrix_s5_single_even():
    data = robinson_matrix(named_group("S5"))
    assert data.n_shape == (1, 1)
    assert data.raw_counts == [[2]]
    assert data.matrix_rows == [0]


def test_matrix_a7_shape_and_gram():
    data = robinson_matrix(named_group("A7"))
    assert data.n_shape == (4, 33)
    from solweights.linalg import gram_gf2

    assert all(row == 0 for row in gram_gf2(data.matrix_rows))
    assert data.gram_rank() == 0


def test_matrix_s7_all_even():
    data = robinson_matrix(named_group("S7"))
    assert data.n_shape == (1, 10)
    assert data.matrix_rows == [0]
    assert all(c % 2 == 0 for c in data.raw_counts[0])


def test_trivial_group_convention():
    data = robinson_matrix(trivial_group())
    assert data.n_shape == (1, 1)
    assert data.matrix_rows == [1]
    assert data.gram_rank() == 1


def test_two_group_has_no_defect_zero_blocks():
    # every centralizer in a nontrivial 2-group is even, so Y is empty
    data = robinson_matrix(named_group("D8"))
    assert data.n_shape == (0, 0)
    assert data.gram_rank() == 0


def test_shortcut_stops_at_lowered_cap(monkeypatch):
    G = named_group("S3")
    monkeypatch.setattr(groups, "DEFAULT_CAP", 2)
    with pytest.raises(CapExceeded):
        two_complement_shortcut(G)


def test_shortcut_values():
    assert two_complement_shortcut(named_group("S3")) == 1
    assert two_complement_shortcut(named_group("dih(C3xC3)")) == 4
    assert two_complement_shortcut(named_group("m108")) == 4
    assert two_complement_shortcut(named_group("A7")) is None
    assert two_complement_shortcut(named_group("S4")) is None


def test_shortcut_agrees_with_matrix():
    for spec in ("S3", "x(S3,S3)", "x(S3,x(S3,S3))", "wr(S3,C2)",
                 "dih(C3xC3)", "m108", "m324"):
        G = named_group(spec)
        shortcut = two_complement_shortcut(G)
        assert shortcut is not None
        assert shortcut == defect_zero_block_count(G)[0]


def test_multiplicativity_spot_checks():
    z_s3 = defect_zero_block_count(named_group("S3"))[0]
    assert defect_zero_block_count(named_group("x(S3,S3)"))[0] == z_s3 * z_s3
    z_w = defect_zero_block_count(named_group("wr(S3,C2)"))[0]
    assert defect_zero_block_count(named_group("x(S3,wr(S3,C2))"))[0] == z_s3 * z_w


def test_rank_bound():
    for spec, _ in TABLE:
        data = robinson_matrix(named_group(spec))
        assert data.gram_rank() <= data.bound()


def test_choice_invariance_light():
    rep = choice_invariance(named_group("wr(S3,C2)"), runs=6, seed=5)
    assert rep.all_equal and rep.baseline == 0
    rep2 = choice_invariance(named_group("dih(C3xC3)"), runs=6, seed=5)
    assert rep2.all_equal and rep2.baseline == 4


@pytest.mark.parametrize("runs", [0, 1, 4])
def test_choice_invariance_runs_exactly_runs(runs):
    # S7 is heavy (order > 4000), whose schedule asks for at least five
    # variations; fewer runs must still mean exactly that many
    rep = choice_invariance(named_group("S7"), runs=runs, seed=3)
    assert rep.runs == len(rep.ranks) == len(rep.variations) == runs
    assert rep.all_equal


@pytest.mark.parametrize("spec", ["S6", "wr(S3,S3)"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_repick_matches_full_recompute(spec, seed):
    # reference: a fresh coset partition, f(D) drawn in coset order, and the
    # counts |y_i^G meet x_j S| taken element by element
    G = named_group(spec)
    base = robinson_matrix(G)
    fresh = robinson_matrix(G, sylow=base.sylow)
    rng = random.Random(seed)
    x_reps = [rng.choice(members) for members in fresh.coset_defect_zero]
    table = class_index_table(G)
    dz_ids = [table[G.index[c.rep]] for c in defect_zero_classes(G)]
    raw = [[sum(1 for s in base.sylow.elements if table[G.index[G.mul(x, s)]] == ci)
            for x in x_reps] for ci in dz_ids]
    rows = [sum(1 << j for j, n in enumerate(counts) if n % 2) for counts in raw]

    got = repick(base, random.Random(seed))
    assert got.x_reps == x_reps
    assert got.raw_counts == raw
    assert got.matrix_rows == rows
    assert got.coset_defect_zero is base.coset_defect_zero
    assert base.x_reps == [members[0] for members in base.coset_defect_zero]
