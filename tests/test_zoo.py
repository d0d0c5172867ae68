import pytest

from solweights import zoo
from solweights.errors import UnknownSpec
from solweights.fusion_tables import _parse_descriptor, load_tables
from solweights.groups import FiniteGroup, conjugacy_classes, isomorphic
from solweights.zoo import named_group, quaternion_frame, sl2_group, spec_builder, wreath_product


def gl_order(n):
    out = 1
    for i in range(n):
        out *= (1 << n) - (1 << i)
    return out


@pytest.mark.parametrize("spec,order", [
    ("S7", 5040),
    ("A7", 2520),
    ("C12", 12),
    ("D8", 8),
    ("GL(3,2)", 168),
    ("GL(4,2)", 20160),
    ("wr(S3,C2)", 72),
    ("wr(S3,S3)", 1296),
    ("wr(C3,C3)", 81),
    ("dih(C3xC3)", 18),
    ("m108", 108),
    ("m324", 324),
    ("x(S3,S3)", 36),
    ("x(wr(S3,C2),S3)", 432),
    ("SL2(5)", 120),
    ("SL2(25)", 15600),
    ("quat(8)", 8),
    ("quat(32)", 32),
    ("1", 1),
])
def test_registry_orders(spec, order):
    assert named_group(spec).order == order


def test_gl_order_formula():
    assert gl_order(3) == 168
    assert gl_order(4) == 20160
    assert named_group("GL(4,2)").action.n == 15


def test_sl2_order_formula():
    for q, spec in ((5, "SL2(5)"), (25, "SL2(25)")):
        assert named_group(spec).order == q * (q - 1) * (q + 1)


def test_wreath_c2_c2_is_dihedral():
    W = named_group("wr(C2,C2)")
    assert W.order == 8
    assert isomorphic(W, named_group("D8"))


def test_wreath_c3_c3_exponent_nine():
    W = named_group("wr(C3,C3)")
    assert W.order == 81
    assert W.exponent() == 9


def test_wreath_order_formula():
    base = named_group("S3")
    top = named_group("S3")
    W = wreath_product(base, top)
    assert W.order == base.order ** 3 * top.order


def test_generalized_dihedral_classes():
    G = named_group("dih(C3xC3)")
    assert sorted(c.size for c in conjugacy_classes(G)) == [1, 2, 2, 2, 2, 9]


def test_m324_structure():
    G = named_group("m324")
    inv, swap, rot = zoo._INV, zoo._SWAP, zoo._ROT
    assert all(g in G.index for g in (inv, swap, rot))
    # the block permutation part commutes with the inversion
    assert G.mul(inv, rot) == G.mul(rot, inv)
    assert G.mul(inv, swap) == G.mul(swap, inv)


def test_quaternion_frame_relations():
    for level in (0, 1, 2):
        act, x, y, c, R, q8 = quaternion_frame(level)
        n = 2 ** (level + 2)
        xp = x
        for _ in range(n - 1):
            xp = act.mul(xp, x)
        assert xp == act.identity
        assert act.mul(act.mul(y, y), act.mul(y, y)) == act.identity
        assert act.mul(act.mul(act.inv(y), x), y) == act.inv(x)
        assert act.mul(c, c) == act.inv(x)
        assert R.order == 2 ** (level + 3)
        assert q8.order == 8
        assert q8.generators == (R.power(x, 2 ** level), y)


@pytest.mark.parametrize("level", [0, 1])
def test_quaternion_frame_q8_inside_sl2(level):
    # subfield encodings embed unchanged, so the frame's Q8 over F_{q^2} is
    # also the Q8 of SL_2(q), element for element
    q8 = quaternion_frame(level).q8
    sl2 = sl2_group(level)
    closed = FiniteGroup.generate(sl2.action, q8.generators, cap=9)
    assert closed.elements == q8.elements
    assert q8.is_subgroup_of(sl2)


def test_quaternion_frame_q8_at_level_zero():
    assert quaternion_frame(0).q8.generators == ((2, 0, 0, 3), (0, 4, 1, 0))
    assert quaternion_frame(0) is quaternion_frame(0)


REJECTED_SPECS = ["", "Q8", "GL(4,3)", "GL(1,2)", "C0", "D4", "D7", "quat(4)", "SL2(7)",
                  "wr(S3)", "x(S3,S3,S3)"]
# every table descriptor, plus x(C2,D8), which verify_torus_sequence reads,
# and its factor D8
ACCEPTED_SPECS = sorted({_parse_descriptor(desc) for rows in load_tables().values()
                         for row in rows for desc in row.out.values() if desc is not None}
                        | {"D8", "x(C2,D8)"})


def test_unknown_specs():
    # the grammar rejects exactly what named_group rejects
    for bad in REJECTED_SPECS:
        with pytest.raises(UnknownSpec):
            spec_builder(bad)
        with pytest.raises(UnknownSpec):
            named_group(bad)


@pytest.mark.parametrize("spec", ACCEPTED_SPECS)
def test_grammar_accepts_what_named_group_builds(spec):
    assert callable(spec_builder(spec))
    assert named_group(spec).order >= 1


@pytest.mark.parametrize("order", range(6, 21, 2))
def test_dihedral_order(order):
    G = named_group(f"D{order}")
    assert G.order == order
    assert max(map(G.element_order, G.elements)) == order // 2


def test_direct_product_marks():
    G = named_group("x(S3,S3)")
    gens_a, gens_b = G.marks["factor_gens"]
    from solweights.groups import FiniteGroup

    A = FiniteGroup.generate(G.action, gens_a)
    B = FiniteGroup.generate(G.action, gens_b)
    assert A.order == B.order == 6
    # factors commute elementwise
    assert all(G.mul(a, b) == G.mul(b, a) for a in gens_a for b in gens_b)
