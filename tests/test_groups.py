import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solweights import groups
from solweights.errors import CapExceeded, DoesNotNormalize, NotNormal, OrbitCapExceeded
from solweights.fields import _Memo, tower_field
from solweights.groups import (
    CentralTripleAction,
    FiniteGroup,
    MatrixAction,
    PermAction,
    abelian_invariants,
    center,
    centralizer,
    centralizer_of_subgroup,
    class_index_table,
    conjugacy_classes,
    conjugator,
    derived_subgroup,
    double_cosets,
    frattini_subgroup,
    identify,
    induced_outer,
    is_abelian,
    isomorphic,
    maximal_subgroups,
    normalizer,
    quotient_group,
    right_cosets,
    subgroup_levels,
    subgroup_orbit,
    subgroups,
    sylow_subgroup,
    trivial_intersection,
    two_core,
)
from solweights.solmodel import _slotwise
from solweights.zoo import (
    alternating_group,
    cyclic_group,
    direct_product,
    named_group,
    symmetric_group,
)


# -- oracles -----------------------------------------------------------------


def count_sl2_matrices(p):
    """Brute force: all 2x2 matrices over GF(p) with determinant one."""
    return sum(1 for a in range(p) for b in range(p) for c in range(p)
               for d in range(p) if (a * d - b * c) % p == 1)


def partitions(n):
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


# -- element arithmetic ---------------------------------------------------------


def ref_mat_mul(f, x, y):
    a, b, c, d = x
    e, g, h, i = y
    return (f.add(f.mul(a, e), f.mul(b, h)), f.add(f.mul(a, g), f.mul(b, i)),
            f.add(f.mul(c, e), f.mul(d, h)), f.add(f.mul(c, g), f.mul(d, i)))


def ref_mat_inv(f, x):
    a, b, c, d = x
    di = f.inv(f.add(f.mul(a, d), f.neg(f.mul(b, c))))
    return (f.mul(d, di), f.mul(f.neg(b), di), f.mul(f.neg(c), di), f.mul(a, di))


def ref_canonical(f, ms, pi):
    """The lexicographically smaller of the two central representatives."""
    cand = (*ms, pi)
    alt = (*(tuple(f.neg(v) for v in m) for m in ms), pi)
    return min(cand, alt)


def ref_triple_mul(f, x, y):
    p, q = x[3], y[3]
    permuted = [None] * 3
    for i in range(3):
        permuted[p[i]] = y[i]
    ms = [ref_mat_mul(f, x[k], permuted[k]) for k in range(3)]
    return ref_canonical(f, ms, tuple(p[q[i]] for i in range(3)))


def ref_triple_inv(f, x):
    q = [0] * 3
    for i, pi in enumerate(x[3]):
        q[pi] = i
    out = [None] * 3
    for i in range(3):
        out[q[i]] = ref_mat_inv(f, x[i])
    return ref_canonical(f, out, tuple(q))


def random_invertible(f, rng):
    while True:
        m = tuple(rng.randrange(f.size) for _ in range(4))
        if f.add(f.mul(m[0], m[3]), f.neg(f.mul(m[1], m[2]))):
            return m


def random_triple(act, rng):
    pi = tuple(rng.sample(range(3), 3))
    return act.make(*(random_invertible(act.field, rng) for _ in range(3)), pi)


def model_elements(model, rng, count):
    """Elements of S and random words of length 6 in the generators of K."""
    act = model.action
    out = [rng.choice(model.sylow.elements) for _ in range(count)]
    for _ in range(count):
        w = act.identity
        for _ in range(6):
            w = act.mul(w, rng.choice(model.k_generators))
        out.append(w)
    return out


def check_arithmetic(act, elements, ref_mul, ref_inv, rng, pairs, view=lambda x: x):
    # view maps an element to the form the reference computes on
    f = act.field
    for _ in range(pairs):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert view(act.mul(a, b)) == ref_mul(f, view(a), view(b))
        assert act.right_mul(b)(a) == act.mul(a, b)
        assert view(act.inv(a)) == ref_inv(f, view(a))
        assert act.mul(act.mul(a, b), c) == act.mul(a, act.mul(b, c))
        assert act.mul(a, act.inv(a)) == act.identity


def check_perm_mul(n, a, b):
    act = PermAction(n)
    got = act.mul(a, b)
    assert type(got) is tuple
    assert got == tuple(a[i] for i in b)
    # on 0 and 1 points itemgetter alone would give a bare entry or raise
    right = act.right_mul(b)(a)
    assert type(right) is tuple
    assert right == got


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(0, 40))
    return n, tuple(draw(st.permutations(range(n)))), tuple(draw(st.permutations(range(n))))


@settings(max_examples=200, deadline=None)
@given(perm_pairs())
def test_perm_mul_matches_reference(case):
    check_perm_mul(*case)


@pytest.mark.parametrize("n", [0, 1, 2, 256, 1296])
def test_perm_mul_matches_reference_fixed_degrees(n):
    # 256 and 1,296 are the point counts of Out_K(Q) and Out_K(Q1Q2Q3)
    rng = random.Random(n)
    for _ in range(20):
        check_perm_mul(n, tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n)))


@pytest.mark.parametrize("level", [0, 1])
def test_triple_arithmetic_matches_reference(sol0, sol1, level):
    model = (sol0, sol1)[level]
    assert type(model.action.field.mul_table) is _Memo
    rng = random.Random(300 + level)
    elements = model_elements(model, rng, 500)
    check_arithmetic(model.action, elements, ref_triple_mul, ref_triple_inv, rng, 2000,
                     view=model.action.matrices)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_matrix_arithmetic_matches_reference(level):
    # GF(5) has list tables; every tower level above it fills its tables
    # lazily
    act = MatrixAction(tower_field(level))
    assert type(act.field.mul_table) is (list if level == 0 else _Memo)
    rng = random.Random(400 + level)
    elements = [random_invertible(act.field, rng) for _ in range(300)]
    check_arithmetic(act, elements, ref_mat_mul, ref_mat_inv, rng, 500)


@pytest.mark.parametrize("level", [0, 1, 2, 4])
def test_matrix_inverse_singular_raises(level):
    # list tables (GF(5)) fail like lazily filled ones (GF(25) and up)
    with pytest.raises(ZeroDivisionError):
        MatrixAction(tower_field(level)).inv((1, 2, 1, 2))


def test_triple_arithmetic_slow_field():
    act = CentralTripleAction(tower_field(4))
    assert not isinstance(act.field.mul_table, list)
    rng = random.Random(500)
    elements = [random_triple(act, rng) for _ in range(100)]
    check_arithmetic(act, elements, ref_triple_mul, ref_triple_inv, rng, 200,
                     view=act.matrices)


@pytest.mark.parametrize("level", [1, 2, 4])
def test_canonical_singular_first_factor(level):
    # sparse m1 is often singular, and every other draw has a zero first
    # row, so the sign entry lies past it; the rule must match the reference
    act = CentralTripleAction(tower_field(level))
    f = act.field
    rng = random.Random(600 + level)
    sparse = lambda: tuple(rng.choice((0, rng.randrange(f.size))) for _ in range(4))
    for k in range(400):
        ms = [sparse(), sparse(), sparse()]
        if k % 2:
            ms[0] = (0, 0) + ms[0][2:]
        pi = tuple(rng.sample(range(3), 3))
        assert act.matrices(act.make(*ms, pi)) == ref_canonical(f, ms, pi)
    zero = (0, 0, 0, 0)
    assert (act.matrices(act.make(zero, zero, zero))
            == (zero, zero, zero, (0, 1, 2)))


@pytest.mark.parametrize("level", [1, 2, 4])
def test_triple_codes_order_and_round_trip(level):
    # slot matrices drawn from a small pool, so that comparisons often tie
    # on the first slots and are decided further in
    act = CentralTripleAction(tower_field(level))
    rng = random.Random(700 + level)
    pool = [random_invertible(act.field, rng) for _ in range(3)]
    elements = [act.make(*(rng.choice(pool) for _ in range(3)), tuple(rng.sample(range(3), 3)))
                for _ in range(40)]
    elements += [random_triple(act, rng) for _ in range(20)]
    for x in elements:
        assert act.make(*act.matrices(x)) == x
        for y in elements:
            assert (x < y) == (act.matrices(x) < act.matrices(y))


def test_triple_product_memo_stays_small(sol0):
    # the l = 0 closure of N_K(Q) runs on few distinct slot matrices
    act = CentralTripleAction(sol0.action.field)
    n_gens, _, model_act = q_row_l0(sol0)
    N = FiniteGroup.generate(act, [act.make(*model_act.matrices(g)) for g in n_gens],
                             cap=100_000)
    assert N.order == 82944
    assert sum(map(len, act._prod.values())) < 5000


def takes_sign_flip(act, x, y):
    """Whether the stored x y is the negative of the plain slot products."""
    mx, my = act.matrices(x), act.matrices(y)
    permuted = [None] * 3
    for i in range(3):
        permuted[mx[3][i]] = my[i]
    plain = tuple(ref_mat_mul(act.field, mx[k], permuted[k]) for k in range(3))
    return act.matrices(act.mul(x, y))[:3] != plain


@pytest.mark.parametrize("level", [0, 1])
def test_triple_right_mul_sign_rule(sol0, sol1, level):
    # products with and without the sign flip, and left factors whose first
    # slot has a zero first row or is zero, so the rule reads a later entry
    # or slot
    model = (sol0, sol1)[level]
    act = model.action
    rng = random.Random(440 + level)
    elements = model_elements(model, rng, 100)
    singular = []
    for m1 in [(0, 0, 1, 1), (0, 0, 0, 2), (0, 0, 0, 0)]:
        m2, m3 = random_invertible(act.field, rng), random_invertible(act.field, rng)
        singular += [act.make(m1, m2, m3, pi) for pi in [(0, 1, 2), (2, 0, 1), (1, 0, 2)]]
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(500)]
    pairs += [(x, y) for x in singular for y in elements[:20] + singular]
    for x, y in pairs:
        assert act.right_mul(y)(x) == act.mul(x, y)
        assert act.matrices(act.mul(x, y)) == ref_triple_mul(act.field, act.matrices(x),
                                                             act.matrices(y))
    flips = [takes_sign_flip(act, x, y) for x, y in pairs]
    assert any(flips) and not all(flips)


# -- closure and enumeration --------------------------------------------------


def test_closure_s3_from_transpositions():
    G = FiniteGroup.generate(PermAction(3), [(1, 0, 2), (0, 2, 1)])
    assert G.order == 6


def test_closure_quaternion_sixteen():
    # x, y with y^-1 x y = x^-1 at the second tower level give order 16
    G = named_group("quat(16)")
    assert G.order == 16


def test_closure_sl2_5_against_brute_force():
    oracle = count_sl2_matrices(5)
    assert oracle == 120
    assert named_group("SL2(5)").order == oracle


def test_closure_cap():
    with pytest.raises(CapExceeded):
        FiniteGroup.generate(PermAction(7), [(1, 2, 3, 4, 5, 6, 0)], cap=3)


def test_enumeration_deterministic():
    gens = [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]
    a = FiniteGroup.generate(PermAction(4), gens)
    b = FiniteGroup.generate(PermAction(4), gens)
    assert a.elements == b.elements


def reference_closure(action, generators):
    """Breadth-first closure by action.mul: per element, the generators in
    order, new elements appended."""
    elements, seen = [action.identity], {action.identity}
    gens = [g for g in generators if g != action.identity]
    for x in elements:
        for g in gens:
            y = action.mul(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def count_products(monkeypatch, cls):
    """Count the products of an action class: its mul calls and the calls of
    every x -> x g that its right_mul returns."""
    calls = [0]
    mul, right_mul = cls.mul, cls.right_mul

    def counted_mul(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    def counted_right_mul(self, g):
        times = right_mul(self, g)

        def counted(x):
            calls[0] += 1
            return times(x)

        return counted

    monkeypatch.setattr(cls, "mul", counted_mul)
    monkeypatch.setattr(cls, "right_mul", counted_right_mul)
    return calls


def dimino_sizes(act, gens, elements):
    """Check the prefix contract of a closure of gens and return the orders
    |H_0| = 1, |H_1|, ... of H_i = <first i picks>, a pick being a generator
    outside the closure of the earlier ones: elements[:|H_i|] is H_i, and
    the rest of H_i follows as cosets H_(i-1) r, each listed as H_(i-1)'s
    own list times r."""
    picks, sizes = [], [1]
    for g in gens:
        if g in elements[:sizes[-1]]:
            continue
        picks.append(g)
        closed = set(reference_closure(act, picks))
        size, new = sizes[-1], len(closed)
        assert set(elements[:new]) == closed
        H = elements[:size]
        for start in range(size, new, size):
            r = elements[start]
            assert elements[start:start + size] == [act.mul(h, r) for h in H]
        sizes.append(new)
    assert sizes[-1] == len(elements)
    return sizes


def dimino_bound(sizes):
    """|G| + k * (representatives): each of the k picks multiplies every
    coset representative of every step."""
    reps = sum(new // old for old, new in zip(sizes, sizes[1:]))
    return sizes[-1] + (len(sizes) - 1) * reps


def elements_at_raise(excinfo):
    """The element list of the closure that raised."""
    tb = excinfo.tb
    while tb.tb_frame.f_code.co_name != "_dimino":
        tb = tb.tb_next
    return tb.tb_frame.f_locals["elements"]


@pytest.mark.parametrize("case", ["gl42", "gf25", "sylow_l0"])
def test_generate_matches_reference_closure(monkeypatch, sol0, case):
    if case == "gl42":
        # shuffled generators, one extra element and the identity
        G = named_group("GL(4,2)")
        rng = random.Random(800)
        name, act = "GL(4,2)", G.action
        gens = list(G.generators) + [rng.choice(G.elements), G.identity]
        rng.shuffle(gens)
    elif case == "gf25":
        # SL(2,5) over the prime subfield and a diagonal torus element of GF(25)
        f = tower_field(1)
        w = f.omega
        name, act = "M(25)", MatrixAction(f)
        gens = [(1, 1, 0, 1), (0, f.neg(1), 1, 0), (w, 0, 0, f.inv(w))]
    else:
        name, act, gens = "S(l=0)", sol0.action, list(sol0.sylow.generators)
    want = reference_closure(act, gens)
    calls = count_products(monkeypatch, type(act))
    G = FiniteGroup.generate(act, gens, name=name)
    products = calls[0]
    monkeypatch.undo()
    assert G.order == len(want)
    assert set(G.elements) == set(want)
    assert G.index == {x: i for i, x in enumerate(G.elements)}
    assert G.generators == tuple(gens)
    sizes = dimino_sizes(act, gens, G.elements)
    assert products <= dimino_bound(sizes)
    cap = len(want) // 3
    with pytest.raises(CapExceeded) as err:
        FiniteGroup.generate(act, gens, cap=cap, name=name)
    assert str(err.value) == f"closure exceeded cap {cap} while generating {name}"
    # a cap inside the last coset: that coset is never added
    cap = sizes[-1] - sizes[-2] // 2
    with pytest.raises(CapExceeded) as err:
        FiniteGroup.generate(act, gens, cap=cap, name=name)
    assert str(err.value) == f"closure exceeded cap {cap} while generating {name}"
    assert cap - sizes[-2] < len(elements_at_raise(err)) <= cap


@pytest.mark.parametrize("case", ["gl42", "sylow_l0"])
def test_from_elements_closes_once(monkeypatch, sol0, case):
    # one walk picks the generators and closes the group
    G = named_group("GL(4,2)") if case == "gl42" else sol0.sylow
    elements = list(G.elements)
    random.Random(5).shuffle(elements)
    calls = count_products(monkeypatch, type(G.action))
    H = FiniteGroup.from_elements(G.action, elements)
    products = calls[0]
    monkeypatch.undo()
    assert set(H.elements) == set(G.elements)
    assert products <= dimino_bound(dimino_sizes(G.action, H.generators, H.elements))


def ref_greedy(action, elements):
    """Greedy generators, closing each prefix from scratch."""
    gens, closed = [], {action.identity}
    for e in elements:
        if e not in closed:
            gens.append(e)
            closed = set(FiniteGroup.generate(action, gens).elements)
    return gens, closed


@pytest.mark.parametrize("spec", ["S5", "wr(S3,S3)", "GL(4,2)", "SL2(5)", "quat(16)"])
def test_greedy_closure_matches_from_scratch_reference(spec):
    G = named_group(spec)
    elements = list(G.elements)
    random.Random(600).shuffle(elements)
    gens, closed = ref_greedy(G.action, sorted(elements))
    H = FiniteGroup.from_elements(G.action, elements)
    assert closed == set(G.elements)
    assert H.generators == tuple(gens)
    assert H.elements == FiniteGroup.generate(G.action, gens).elements
    assert groups._greedy_generators(G) == ref_greedy(G.action, G.elements)[0]


def test_from_elements_sylow_of_model(sol0):
    S = sol0.sylow
    H = FiniteGroup.from_elements(S.action, S.elements)
    gens, _ = ref_greedy(S.action, sorted(S.elements))
    assert H.generators == tuple(gens)
    assert H.elements == FiniteGroup.generate(S.action, gens).elements


def test_from_elements_rejects_non_subgroups():
    s3 = symmetric_group(3)
    with pytest.raises(CapExceeded):  # two transpositions close to all of S3
        FiniteGroup.from_elements(s3.action, [s3.identity, (1, 0, 2), (0, 2, 1)])
    with pytest.raises(ValueError):  # closure one element larger than the set
        FiniteGroup.from_elements(s3.action, s3.elements[:-1])


# -- conjugacy classes ---------------------------------------------------------


def test_classes_s3():
    G = symmetric_group(3)
    assert sorted(c.size for c in conjugacy_classes(G)) == [1, 2, 3]


def test_classes_a7_count():
    assert len(conjugacy_classes(alternating_group(7))) == 9


def test_classes_s7_equals_partitions():
    assert partitions(7) == 15
    assert len(conjugacy_classes(symmetric_group(7))) == 15


def test_class_sizes_sum_and_centralizer_product():
    for spec in ("S5", "A7", "wr(S3,C2)", "m108"):
        G = named_group(spec)
        classes = conjugacy_classes(G)
        assert sum(c.size for c in classes) == G.order
        for c in classes:
            assert c.size * c.centralizer_order == G.order


@pytest.mark.parametrize("spec", ["GL(4,2)", "m324", "wr(S3,S3)", "S7", "S(l=0)"])
def test_classes_numbered_by_breadth_first_appearance(sol0, spec):
    # classes and their reps follow the breadth-first closure order by the
    # generators, whatever order the elements are enumerated in
    G = sol0.sylow if spec == "S(l=0)" else named_group(spec)
    classes, table = conjugacy_classes(G), class_index_table(G)
    firsts = {}
    for x in reference_closure(G.action, G.generators):
        firsts.setdefault(table[G.index[x]], x)
    assert list(firsts) == list(range(len(classes)))
    assert [c.rep for c in classes] == list(firsts.values())
    assert [c.size for c in classes] == [table.count(i) for i in range(len(classes))]


# -- orbits -----------------------------------------------------------------------


@pytest.mark.parametrize("case,kind", [
    ("PermAction(0)", "perm"), ("PermAction(1)", "perm"), ("GL(4,2)", "perm"),
    ("SL2(5)", "matrix"), ("S(l=0)", "central-triple"),
])
def test_conjugator_matches_two_products(sol0, case, kind):
    if case.startswith("PermAction"):
        # degrees 0 and 1 take the n < 2 branch of right_mul
        G = FiniteGroup.generate(PermAction(int(case[-2])), [])
    elif case == "S(l=0)":
        G = sol0.sylow
    else:
        G = named_group(case)
    act = G.action
    assert act.kind == kind
    rng = random.Random(case)
    for _ in range(40):
        g, x = rng.choice(G.elements), rng.choice(G.elements)
        got = conjugator(act, g)(x)
        assert type(got) is tuple
        assert got == act.mul(act.mul(act.inv(g), x), g)


def test_orbit_seven_cycle_in_a7():
    G = alternating_group(7)
    maps = [conjugator(G.action, g) for g in G.generators]
    points, perms = groups._orbit((1, 2, 3, 4, 5, 6, 0), maps)
    assert len(points) == len(set(points)) == 360
    for conj, perm in zip(maps, perms):
        assert all(points[perm[i]] == conj(x) for i, x in enumerate(points))
    reached, _ = groups._orbit(0, [perm.__getitem__ for perm in perms])
    assert len(reached) == 360
    assert FiniteGroup.generate(PermAction(360), perms).order == G.order


# -- centralizers --------------------------------------------------------------


def test_centralizer_identity_is_whole_group():
    G = symmetric_group(4)
    assert centralizer(G, G.identity).order == G.order


def test_centralizer_seven_cycle():
    # oracle: |A7| / #7-cycles-in-class; the 7-cycles split in two classes of
    # size 6!/2 = 360, so the centralizer has order 2520/360 = 7
    G = alternating_group(7)
    g = (1, 2, 3, 4, 5, 6, 0)
    assert 2520 // 360 == 7
    assert centralizer(G, g).order == 7


def test_centralizer_three_three_is_odd():
    G = alternating_group(7)
    g = (1, 2, 0, 4, 5, 3, 6)
    c = centralizer(G, g)
    assert c.order == 9
    assert c.order % 2 == 1


def scan_reference(G, keep):
    """The per-element scan: test every element of G."""
    return FiniteGroup.from_elements(G.action, filter(keep, G.elements))


def normalizer_reference(G, P):
    return scan_reference(G, lambda h: groups._normalizes(G, h, P))


def centralizer_reference(G, P):
    return scan_reference(G, lambda h: all(G.mul(h, x) == G.mul(x, h) for x in P.generators))


V4_IN_A7 = [(1, 0, 3, 2, 4, 5, 6), (2, 3, 0, 1, 4, 5, 6)]


def sylow_case(spec, p):
    return lambda: (named_group(spec), sylow_subgroup(named_group(spec), p))


def fresh(G):
    """A new copy of G, with the same enumeration and an empty memo."""
    return FiniteGroup.generate(G.action, G.generators, cap=G.order + 1)


def subgroup_case(spec, gens):
    return lambda: (named_group(spec), named_group(spec).subgroup(gens))


SCAN_CASES = {
    "S6-sylow3": sylow_case("S6", 3),
    "wr(S3,S3)-sylow3": sylow_case("wr(S3,S3)", 3),
    "GL(4,2)-order9": sylow_case("GL(4,2)", 3),
    "GL(4,2)-order5": sylow_case("GL(4,2)", 5),
    "GL(4,2)-order7": sylow_case("GL(4,2)", 7),
    "A7-V4": subgroup_case("A7", V4_IN_A7),
    "SL2(5)-Q8": subgroup_case("SL2(5)", [(2, 0, 0, 3), (0, 4, 1, 0)]),
    # a Sylow 2-subgroup of S7 is not contained in A7: every element is tested
    "A7-S7sylow2": lambda: (named_group("A7"), sylow_subgroup(symmetric_group(7), 2)),
}


@pytest.mark.parametrize("case", SCAN_CASES)
def test_coset_walk_matches_per_element_scan(case):
    G, P = SCAN_CASES[case]()
    assert (case == "A7-S7sylow2") != P.is_subgroup_of(G)
    for got, want in [(normalizer(G, P), normalizer_reference(G, P)),
                      (centralizer_of_subgroup(G, P), centralizer_reference(G, P))]:
        assert got.generators == want.generators
        assert got.elements == want.elements


@pytest.mark.parametrize("spec,p", [("S6", 3), ("GL(4,2)", 7)])
def test_normalizer_one_test_per_right_coset(monkeypatch, spec, p):
    G = fresh(named_group(spec))
    P = sylow_subgroup(G, p)
    calls = []
    real = groups._normalizes
    monkeypatch.setattr(groups, "_normalizes", lambda *args: calls.append(1) or real(*args))
    normalizer(G, P)
    # one generator test (the first generator of G fails), then one test
    # per right coset of P
    assert len(calls) == G.order // P.order + 1


V4_IN_S4 = [(1, 0, 3, 2), (2, 3, 0, 1)]


def no_walk(monkeypatch):
    """Fail the test on any right-coset labelling or re-closure."""
    def refuse(*args, **kwargs):
        raise AssertionError("whole-group scan walked or re-closed G")

    monkeypatch.setattr(groups, "right_cosets", refuse)
    monkeypatch.setattr(FiniteGroup, "from_elements", classmethod(refuse))


def whole_group_scan_case(case):
    """(G, scan, number of elements each generator test conjugates or
    commutes with); every generator of G passes the test."""
    if case == "normalizer-V4-S4":
        G = fresh(symmetric_group(4))
        P = G.subgroup(V4_IN_S4)
        return G, lambda: normalizer(G, P), len(P.generators)
    if case == "center-abelian":
        G = fresh(named_group("x(C4,C4)"))
        return G, lambda: center(G), len(G.generators)
    if case == "centralizer-central":
        G = fresh(named_group("SL2(5)"))
        return G, lambda: centralizer(G, (4, 0, 0, 4)), 1
    raise KeyError(case)


@pytest.mark.parametrize("case", ["normalizer-V4-S4", "center-abelian", "centralizer-central"])
def test_whole_group_scan_returns_g(monkeypatch, case):
    # the only products are the generator tests: two per generator of G and
    # per tested element (x^g = g^-1 x g, or h x against x h)
    G, scan, tested = whole_group_scan_case(case)
    no_walk(monkeypatch)
    calls = count_products(monkeypatch, type(G.action))
    assert scan() is G
    assert calls[0] == 2 * len(G.generators) * tested


def test_whole_group_scan_of_l1_container(monkeypatch, sol1):
    # C_S(U) is normal in N_K(R0): spot check (ii) gets the container back
    act = sol1.action
    n_r0 = FiniteGroup.generate(act, _slotwise(act, [sol1.x, sol1.y],
                                               [act.make(sol1.c, sol1.c, sol1.c),
                                                sol1.tau, sol1.rho]), cap=50_000)
    csu = FiniteGroup.generate(act, list(sol1.r0.generators) + [sol1.d], cap=5000)
    assert (n_r0.order, csu.order) == (24576, 4096)
    no_walk(monkeypatch)
    calls = count_products(monkeypatch, CentralTripleAction)
    assert normalizer(n_r0, csu) is n_r0
    assert calls[0] == 2 * len(n_r0.generators) * len(csu.generators)


def brute_force(G, keep):
    return {h for h in G.elements if keep(h)}


def commutes(G, xs):
    return lambda h: all(G.mul(h, x) == G.mul(x, h) for x in xs)


BRUTE_FORCE_CASES = {
    # (G, X, whole): normalizer and centralizer of X in G
    "S4-V4": lambda: (symmetric_group(4), symmetric_group(4).subgroup(V4_IN_S4), True),
    "S4-A4": lambda: (symmetric_group(4), alternating_group(4), True),
    "S4-sylow3": lambda: (symmetric_group(4), sylow_subgroup(symmetric_group(4), 3), False),
    "S4-sylow2": lambda: (symmetric_group(4), sylow_subgroup(symmetric_group(4), 2), False),
    "SL2(5)-Q8": lambda: (*SCAN_CASES["SL2(5)-Q8"](), False),
    # S4 is not a subgroup of A4, yet A4 normalizes it
    "A4-S4": lambda: (alternating_group(4), symmetric_group(4), True),
    "A7-S7sylow2": lambda: (named_group("A7"), sylow_subgroup(symmetric_group(7), 2), False),
}


@pytest.mark.parametrize("case", BRUTE_FORCE_CASES)
def test_scans_match_brute_force_filter(case):
    G, X, whole = BRUTE_FORCE_CASES[case]()
    G = fresh(G)
    N = normalizer(G, X)
    assert set(N.elements) == brute_force(G, lambda h: groups._normalizes(G, h, X))
    assert (N is G) == whole
    C = centralizer_of_subgroup(G, X)
    assert set(C.elements) == brute_force(G, commutes(G, X.generators))
    for g in X.generators:
        if g in G.index:
            assert set(centralizer(G, g).elements) == brute_force(G, commutes(G, [g]))
    Z = center(G)
    assert set(Z.elements) == brute_force(G, commutes(G, G.generators))
    assert (Z is G) == (len(Z) == len(G))


def test_normalizer_memoized_per_group(monkeypatch):
    G = fresh(named_group("GL(4,2)"))
    P = sylow_subgroup(G, 7)
    first = normalizer(G, P)
    calls = []
    real = groups._normalizes
    monkeypatch.setattr(groups, "_normalizes", lambda *args: calls.append(1) or real(*args))
    assert normalizer(G, P) is first
    assert calls == []


# -- subgroup orbits ------------------------------------------------------------


def test_orbit_of_normal_subgroup():
    G = symmetric_group(4)
    V = FiniteGroup.generate(G.action, [(1, 0, 3, 2), (2, 3, 0, 1)], cap=5)
    cert = subgroup_orbit(G.action, G.generators, V, ambient_order=G.order)
    assert cert.orbit_size == 1
    assert cert.normalizer_order == G.order


def test_orbit_q8_in_sl2_5():
    sl2 = named_group("SL2(5)")
    Q = FiniteGroup.generate(sl2.action, [(2, 0, 0, 3), (0, 4, 1, 0)], cap=9)
    assert Q.order == 8
    cert = subgroup_orbit(sl2.action, sl2.generators, Q, ambient_order=120)
    assert (cert.orbit_size, cert.normalizer_order) == (5, 24)
    assert frozenset(Q.elements) in cert.conjugates
    assert len(cert.conjugates) == 5 and all(len(c) == 8 for c in cert.conjugates)
    # oracle: exhaustive normalizer scan
    assert normalizer(sl2, Q).order == 24


def test_subgroup_orbit_cap():
    # the 5 Q8 subgroups of SL2(5) fit a cap of 5 and not one of 4
    sl2 = named_group("SL2(5)")
    Q = FiniteGroup.generate(sl2.action, [(2, 0, 0, 3), (0, 4, 1, 0)], cap=9)
    assert subgroup_orbit(sl2.action, sl2.generators, Q, cap=5).orbit_size == 5
    with pytest.raises(OrbitCapExceeded):
        subgroup_orbit(sl2.action, sl2.generators, Q, cap=4)


def test_orbit_stabilizer_product():
    G = symmetric_group(5)
    P = FiniteGroup.generate(G.action, [(1, 0, 2, 3, 4)], cap=3)
    cert = subgroup_orbit(G.action, G.generators, P, ambient_order=G.order)
    assert cert.orbit_size * cert.normalizer_order == G.order


# -- Sylow subgroups -------------------------------------------------------------


def test_sylow_s7_at_two():
    # 7! = 5040 = 2^4 * 315
    assert 5040 == 2 ** 4 * 315
    assert sylow_subgroup(symmetric_group(7), 2).order == 16


def test_sylow_a7_at_three_elementary():
    P = sylow_subgroup(alternating_group(7), 3)
    assert P.order == 9
    assert abelian_invariants(P) == (3, 3)


def test_sylow_gl42_at_two():
    # |GL_4(2)| = 20160 = 2^6 * 315
    assert 20160 == 2 ** 6 * 315
    assert sylow_subgroup(named_group("GL(4,2)"), 2).order == 64


# -- double cosets ----------------------------------------------------------------


def test_double_coset_whole_group():
    G = symmetric_group(4)
    dcs = list(double_cosets(G, G))
    assert len(dcs) == 1 and len(dcs[0][1]) == G.order


def test_double_cosets_partition():
    G = symmetric_group(5)
    S = sylow_subgroup(G, 2)
    dcs = double_cosets(G, S)
    assert sum(len(members) for _, members in dcs) == G.order


def double_cosets_reference(G, S):
    """The |S|^2 walk: every s1 x s2 of each new representative x, in order."""
    visited = [False] * G.order
    for i, x in enumerate(G.elements):
        if visited[i]:
            continue
        members = []
        for s1 in S.elements:
            for s2 in S.elements:
                j = G.index[G.mul(s1, G.mul(x, s2))]
                if not visited[j]:
                    visited[j] = True
                    members.append(j)
        yield x, members


@pytest.mark.parametrize("spec", ["GL(3,2)", "S6", "wr(S3,S3)", "A7"])
@pytest.mark.parametrize("kind", ["sylow", "conjugate", "trivial"])
def test_double_cosets_match_reference_walk(spec, kind):
    G = named_group(spec)
    S = sylow_subgroup(G, 2)
    if kind == "conjugate":
        g = random.Random(23).choice(G.elements)
        S = FiniteGroup.from_elements(G.action, map(conjugator(G.action, g), S.elements))
    elif kind == "trivial":
        S = G.subgroup([])
    got = list(double_cosets(G, S))
    want = list(double_cosets_reference(G, S))
    assert [x for x, _ in got] == [x for x, _ in want]
    assert [sorted(m) for _, m in got] == [sorted(m) for _, m in want]


def test_double_cosets_product_count(monkeypatch):
    # |G| products to label the right cosets, then |S| per double coset
    G = named_group("GL(4,2)")
    S = sylow_subgroup(G, 2)
    calls = count_products(monkeypatch, PermAction)
    n_cosets = sum(1 for _ in double_cosets(G, S))
    assert calls[0] <= G.order + S.order * n_cosets


@pytest.mark.parametrize("spec, p", [("GL(4,2)", 2), ("S6", 3)])
def test_right_cosets_partition(monkeypatch, spec, p):
    G = named_group(spec)
    H = sylow_subgroup(G, p)
    calls = count_products(monkeypatch, PermAction)
    label, cosets = right_cosets(G, H)
    assert calls[0] == G.order
    monkeypatch.undo()
    assert sorted(j for coset in cosets for j in coset) == list(range(G.order))
    assert all(len(coset) == H.order for coset in cosets)
    # numbered by first element, which each coset lists first
    assert all(coset[0] == min(coset) for coset in cosets)
    assert [coset[0] for coset in cosets] == sorted(coset[0] for coset in cosets)
    for k, coset in enumerate(cosets):
        assert {label[j] for j in coset} == {k}
        g = G.elements[coset[0]]
        assert {G.index[G.mul(h, g)] for h in H.elements} == set(coset)


def test_trivial_intersection_constant_on_cosets():
    rng = random.Random(19)
    G = symmetric_group(5)
    S = sylow_subgroup(G, 2)
    for rep, _ in double_cosets(G, S):
        base = trivial_intersection(G, S, rep)
        # oracle: S^rep meets S in the identity alone
        conj = {G.mul(G.mul(G.inv(rep), s), rep) for s in S.elements}
        assert base == (conj & set(S.elements) == {G.identity})
        for _ in range(3):
            s1 = rng.choice(S.elements)
            s2 = rng.choice(S.elements)
            other = G.mul(G.mul(s1, rep), s2)
            assert trivial_intersection(G, S, other) == base


# -- quotients ----------------------------------------------------------------------


def test_quotient_by_self_trivial():
    G = symmetric_group(4)
    Q = quotient_group(G, G)
    assert Q.order == 1
    # Q keeps one identity generator per generator of G, and its center,
    # derived subgroup, exponent and isomorphism test multiply them on one point
    assert Q.generators == ((0,),) * len(G.generators)
    assert center(Q).elements == derived_subgroup(Q).elements == [(0,)]
    assert Q.exponent() == 1
    assert isomorphic(Q, named_group("1"))


def test_degree_one_group_with_identity_generator():
    G = FiniteGroup.generate(PermAction(1), [(0,)])
    assert G.generators == ((0,),)
    assert center(G).elements == derived_subgroup(G).elements == [(0,)]
    assert [c.size for c in conjugacy_classes(G)] == [1]
    assert G.exponent() == 1
    assert isomorphic(G, named_group("1"))


def test_quotient_not_normal():
    G = symmetric_group(3)
    H = FiniteGroup.generate(G.action, [(1, 0, 2)], cap=3)
    with pytest.raises(NotNormal):
        quotient_group(G, H)


@pytest.mark.parametrize("spec, kernel", [("quat(16)", center), ("S4", derived_subgroup)])
def test_quotient_coset_labels_match_reps(spec, kernel):
    G = named_group(spec)
    N = kernel(G)
    Q = quotient_group(G, N)
    coset_of = Q.marks["coset_of"]
    assert len(coset_of) == G.order
    # cosets are numbered in the order their first elements appear
    firsts = {}
    for i, k in enumerate(coset_of):
        firsts.setdefault(k, G.elements[i])
    assert list(firsts) == list(range(Q.order))
    # each element lies in N times the first element of its coset
    for g, k in zip(G.elements, coset_of):
        assert G.mul(g, G.inv(firsts[k])) in N.index


def test_quotient_class_count_central():
    G = named_group("quat(8)")
    Z = center(G)
    Q = quotient_group(G, Z)
    assert Q.order == G.order // Z.order
    assert len(conjugacy_classes(Q)) <= len(conjugacy_classes(G))


# -- isomorphism --------------------------------------------------------------------


def test_isomorphic_separates_c6_s3():
    assert not isomorphic(cyclic_group(6), symmetric_group(3))
    assert not isomorphic(symmetric_group(3), cyclic_group(6))


def test_generalized_dihedral_invariants():
    G = named_group("dih(C3xC3)")
    assert center(G).order == 1
    assert abelian_invariants(quotient_group(G, derived_subgroup(G))) == (2,)
    assert sorted(c.size for c in conjugacy_classes(G)) == [1, 2, 2, 2, 2, 9]


def test_isomorphic_small():
    assert isomorphic(named_group("wr(C2,C2)"), named_group("D8"))
    assert not isomorphic(named_group("quat(8)"), named_group("D8"))
    assert identify(named_group("quat(8)"), named_group("D8")) is None
    assert identify(cyclic_group(1), cyclic_group(1)) == "isomorphism-verified"


@pytest.mark.parametrize("spec,verdict", [("m108", "isomorphism-verified"),
                                          ("wr(S3,S3)", "isomorphism-verified")])
def test_identify_needs_no_derived_subgroup(monkeypatch, spec, verdict):
    """The search decides alone: no derived series is built on the way."""
    def refuse(G):
        raise AssertionError("derived_subgroup called")
    G = named_group(spec)
    monkeypatch.setattr(groups, "derived_subgroup", refuse)
    assert identify(fresh(G), fresh(G)) == verdict


def relabelled(G, rnd):
    """G with its points renamed by a random permutation."""
    n = G.action.n
    relabel = list(range(n))
    rnd.shuffle(relabel)
    relabel = tuple(relabel)
    inv = G.action.inv(relabel)
    gens = [G.action.mul(G.action.mul(inv, g), relabel) for g in G.generators]
    return FiniteGroup.generate(G.action, gens)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_isomorphic_relabeling_invariance(rnd):
    """Conjugating all generators by a random permutation keeps the type."""
    G = named_group("wr(S3,C2)")
    assert isomorphic(relabelled(G, rnd), G)


def test_isomorphic_m324_relabelled():
    G = named_group("m324")
    H = relabelled(G, random.Random(324))
    assert H.elements != G.elements
    assert isomorphic(H, G)


def order_class_keys(G):
    """The multiset of (element order, class size) over G's elements."""
    classes, table = conjugacy_classes(G), class_index_table(G)
    return sorted((G.element_order(e), classes[table[i]].size) for i, e in enumerate(G.elements))


def c4_by_c4():
    """C4 : C4, the second factor inverting the first, in its right regular
    action on the 16 pairs (i, j)."""
    def mul(x, y):
        return (x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 4
    elems = [(i, j) for i in range(4) for j in range(4)]
    index = {e: n for n, e in enumerate(elems)}
    gens = [tuple(index[mul(e, g)] for e in elems) for g in [(1, 0), (0, 1)]]
    return FiniteGroup.generate(PermAction(16), gens)


def test_isomorphic_rejects_equal_level_keys():
    q8 = named_group("quat(8)")
    regular = FiniteGroup.generate(
        PermAction(8), [tuple(q8.index[q8.mul(x, g)] for x in q8.elements) for g in q8.generators])
    G = direct_product(regular, cyclic_group(2))
    H = named_group("x(D8,C2)")
    assert not isomorphic(G, H)
    assert not isomorphic(H, G)
    # Q8 x C2 and C4 : C4 have the same (element order, class size) counts
    # (3 central involutions, 12 elements of order 4 in classes of size 2),
    # so the candidate lists alone cannot tell them apart; the search does
    K = c4_by_c4()
    assert K.order == 16
    assert order_class_keys(G) == order_class_keys(K)
    assert not isomorphic(G, K)
    assert not isomorphic(K, G)


@pytest.mark.parametrize("spec_g, spec_h", [("wr(S3,S3)", "x(S3,x(S3,x(S3,S3)))"),
                                            ("m324", "x(m108,C3)")])
def test_isomorphic_rejects_equal_order(spec_g, spec_h):
    G, H = named_group(spec_g), named_group(spec_h)
    assert G.order == H.order
    assert not isomorphic(G, H)
    assert not isomorphic(H, G)


@pytest.mark.parametrize("spec", ["wr(S3,S3)", "x(m324,C2)"])
def test_identify_relabelled_by_search(spec):
    """Orders 1,296 and 648 are decided by the search, with no order limit."""
    G = named_group(spec)
    H = relabelled(G, random.Random(G.order))
    assert H.elements != G.elements
    assert identify(H, G) == "isomorphism-verified"


def test_extend_iso_checks_partial_maps():
    C4 = cyclic_group(4)
    (g,) = C4.generators
    # g -> g^2 is a well-defined homomorphism of C4, but not injective
    assert not groups._extend_iso(C4, C4, [g], [C4.mul(g, g)])
    assert groups._extend_iso(C4, C4, [g], [C4.inv(g)])
    S3 = symmetric_group(3)
    t = next(e for e in S3.elements if S3.element_order(e) == 2)
    c = next(e for e in S3.elements if S3.element_order(e) == 3)
    # an involution sent to a 3-cycle: t t = 1 but c c != 1, not well defined
    assert not groups._extend_iso(S3, S3, [t], [c])
    # a partial map is judged on the subgroup its generators span
    assert groups._extend_iso(S3, S3, [c], [S3.mul(c, c)])


# -- induced outer automorphisms --------------------------------------------------------


def test_conjugation_permutation_needs_a_normalizer():
    G = symmetric_group(4)
    P = FiniteGroup.generate(G.action, [(1, 0, 2, 3)], cap=3)  # <(0 1)>
    # (2 3) centralizes P; (1 2) moves (0 1) to (0 2), outside P
    assert groups.conjugation_permutation(G.action, (0, 1, 3, 2), P) == (0, 1)
    with pytest.raises(DoesNotNormalize):
        groups.conjugation_permutation(G.action, (0, 2, 1, 3), P)


def test_induced_outer_abelian_trivial():
    P = cyclic_group(6)
    out = induced_outer(P.generators, P)
    assert out.order == 1


def test_induced_outer_q8_in_sl2_5():
    sl2 = named_group("SL2(5)")
    Q = FiniteGroup.generate(sl2.action, [(2, 0, 0, 3), (0, 4, 1, 0)], cap=9)
    N = normalizer(sl2, Q)
    out = induced_outer(N.generators, Q, action=sl2.action)
    # |N| = 24, image in Aut(Q8) has order 12, Inn has order 4
    assert N.order == 24
    assert out.order == 3


def test_induced_outer_one_coset_key_per_image(monkeypatch):
    calls = []
    coset_key = groups._coset_key

    def counted(*args):
        calls.append(args[-1])
        return coset_key(*args)

    monkeypatch.setattr(groups, "_coset_key", counted)
    G = named_group("wr(S3,S3)")
    P = sylow_subgroup(G, 3)
    N = normalizer(G, P)
    out = induced_outer(N.generators, P)
    # the outer group acts regularly, so it has one point per coset
    assert out.order > 1
    assert len(calls) == out.order * len(N.generators)


def ref_induced_outer(N_generators, P, action=None):
    """induced_outer with each coset keyed by its least full permutation tuple."""
    action = action or P.action
    perm_action = PermAction(P.order)
    pmul = perm_action.mul
    gen_perms = [groups.conjugation_permutation(action, g, P) for g in N_generators]
    inner = FiniteGroup.generate(
        perm_action, [groups.conjugation_permutation(action, g, P) for g in P.generators])

    def key(phi):
        return min(pmul(psi, phi) for psi in inner.elements)

    maps = [lambda rep, gp=gp: key(pmul(rep, gp)) for gp in gen_perms]
    cosets, out_gens = groups._orbit(min(inner.elements), maps)
    return FiniteGroup.generate(PermAction(len(cosets)), out_gens)


def q8_in_sl2_5(_model):
    sl2 = named_group("SL2(5)")
    Q = FiniteGroup.generate(sl2.action, [(2, 0, 0, 3), (0, 4, 1, 0)], cap=9)
    return normalizer(sl2, Q).generators, Q, sl2.action


def sylow3_of_wreath(_model):
    G = named_group("wr(S3,S3)")
    P = sylow_subgroup(G, 3)
    return normalizer(G, P).generators, P, None


def q_row_l0(model):
    # the explicit generators of N_K(Q), as in verify_k_radicals_l0
    from solweights.solmodel import _slotwise

    act = model.action
    n_gens = _slotwise(act, model.sl2_normalizer_gens,
                       [act.make(model.c, model.c, model.c), model.d, model.tau, model.rho])
    return n_gens, model.r0, act


@pytest.mark.parametrize("case,order", [(q8_in_sl2_5, 3), (sylow3_of_wreath, 4),
                                        (q_row_l0, 324)])
def test_induced_outer_matches_full_tuple_reference(sol0, case, order):
    n_gens, P, action = case(sol0)
    out = induced_outer(n_gens, P, action=action)
    ref = ref_induced_outer(n_gens, P, action=action)
    assert out.order == ref.order == order
    assert out.generators == ref.generators


# -- structural helpers -------------------------------------------------------------------


def test_derived_and_abelian_invariants():
    G = symmetric_group(4)
    D = derived_subgroup(G)
    assert D.order == 12
    assert abelian_invariants(quotient_group(G, D)) == (2,)
    assert abelian_invariants(named_group("x(C4,C4)")) == (4, 4)


@pytest.mark.parametrize("spec", ["S3", "D8", "quat(8)", "S4"])
def test_abelian_invariants_rejects_nonabelian_groups(spec):
    G = named_group(spec)
    assert not is_abelian(G)
    with pytest.raises(ValueError, match="not abelian"):
        abelian_invariants(G)


@pytest.mark.parametrize("spec,order", [("S3", 1), ("S4", 4), ("D8", 8), ("x(C2,S3)", 2)])
def test_two_core(spec, order):
    assert two_core(named_group(spec)).order == order


def test_class_index_table_consistent():
    G = named_group("S5")
    table = class_index_table(G)
    assert class_index_table(G) is table  # filled once, by conjugacy_classes
    classes = conjugacy_classes(G)
    for ci, c in enumerate(classes):
        assert table[G.index[c.rep]] == ci
    from collections import Counter

    counts = Counter(table)
    for ci, c in enumerate(classes):
        assert counts[ci] == c.size
    for g in G.generators:
        conj = conjugator(G.action, g)
        for i, e in enumerate(G.elements):
            assert table[G.index[conj(e)]] == table[i]


# -- subgroups of p-groups ----------------------------------------------------------------


def all_subgroups_reference(G):
    """Every subgroup of G by a frontier walk: each subgroup found is extended
    by each element outside it, and closures are kept once by element set."""
    seen = {tuple([G.identity]): G.subgroup([])}
    frontier = [G.subgroup([])]
    while frontier:
        new = []
        for H in frontier:
            for e in G.elements:
                if e in H.index:
                    continue
                ext = G.subgroup(list(H.generators) + [e])
                key = tuple(sorted(ext.elements))
                if key not in seen:
                    seen[key] = ext
                    new.append(ext)
        frontier = new
    return list(seen.values())


P_GROUPS = ["quat(8)", "D8", "D16", "quat(16)", "x(C2,D8)", "wr(C2,C2)", "x(C4,C4)",
            "sylow3(wr(S3,S3))", "sylow3(m324)"]


def p_group(case):
    if case.startswith("sylow3("):
        return sylow_subgroup(named_group(case[len("sylow3("):-1]), 3)
    return named_group(case)


def element_sets(groups_):
    return [frozenset(H.elements) for H in groups_]


@pytest.mark.parametrize("case", P_GROUPS)
def test_subgroups_match_frontier_walk(case):
    P = p_group(case)
    found = element_sets(subgroups(P))
    assert len(found) == len(set(found))  # each subgroup once
    assert set(found) == set(element_sets(all_subgroups_reference(P)))
    assert found[0] == frozenset(P.elements)


@pytest.mark.parametrize("case", P_GROUPS)
def test_subgroup_levels_are_the_subgroups_of_each_order(case):
    P = p_group(case)
    p = 3 if P.order % 3 == 0 else 2
    reference = all_subgroups_reference(P)
    levels = list(subgroup_levels(P))
    assert sum(map(len, levels)) == len(reference)
    for k, level in enumerate(levels):
        found = element_sets(level)
        assert len(found) == len(set(found))
        assert set(found) == {frozenset(H.elements) for H in reference
                              if H.order * p ** k == P.order}


@pytest.mark.parametrize("case", P_GROUPS)
def test_maximal_subgroups_are_the_index_p_subgroups(case):
    P = p_group(case)
    p = 3 if P.order % 3 == 0 else 2
    found = element_sets(maximal_subgroups(P))
    assert len(found) == len(set(found))
    assert set(found) == {frozenset(H.elements) for H in all_subgroups_reference(P)
                          if H.order * p == P.order}


@pytest.mark.parametrize("case", P_GROUPS)
def test_frattini_subgroup_is_meet_of_maximal_subgroups(case):
    P = p_group(case)
    meet = frozenset.intersection(*element_sets(maximal_subgroups(P)))
    assert set(frattini_subgroup(P).elements) == meet


@pytest.mark.parametrize("fn", [frattini_subgroup, maximal_subgroups, subgroups])
def test_subgroup_descent_rejects_non_p_groups(fn):
    with pytest.raises(ValueError, match="not a p-group"):
        fn(named_group("S4"))


def test_trivial_group_has_one_subgroup():
    P = named_group("1")
    assert maximal_subgroups(P) == []
    assert subgroups(P) == [P]
