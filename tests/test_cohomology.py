import itertools

import pytest

from solweights.errors import Inconclusive, UnsupportedSylow
from solweights.cohomology import (
    _dual,
    _wreath_base,
    action_matrices,
    h2_abelian_sylow,
    h2_dim,
    h2_kunneth,
    h2_wreath_c3,
    is_p_perfect,
    odd_h2_kx,
    three_term_vanishing,
)
from solweights.groups import FiniteGroup, PermAction, normalizer, sylow_subgroup
from solweights.linalg import exterior_square, fixed_space
from solweights.zoo import named_group


# -- degree one ---------------------------------------------------------------


def test_p_perfect():
    assert is_p_perfect(named_group("A7"), 3)
    assert is_p_perfect(named_group("S3"), 3)
    assert not is_p_perfect(named_group("C3"), 3)


@pytest.mark.parametrize("p", [-3, 0, 1, 2, 4, 6, 9])
def test_h2_dim_rejects_non_odd_primes(p):
    with pytest.raises(UnsupportedSylow, match="odd prime"):
        h2_dim(named_group("S5"), p)


# -- dimension zero at p = 3 ----------------------------------------------------


@pytest.mark.parametrize("spec,path", [
    ("S6", "elementary-abelian-invariants"),
    ("S7", "elementary-abelian-invariants"),
    ("GL(4,2)", "elementary-abelian-invariants"),
    ("x(S3,S3)", "elementary-abelian-invariants"),
    ("wr(S3,C2)", "elementary-abelian-invariants"),
    ("S5", "cyclic-sylow-vanishing"),
    ("GL(3,2)", "cyclic-sylow-vanishing"),
    ("wr(S3,S3)", "three-term-vanishing"),
    ("m324", "wreath-nakaoka"),
])
def test_vanishing_cases_p3(spec, path):
    cert = h2_dim(named_group(spec), 3, name=spec)
    assert cert.dim == 0
    assert cert.path == path


# -- dimension one cases ----------------------------------------------------------


def test_a7_dimension_one():
    cert = h2_dim(named_group("A7"), 3, name="A7")
    assert cert.dim == 1
    assert cert.path == "elementary-abelian-invariants"


def test_dih_dimension_one():
    cert = h2_dim(named_group("dih(C3xC3)"), 3, name="dih")
    assert cert.dim == 1


def test_m108_invariant_vector_exact():
    cert = h2_dim(named_group("m108"), 3, name="m108")
    assert cert.dim == 1
    assert cert.basis_labels == ["y1", "y2", "y3", "x1x2", "x1x3", "x2x3"]
    assert cert.invariant_vectors == [[0, 0, 0, 0, 1, 1]]  # x1x3 + x2x3


# -- the wreath decomposition -------------------------------------------------------


def test_wreath_trivial_outer_dimension_three():
    cert = h2_wreath_c3(named_group("wr(C3,C3)"), name="wr(C3,C3)")
    assert cert.dim == 3
    assert "base-invariants 2, middle 0, quotient 1" in cert.notes[0]


def test_wreath_summand_oracle():
    """Independent fixed-point computation on the explicit modules.

    The rotation acts on the rank-3 dual by the inverse-permutation matrix;
    its fixed space is one-dimensional, and the induced action on the
    exterior square fixes another line, so the base summand has dimension 2;
    with trivial outer action the quotient summand adds one more.
    """
    p = 3
    rot = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    dual = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    v_fixed = fixed_space(p, [dual], 3)
    lam_fixed = fixed_space(p, [exterior_square(p, dual, 3)], 3)
    assert len(v_fixed) == 1 and len(lam_fixed) == 1
    assert len(v_fixed) + len(lam_fixed) + 1 == 3


def test_wreath_middle_term_vanishes():
    cert = h2_wreath_c3(named_group("m324"), name="m324")
    assert "cocycles 9, coboundaries 9" in cert.notes[1]
    assert cert.dim == 0


@pytest.mark.parametrize("spec", ["m324", "wr(C3,C3)"])
def test_wreath_middle_counts_match_enumeration(spec):
    """The ranks in the certificate agree with listing all 27 values f(rho):
    1-cocycles satisfy the norm condition (1 + rho + rho^2) f = 0, and the
    coboundaries are the vectors (rho - 1) v."""
    G = named_group(spec)
    W = sylow_subgroup(G, 3)
    base = _wreath_base(G, W)
    rho = next(e for e in W.elements if e not in base.index)
    mats, _ = action_matrices(G, base, 3, basis=base.marks.get("v_basis"), acting=[rho])
    r = _dual(3, mats[0])

    def act(v):
        return tuple(sum(r[i][j] * v[j] for j in range(3)) % 3 for i in range(3))

    vectors = list(itertools.product(range(3), repeat=3))
    cocycles = sum(1 for v in vectors
                   if all((a + b + c) % 3 == 0 for a, b, c in zip(v, act(v), act(act(v)))))
    coboundaries = len({tuple((a - b) % 3 for a, b in zip(act(v), v)) for v in vectors})
    cert = h2_wreath_c3(G, name=spec)
    assert cert.notes[1] == f"middle-term cocycles {cocycles}, coboundaries {coboundaries}"


def test_wreath_wrong_shape():
    from solweights.errors import WrongSylowShape

    with pytest.raises(WrongSylowShape):
        h2_wreath_c3(named_group("S3"), name="S3")


# -- three-term and Kunneth ------------------------------------------------------------


def test_three_term_s3_wr_s3():
    G = named_group("wr(S3,S3)")
    base = FiniteGroup.generate(G.action, G.marks["base_gens"], cap=G.order)
    assert base.order == 216
    cert = three_term_vanishing(G, base, 3, name="wr(S3,S3)")
    assert cert.dim == 0


def test_three_term_degenerate_product():
    G = named_group("x(S3,S3)")
    N = FiniteGroup.generate(G.action, G.marks["factor_gens"][0], cap=40)
    cert = three_term_vanishing(G, N, 3)
    assert cert.dim == 0


def test_three_term_inconclusive_on_nonzero_base():
    G = named_group("m108")
    sylow = sylow_subgroup(G, 3)
    with pytest.raises(Inconclusive):
        three_term_vanishing(G, sylow, 3)


@pytest.mark.parametrize("spec", ["x(C3,x(C3,x(C3,C3)))", "x(C9,C3)", "x(C9,C9)"])
def test_abelian_sylow_outside_both_paths_is_inconclusive(spec):
    """Abelian Sylow 3-subgroups that are neither cyclic nor elementary
    abelian of rank <= 3 fall through every path to the Kunneth rule, whose
    factors are not 3-perfect."""
    with pytest.raises(Inconclusive, match="not p-perfect"):
        h2_dim(named_group(spec), 3)


def test_kunneth_consistency():
    for spec in ("x(S3,S3)", "x(S3,x(S3,S3))"):
        G = named_group(spec)
        assert h2_kunneth(G, 3).dim == h2_dim(G, 3).dim == 0


# -- rank-2 determinant criterion agreement ----------------------------------------------


@pytest.mark.parametrize("spec", ["S6", "S7", "GL(4,2)", "x(S3,S3)",
                                  "wr(S3,C2)", "A7", "dih(C3xC3)"])
def test_rank2_det_criterion_agreement(spec):
    G = named_group(spec)
    P = sylow_subgroup(G, 3)
    if P.order != 9:
        pytest.skip("rank-2 instances only")
    cert = h2_abelian_sylow(G, 3, name=spec)
    note = next(n for n in cert.notes if "determinant criterion" in n)
    in_sl = note.endswith("True")
    assert cert.dim == (1 if in_sl else 0)


def test_fixed_points_independent_of_generating_set():
    G = named_group("m108")
    P = sylow_subgroup(G, 3)
    N = normalizer(G, P)
    base = h2_abelian_sylow(G, 3).dim
    # regenerate the normalizer from shuffled element lists
    import random

    rng = random.Random(23)
    for _ in range(3):
        elems = list(N.elements)
        rng.shuffle(elems)
        N2 = FiniteGroup.from_elements(G.action, elems)
        from solweights.cohomology import action_matrices, h2_module_matrices
        from solweights.linalg import fixed_space as fs

        mats, _ = action_matrices(G, P, 3, basis=G.marks["v_basis"],
                                  acting=list(N2.generators))
        blocks = h2_module_matrices(3, mats, 3)
        assert len(fs(3, blocks, 6)) == base


# -- p >= 5 and the kx conversion -----------------------------------------------------------


@pytest.mark.parametrize("spec,p", [
    ("S5", 5), ("S6", 5), ("S7", 5), ("S7", 7), ("A7", 5), ("A7", 7),
    ("GL(3,2)", 7), ("GL(4,2)", 5), ("GL(4,2)", 7),
])
def test_large_primes_cyclic_vanishing(spec, p):
    cert = h2_dim(named_group(spec), p, name=spec)
    assert cert.dim == 0
    assert cert.path == "cyclic-sylow-vanishing"


def test_kx_trivial_for_lpos_out_groups():
    for spec in ("wr(S3,S3)", "x(wr(S3,C2),S3)", "wr(S3,C2)", "x(S3,S3)",
                 "S3", "S5", "S6", "S7", "GL(3,2)", "GL(4,2)", "1"):
        assert odd_h2_kx(named_group(spec), name=spec).conclusion == "0"


def test_kx_c3_cases():
    assert odd_h2_kx(named_group("dih(C3xC3)")).conclusion == "C3"
    assert odd_h2_kx(named_group("A7")).conclusion == "C3"
    cert = odd_h2_kx(named_group("dih(C3xC3)"))
    note = cert.parts[3].notes[-1]
    assert "exponent" in note and "injective" in note


def test_cyclic_path_nontrivial_when_not_p_perfect():
    cert = h2_abelian_sylow(named_group("C3"), 3, name="C3")
    assert cert.dim == 1


@pytest.mark.parametrize("gens", [None, [(1, 0, 2), (1, 2, 0)], [(1, 2, 0), (0, 2, 1)]])
def test_cyclic_note_depends_on_the_normalizer_alone(gens):
    # C3 is normal in S3, so N_S3(C3) is S3 itself, with S3's own generators
    # (over which the exponents are [1, 2]); the note takes the exponents
    # over the greedy generators of N's sorted element set instead
    G = named_group("S3") if gens is None else FiniteGroup.generate(PermAction(3), gens)
    assert h2_dim(G, 3).notes == ["normalizer power exponents mod 3: [2]"]
