import random

import pytest

from solweights.errors import CyclicInput, MissingCertificate, NotAFunctor
from solweights.fusion_tables import load_hasse
from solweights.poset_limits import (
    ChainFunctor,
    build_chain_poset,
    cochain_cohomology,
    constant_functor,
    coboundary_matrix,
    lim_dimension,
    vanishing_criteria,
    verify_lim_A2,
)
from solweights.zoo import named_group


def test_two_element_chain_poset():
    poset = build_chain_poset(["a", "b"], [("a", "b")])
    assert set(poset.all_chains()) == {("a",), ("b",), ("a", "b")}


def test_restricted_support_chains():
    poset = build_chain_poset(["Q", "R", "QR"], [("Q", "QR"), ("R", "QR")])
    assert set(poset.all_chains()) == {
        ("Q",), ("R",), ("QR",), ("Q", "QR"), ("R", "QR")}


def test_cyclic_input_rejected():
    with pytest.raises(CyclicInput):
        build_chain_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_three_cycle_rejected():
    with pytest.raises(CyclicInput, match="cycle through a"):
        build_chain_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


@pytest.mark.parametrize("tag", ["l0", "lpos"])
def test_order_is_reachability(tag):
    """``less`` is the transitive closure of the covers (Warshall)."""
    diagram = load_hasse(tag)
    labels = [n for n, _ in diagram.nodes]
    reach = {lab: set() for lab in labels}
    for low, high in diagram.edges:
        reach[low].add(high)
    for mid in labels:
        for lab in labels:
            if mid in reach[lab]:
                reach[lab] |= reach[mid]
    assert build_chain_poset(labels, diagram.edges).less == reach


def test_every_class_is_a_singleton_chain():
    diagram = load_hasse("l0")
    poset = build_chain_poset([n for n, _ in diagram.nodes], diagram.edges)
    labels = {c[0] for c in poset.chains_by_length[0]}
    assert labels == {n for n, _ in diagram.nodes}


def test_constant_functor_h0_unique_min():
    poset = build_chain_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    dims = cochain_cohomology(constant_functor(poset, 3), 1)
    assert dims[0] == 1


@pytest.mark.parametrize("tag", ["l0", "lpos"])
def test_constant_functor_on_figures(tag):
    diagram = load_hasse(tag)
    poset = build_chain_poset([n for n, _ in diagram.nodes], diagram.edges,
                              max_length=3)
    dims = cochain_cohomology(constant_functor(poset, 3), 2)
    assert dims[0] == 1  # both figures are connected


def test_zero_on_singletons_gives_zero_limit():
    poset = build_chain_poset(["a", "b"], [("a", "b")])
    F = ChainFunctor(p=3, poset=poset, values={("a", "b"): 1})
    assert vanishing_criteria(F) == "a"
    assert lim_dimension(F) == 0


def test_delta_squared_zero_everywhere():
    for tag in ("l0", "lpos"):
        diagram = load_hasse(tag)
        poset = build_chain_poset([n for n, _ in diagram.nodes], diagram.edges,
                                  max_length=3)
        F = constant_functor(poset, 3)
        # cochain_cohomology raises NotAFunctor if any composite fails
        cochain_cohomology(F, 2)


def test_missing_face_map_detected():
    poset = build_chain_poset(["a", "b"], [("a", "b")])
    F = ChainFunctor(p=3, poset=poset, values={("a",): 1, ("a", "b"): 1})
    with pytest.raises(MissingCertificate):
        coboundary_matrix(F, 0)


def _line_functor(broken: tuple, zero: tuple = ()) -> ChainFunctor:
    """The constant functor on a < b < c with the face map ``broken`` scaled
    by 2 and the chains in ``zero`` set to dimension zero."""
    poset = build_chain_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    F = constant_functor(poset, 3)
    F.face_maps[broken] = [[2]]
    for chain in zero:
        F.values[chain] = 0
    return F


@pytest.mark.parametrize("x,face", [("a", ("a", "b")), ("b", ("b", "c")), ("c", ("a", "c"))],
                         ids=["a", "b", "c"])
def test_functoriality_violation_detected(x, face):
    F = _line_functor(((x,), face))
    with pytest.raises(NotAFunctor, match=rf"disagree from \('{x}',\)"):
        F.validate()


def test_functoriality_skips_zero_dimensional_class():
    F = _line_functor((("a",), ("a", "b")), zero=(("a",),))
    F.validate()


def test_functoriality_through_zero_dimensional_face():
    """With F(a, b) = 0 the composite (b,) -> (a, b) -> (a, b, c) is the zero
    1 x 1 map, and so is (b,) -> (b, c) -> (a, b, c) once (b,) -> (b, c) is 0."""
    poset = build_chain_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    F = constant_functor(poset, 3)
    F.values[("a", "b")] = 0
    F.face_maps[(("a",), ("a", "c"))] = [[0]]
    F.face_maps[(("b",), ("b", "c"))] = [[0]]
    F.validate()


def test_criterion_b_toy():
    poset = build_chain_poset(["Q", "R", "QR"], [("Q", "QR"), ("R", "QR")])
    eye = [[1]]
    F = ChainFunctor(p=3, poset=poset,
                     values={("R",): 1, ("QR",): 1, ("R", "QR"): 1, ("Q", "QR"): 1},
                     face_maps={(("R",), ("R", "QR")): eye,
                                (("QR",), ("R", "QR")): eye,
                                (("QR",), ("Q", "QR")): eye})
    assert vanishing_criteria(F) == "b"
    assert lim_dimension(F) == 0


def test_criterion_inconclusive_single_nonzero():
    poset = build_chain_poset(["a", "b"], [("a", "b")])
    F = ChainFunctor(p=3, poset=poset, values={("a",): 1},
                     face_maps={(("a",), ("a", "b")): [[0]]})
    assert vanishing_criteria(F) is None
    assert lim_dimension(F) == 1  # genuinely nonzero without constraints


def test_results_independent_of_label_order():
    labels = ["Q", "R", "QR"]
    edges = [("Q", "QR"), ("R", "QR")]
    rng = random.Random(2)
    reference = None
    for _ in range(4):
        rng.shuffle(labels)
        rng.shuffle(edges)
        poset = build_chain_poset(list(labels), list(edges))
        F = constant_functor(poset, 3)
        dims = cochain_cohomology(F, 1)
        if reference is None:
            reference = dims
        assert dims == reference


# -- the main verification --------------------------------------------------------


def test_lim_l1_criterion_a():
    rep = verify_lim_A2(1)
    assert rep["pass"]
    assert rep["criterion"] == "a"
    assert rep["lim_dim"] == 0
    assert all(v == "0" for v in rep["singleton_values"].values())


def test_lim_l0_criterion_b():
    rep = verify_lim_A2(0)
    assert rep["pass"]
    assert rep["criterion"] == "b"
    assert rep["lim_dim"] == 0
    assert rep["cochain_h0"] == 0
    assert rep["nonzero_singletons"] == ["QR", "R"]
    facts = rep["facts"]
    assert facts["normalizer_order"] == 72
    assert facts["index"] == 35 and facts["index_coprime_to_3"]
    assert facts["contains_sylow_3"]
    assert facts["h2_A7_dim"] == 1 and facts["h2_normalizer_dim"] == 1


def test_lim_l0_repeat_call_leaves_a7_memo_unchanged():
    a7 = named_group("A7")
    first = verify_lim_A2(0)
    size = len(a7._memo)
    assert verify_lim_A2(0) == first
    assert len(a7._memo) == size
