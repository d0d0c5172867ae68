"""Concrete model of the 2-local group K and its Sylow 2-subgroup.

K is built from three copies of SL_2(q), q = 5^(2^l), glued by a coordinate
permutation group S3 and a simultaneous diagonal element, all modulo the
central sign; elements are the canonical central triples of
:class:`~solweights.groups.CentralTripleAction` over F_{q^2}, whose slot
matrices are integer codes; ``action.matrices`` decodes one for a report
(the s^2 check of ``spotcheck_l1``).  The Sylow 2-subgroup is S = R0<d, tau>
where R0 is the product of per-factor generalized quaternion Sylow
subgroups, d = [y, y, y]c is an involution inverting the torus, and tau
swaps the first two coordinates.

K itself is never enumerated (order about 1e7 at l = 0 and 1e13 at l = 1);
normalizer orders are certified by subgroup orbits against the closed-form
order of K, and every other normalizer is computed by ``groups.normalizer``
inside an enumerated container chosen by the projection-to-factors argument:
any element normalizing P also normalizes P meet L0, because L0 is normal
in K.

Each verification report is built by one :class:`_Report`; its checks are
dicts {check, l, expected, computed, pass} so the CLI can emit them directly.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .fusion_tables import load_tables, resolve_out_descriptor, weight_count
from .groups import (
    CentralTripleAction,
    FiniteGroup,
    abelian_invariants,
    cached_per_cap,
    center,
    centralizer_of_subgroup,
    class_index_table,
    conjugator,
    frattini_subgroup,
    identify,
    induced_outer,
    is_abelian,
    is_normal,
    isomorphic,
    maximal_subgroups,
    normalizer,
    quotient_group,
    subgroup_levels,
    subgroup_orbit,
    subgroups,
    sylow_subgroup,
    two_core,
)
from .util import check
from .zoo import named_group, quaternion_frame, sl2_group


@dataclass
class SolModel:
    level: int
    action: CentralTripleAction
    x: tuple                     # diag(omega, omega^-1) over F_{q^2}
    y: tuple                     # antidiagonal (0, -1; 1, 0)
    c: tuple                     # diag(z^-1, z), c^2 = x^-1
    k_generators: list[tuple]    # generators of K, never enumerated
    k_order: int
    sylow: FiniteGroup           # S = R0<d, tau>
    r0: FiniteGroup              # product of the per-factor Sylow subgroups
    torus: FiniteGroup           # T = <[x,1,1], [1,x,1], [c,c,c]>
    z_group: FiniteGroup         # <[-1,-1,1]> = <[1,1,-1]>
    u_group: FiniteGroup         # <[+-1,+-1,+-1]>
    e_group: FiniteGroup         # Omega_1(T)
    a_group: FiniteGroup         # E<d>
    d: tuple
    tau: tuple
    tau_prime: tuple
    rho: tuple                   # 3-cycle of the coordinate permutation group
    factor_q: list[FiniteGroup]       # Q_i, per-factor quaternion subgroups
    sl2_normalizer_gens: list[tuple]  # matrix generators of N_{SL2(q)}(Q8-part)


def _embed(action: CentralTripleAction, m: tuple, slot: int) -> tuple:
    one = action.mat.identity
    ms = [one, one, one]
    ms[slot] = m
    return action.make(ms[0], ms[1], ms[2])


def _slotwise(action: CentralTripleAction, slot_gens, extras=()) -> list[tuple]:
    """[g in slot i for i in 0, 1, 2 for g in slot_gens] + extras, the generators
    of a product-type subgroup of K; closures over them enumerate in this order."""
    return [_embed(action, g, i) for i in range(3) for g in slot_gens] + list(extras)


class _Report:
    """Builds one report {command, l, checks, *extra, elapsed_s}: every check
    record carries the level, and elapsed_s runs from creation to ``done``."""

    def __init__(self, command: str, level: int):
        self.head = {"command": command, "l": level, "checks": []}
        self.t0 = time.monotonic()

    def check(self, name: str, expected, computed) -> None:
        self.head["checks"].append(check(name, expected, computed, l=self.head["l"]))

    def done(self, **extra) -> dict:
        return {**self.head, **extra, "elapsed_s": round(time.monotonic() - self.t0, 3)}


@cached_per_cap
def build_sol_model(level: int) -> SolModel:
    """Build the marked model at level l in {0, 1}; results are memoized."""
    if level not in (0, 1):
        raise ValueError("model levels 0 and 1 only")
    frame = quaternion_frame(level)
    x, y, c = frame.x, frame.y, frame.c
    x_q = frame.q8.generators[0]  # x^(2^level)
    action = CentralTripleAction(frame.action.field)
    mat = action.mat

    tau = action.make(mat.identity, mat.identity, mat.identity, (1, 0, 2))
    rho = action.make(mat.identity, mat.identity, mat.identity, (1, 2, 0))
    cdiag = action.make(c, c, c)
    d = action.mul(action.make(y, y, y), cdiag)

    r0_gens = _slotwise(action, [x, y])
    r0 = FiniteGroup.generate(action, r0_gens, cap=2 ** (3 * level + 9), name="R0")
    sylow = FiniteGroup.generate(action, r0_gens + [d, tau],
                                 cap=2 ** (3 * level + 11), name=f"S(l={level})")

    torus = FiniteGroup.generate(
        action, [_embed(action, x, 0), _embed(action, x, 1), cdiag],
        cap=2 ** (3 * level + 7), name="T")

    minus = mat.mul(y, y)  # -identity
    z = action.make(minus, minus, mat.identity)
    z_group = FiniteGroup.generate(action, [z], cap=3, name="<z>")
    u_group = FiniteGroup.generate(
        action, [z, action.make(minus, mat.identity, mat.identity)], cap=5, name="U")

    e_members = [t for t in torus.elements if action.mul(t, t) == action.identity]
    e_group = FiniteGroup.from_elements(action, e_members, name="E")
    a_group = FiniteGroup.generate(action, list(e_group.generators) + [d],
                                   cap=33, name="A")

    q_i = [FiniteGroup.generate(action, [_embed(action, x_q, i), _embed(action, y, i)],
                                cap=9, name=f"Q{i + 1}") for i in range(3)]

    # generators of K: the three SL_2(q) factors (subfield encodings embed
    # unchanged), the diagonal, and the permutation part
    sl2 = sl2_group(level)
    k_gens = _slotwise(action, sl2.generators, [cdiag, tau, rho])
    q = sl2.action.field.size
    k_order = 6 * (q * (q - 1) * (q + 1)) ** 3

    return SolModel(
        level=level, action=action, x=x, y=y, c=c,
        k_generators=k_gens, k_order=k_order, sylow=sylow, r0=r0,
        torus=torus, z_group=z_group, u_group=u_group, e_group=e_group,
        a_group=a_group, d=d, tau=tau, tau_prime=action.mul(d, tau), rho=rho,
        factor_q=q_i,
        # per-factor normalizer of the Q8-part inside SL_2(q), by scan
        sl2_normalizer_gens=list(normalizer(sl2, frame.q8).generators),
    )


# ---------------------------------------------------------------------------
# quaternion frame verification
# ---------------------------------------------------------------------------


def _q8_subgroups(R: FiniteGroup) -> dict[frozenset, FiniteGroup]:
    """The Q8 subgroups of the 2-group R, keyed by element set: the
    subgroups of order 8 and exponent 4 with a unique involution (C8 is the
    only other group of order 8 with one involution)."""
    return {frozenset(H.elements): H for H in subgroups(R)
            if H.order == 8 and H.exponent() == 4
            and sum(1 for e in H.elements if H.element_order(e) == 2) == 1}


@cached_per_cap
def verify_quaternion_lemma(level: int) -> dict:
    """Exhaustive check of the quaternion frame structure at 1 <= l <= 3."""
    if not 1 <= level <= 3:
        raise ValueError("quaternion verification is for levels 1..3")
    rep = _Report("verify-quaternion", level)
    mat, x, y, c, R, Q = quaternion_frame(level)
    n = 2 ** (level + 2)
    rep.check("order of <x,y>", 2 ** (level + 3), R.order)

    # relations
    rel = (R.power(x, n) == mat.identity
           and R.power(y, 4) == mat.identity
           and R.power(x, n // 2) == mat.mul(y, y)
           and conjugator(mat, y)(x) == mat.inv(x))
    rep.check("defining relations", True, rel)
    rep.check("c^2 = x^-1", True, mat.mul(c, c) == mat.inv(x))

    # (a) normal forms x^i y^j
    powers = set(R.subgroup([x]).elements)
    forms = powers | {mat.mul(e, y) for e in powers}
    rep.check("normal forms x^i y^j", R.order, len(forms))

    # (b) elements outside <x> have order 4
    outside = [e for e in R.elements if e not in powers]
    rep.check("outside <x> all order 4", True, all(R.element_order(e) == 4 for e in outside))

    # (c) x^i y ~ x^j y iff i = j mod 2
    class_of = class_index_table(R)
    xy_class = [class_of[R.index[mat.mul(R.power(x, i), y)]] for i in range(n)]
    parity_ok = all((xy_class[i] == xy_class[j]) == ((i - j) % 2 == 0)
                    for i in range(n) for j in range(n))
    rep.check("x^i y fusion parity", True, parity_ok)

    # (d) exhaustive list of order-8 quaternion subgroups
    quats = _q8_subgroups(R)
    rep.check("number of Q8 subgroups", 2 ** level, len(quats))
    x_2l = Q.generators[0]
    predicted = set()
    for i in range(n):
        H = FiniteGroup.generate(mat, [x_2l, mat.mul(R.power(x, i), y)], cap=9)
        predicted.add(frozenset(H.elements))
    rep.check("Q8 subgroups are <x^(2^l), x^i y>", True, predicted == quats.keys())

    # (e) two conjugacy classes of length 2^(l-1)
    Qp = FiniteGroup.generate(mat, [x_2l, mat.mul(x, y)], cap=9)
    orbits = []
    for key, H in quats.items():
        if not any(key in o for o in orbits):
            orbits.append(subgroup_orbit(mat, R.generators, H).conjugates)
    lengths = sorted(len(o) for o in orbits)
    rep.check("two classes of length 2^(l-1)", [2 ** (level - 1)] * 2, lengths)
    q_key = frozenset(Q.elements)
    qp_key = frozenset(Qp.elements)
    split = any(q_key in o and qp_key not in o for o in orbits)
    rep.check("Q and Q' represent distinct classes", True, split)

    # (f) N_R(Q) = <Q, x^(2^(l-1))>
    NQ = normalizer(R, Q)
    x_half = R.power(x, 2 ** (level - 1))
    NQ_expected = FiniteGroup.generate(mat, list(Q.generators) + [x_half],
                                       cap=R.order + 1)
    rep.check("N_R(Q) = <Q, x^(2^(l-1))>", True, set(NQ.elements) == set(NQ_expected.elements))
    NQp = normalizer(R, Qp)
    NQp_expected = FiniteGroup.generate(mat, list(Qp.generators) + [x_half],
                                        cap=R.order + 1)
    rep.check("N_R(Q') = <Q', x^(2^(l-1))>", True, set(NQp.elements) == set(NQp_expected.elements))

    # conjugation by c swaps the two subgroup classes
    c_conj = frozenset(map(conjugator(mat, c), Q.elements))
    q_class = next(o for o in orbits if q_key in o)
    qp_class = next(o for o in orbits if qp_key in o)
    rep.check("c fuses the two classes", True, c_conj in qp_class and q_key in q_class)

    return rep.done()


# ---------------------------------------------------------------------------
# torus and elementary abelian sequence
# ---------------------------------------------------------------------------


@cached_per_cap
def verify_torus_sequence(level: int) -> dict:
    """Torus structure, the quotient type of S/T, the rank sequence, and the
    uniqueness counts (``_count_normal_four_subgroups``, ``_count_torus_copies``):
    exhaustive at l = 0, skipped with a flag in ``skipped`` at l = 1."""
    rep = _Report("verify-torus", level)
    model = build_sol_model(level)
    S, T = model.sylow, model.torus
    action = model.action
    skipped = []

    rep.check("|S| = 2^(10+3l)", 2 ** (10 + 3 * level), S.order)
    rep.check("|T| = (2^(l+2))^3", (2 ** (level + 2)) ** 3, T.order)
    rep.check("T normal in S", True, is_normal(S, T))
    rep.check("T homocyclic of rank 3", (2 ** (level + 2),) * 3, abelian_invariants(T))

    quotient = quotient_group(S, T)
    target = named_group("x(C2,D8)")
    rep.check("S/T order", 16, quotient.order)
    rep.check("S/T is C2 x D8", "isomorphism-verified", identify(quotient, target))

    by_d = conjugator(action, model.d)
    inverted = all(by_d(t) == action.inv(t) for t in T.elements)
    rep.check("d inverts T elementwise", True, inverted)

    rep.check("|Z| = 2", 2, model.z_group.order)
    rep.check("Z = Z(S)", True, set(center(S).elements) == set(model.z_group.elements))
    rep.check("|U| = 4", 4, model.u_group.order)
    rep.check("|E| = 8, E = Omega_1(T)", 8, model.e_group.order)
    rep.check("E elementary rank 3", (2, 2, 2), abelian_invariants(model.e_group))
    rep.check("|A| = 16", 16, model.a_group.order)
    rep.check("A elementary rank 4", (2, 2, 2, 2), abelian_invariants(model.a_group))
    rep.check("U normal in S", True, is_normal(S, model.u_group))
    chain = (model.z_group.is_subgroup_of(model.u_group)
             and model.u_group.is_subgroup_of(model.e_group)
             and model.e_group.is_subgroup_of(model.a_group))
    rep.check("Z < U < E < A", True, chain)

    if level == 0:
        rep.check("unique normal four subgroup", 1, _count_normal_four_subgroups(S))
        rep.check("unique homocyclic C4^3 subgroup", 1, _count_torus_copies(S, T, quotient))
    else:
        skipped.append("uniqueness searches (normal four subgroup, homocyclic "
                       "rank-3 subgroup) are exhaustive at l = 0 only")

    return rep.done(skipped=skipped)


def _count_normal_four_subgroups(S: FiniteGroup) -> int:
    """The number of Klein four subgroups of the 2-group S normal in S.

    Each lies in the second centre Z_2(S), the preimage of Z(S/Z(S)).  A
    normal subgroup N of order 4 meets Z(S), as every nontrivial normal
    subgroup of a p-group does, so N Z(S)/Z(S) has order at most 2.  It is
    normal in S/Z(S), and a normal subgroup of order 2 of a p-group is
    central, so N Z(S)/Z(S) <= Z(S/Z(S)), that is N <= Z_2(S).  So the
    count filters the subgroups of Z_2(S).
    """
    F = quotient_group(S, center(S))
    # F acts regularly on the cosets: the element of the coset Z g sends Z,
    # coset 0, to Z g
    central = {x[0] for x in center(F).elements}
    z2 = FiniteGroup.from_elements(
        S.action, [g for g, c in zip(S.elements, F.marks["coset_of"]) if c in central])
    return sum(1 for V in subgroups(z2)
               if V.order == 4 and V.exponent() == 2 and is_normal(S, V))


def _count_torus_copies(S: FiniteGroup, T: FiniteGroup, quotient: FiniteGroup) -> int:
    """The number of subgroups of S isomorphic to its abelian normal
    subgroup T, given quotient = S/T.

    Let H be such a subgroup.  HT/T is isomorphic to H/(H meet T), a quotient
    of H and so abelian, and it is a subgroup of S/T; so |T : H meet T| =
    |H : H meet T| <= b, the largest order of an abelian subgroup of S/T.
    H is abelian, so H <= C_S(H meet T).  So every such H is a subgroup of
    order |T| of C_S(A0) for some A0 <= T with |T : A0| <= b, and the count
    filters those levels of the subgroup descent of each container C_S(A0).
    """
    bound = max(Q.order for Q in subgroups(quotient) if is_abelian(Q))
    near = itertools.takewhile(lambda level: T.order <= bound * level[0].order,
                               subgroup_levels(T))
    centralizers = (centralizer_of_subgroup(S, A0) for level in near for A0 in level)
    containers = {frozenset(C.elements): C for C in centralizers}
    invariants = abelian_invariants(T)
    found = set()
    for C in containers.values():
        level = next(L for L in subgroup_levels(C) if L[0].order == T.order)
        found.update(frozenset(H.elements) for H in level
                     if is_abelian(H) and abelian_invariants(H) == invariants)
    return len(found)


# ---------------------------------------------------------------------------
# sectional rank
# ---------------------------------------------------------------------------


@cached_per_cap
def sectional_rank_certificate(level: int) -> dict:
    """Pin s(S) = 6 at l in {0, 1}.  The lower bound is the rank of the
    Frattini quotient R0/Phi(R0), an elementary abelian section of S; the
    upper bound is s(T) + s(S/T) = 3 + 3, since s(S) <= s(T) + s(S/T) for T
    normal in S, with s(S/T) from every subgroup of the order-16 quotient."""
    rep = _Report("sectional-rank", level)
    model = build_sol_model(level)

    frat_quot = quotient_group(model.r0, frattini_subgroup(model.r0))
    rep.check("R0 Frattini quotient rank", (2,) * 6, abelian_invariants(frat_quot))
    lower = len(abelian_invariants(frat_quot))

    t_rank = sum(1 for dk in abelian_invariants(model.torus) if dk % 2 == 0)
    rep.check("s(T) = 3", 3, t_rank)

    quotient = quotient_group(model.sylow, model.torus)
    qs_rank = _sectional_rank_exhaustive(quotient)
    rep.check("s(S/T) = 3 (exhaustive)", 3, qs_rank)

    upper = t_rank + qs_rank
    rep.check("6 <= s(S) <= 6", (6, 6), (lower, upper))
    return rep.done(lower=lower, upper=upper)


def bound_check(level: int) -> dict:
    """The weight count w(F, l) against the bound 2^s(S), with s(S) the
    upper bound of the sectional-rank certificate."""
    rank = sectional_rank_certificate(level)["upper"]
    w = weight_count("F", level)["total"]
    return {"l": level, "weight": w, "sectional_rank": rank, "bound": 2 ** rank,
            "pass": w <= 2 ** rank}


def _sectional_rank_exhaustive(G: FiniteGroup) -> int:
    """s(G), the largest rank of an elementary abelian 2-group section H/N
    (N normal in H <= G), as the largest log2 |T : Phi(T)| over the
    subgroups T of a Sylow 2-subgroup P of G.  Two facts make this
    exhaustive:

    * If T is a 2-group, N is normal in T and T/N is elementary abelian,
      then Phi(T) <= N: T/N is abelian of exponent 2, so N holds every
      commutator and every square, and Phi(T) = T' T^2.  And T/Phi(T) is
      itself elementary abelian, so T's largest such quotient has rank
      log2 |T : Phi(T)|.
    * Every elementary abelian 2-section H/N is isomorphic to T/(T meet N)
      for T a Sylow 2-subgroup of H: TN/N is a Sylow 2-subgroup of the
      2-group H/N, so TN = H and H/N = TN/N = T/(T meet N).  T is conjugate
      to a subgroup of P, and conjugation carries the section to an
      isomorphic one.
    """
    return max((T.order // frattini_subgroup(T).order).bit_length() - 1
               for T in subgroups(sylow_subgroup(G, 2)))


# ---------------------------------------------------------------------------
# K-side centric radical verification, l = 0
# ---------------------------------------------------------------------------


@cached_per_cap
def verify_k_radicals_l0() -> dict:
    """The five K-classes at l = 0 with their outer automorphism groups.

    N_K(Q) is built from explicit generators (the per-factor normalizers of
    the quaternion factors, the diagonal element, d, tau, and the 3-cycle)
    and its order certified by the orbit of Q under the K-generators against
    the closed-form |K|.  Every other normalizer lives inside N_K(Q) because
    the intersection with L0 of each candidate subgroup equals Q.
    """
    rep = _Report("verify-k-radicals", 0)
    model = build_sol_model(0)
    action = model.action

    rep.check("|K| closed form", 10_368_000, model.k_order)

    # N_K(Q) from explicit generators
    nk_q_gens = _slotwise(action, model.sl2_normalizer_gens,
                          [action.make(model.c, model.c, model.c), model.d, model.tau, model.rho])
    nk_q = FiniteGroup.generate(action, nk_q_gens, cap=100_000, name="N_K(Q)")
    rep.check("|N_K(Q)| from explicit generators", 82944, nk_q.order)

    cert = subgroup_orbit(action, model.k_generators, model.r0,
                          cap=1000, ambient_order=model.k_order)
    rep.check("orbit of Q under K", 125, cert.orbit_size)
    rep.check("|N_K(Q)| by orbit-stabilizer", 82944, cert.normalizer_order)

    # per-factor cross-check: orbit of Q8 inside SL_2(5)
    sl2 = sl2_group(0)
    factor_cert = subgroup_orbit(sl2.action, sl2.generators, quaternion_frame(0).q8,
                                 ambient_order=sl2.order)
    rep.check("per-factor orbit in SL2(5)", (5, 24),
              (factor_cert.orbit_size, factor_cert.normalizer_order))

    rows = [
        ("S", model.sylow),
        ("Q", model.r0),
        ("QR", FiniteGroup.generate(action, list(model.r0.generators) + [model.tau],
                                    cap=1024, name="QR")),
        ("QR*", FiniteGroup.generate(action, list(model.r0.generators) + [model.tau_prime],
                                     cap=1024, name="QR*")),
        ("C_S(U)", FiniteGroup.generate(action, list(model.r0.generators) + [model.d],
                                        cap=1024, name="C_S(U)")),
    ]

    # C_S(U) really is the centralizer of U in S
    csu_scan = centralizer_of_subgroup(model.sylow, model.u_group)
    rep.check("C_S(U) = Q<d>", True, set(csu_scan.elements) == set(rows[4][1].elements))

    # the expected Out_K(P) is the K column of the table the weight count reads
    out_k = {row.label: row.out["K"] for row in load_tables()["l0"]}
    out_orders = {}
    for label, P in rows:
        # container argument: P meet L0 = Q for every row, so N_K(P) <= N_K(Q)
        N = nk_q if P is model.r0 else normalizer(nk_q, P)
        out = induced_outer(N.generators, P, action=action)
        out_orders[label] = out.order
        target = resolve_out_descriptor(out_k[label])
        rep.check(f"|Out_K({label})|", target.order, out.order)
        rep.check(f"Out_K({label}) type", "isomorphism-verified", identify(out, target))
        if label == "Q":
            c_in_n = centralizer_of_subgroup(N, P).order
            rep.check("|C_N(Q)| = |Z(Q)| = 4", 4, c_in_n)
            rep.check("|Aut_K(Q)| = 324 * 64", 20736, N.order // c_in_n)

    return rep.done(out_orders=out_orders)


# ---------------------------------------------------------------------------
# l = 1 spot checks
# ---------------------------------------------------------------------------


@cached_per_cap
def spotcheck_l1() -> dict:
    """Selected l = 1 verifications.

    (i) the outer automorphism group of the product of the three quaternion
    subgroups against the wreath product of two symmetric groups of degree 3,
    from the product normalizer; (ii) the outer automorphism group of
    C_S(U); (iii) per-factor normalizer order 48 in SL_2(25) certified by
    orbit; (iv) the non-radical witness: an order-4 coset element whose
    extension satisfies the residual chain conditions yet has a normal
    2-subgroup of order 2 in its outer automorphism group.
    """
    rep = _Report("spotcheck", 1)
    model = build_sol_model(1)
    action = model.action
    mat = action.mat

    rep.check("|S| = 2^13", 8192, model.sylow.order)

    # (iii) per-factor certification in SL_2(25)
    sl2 = sl2_group(1)
    cert = subgroup_orbit(sl2.action, sl2.generators, quaternion_frame(1).q8,
                          cap=1000, ambient_order=sl2.order)
    rep.check("orbit of Q8 under SL2(25)", 325, cert.orbit_size)
    rep.check("|N_SL2(25)(Q8)| by orbit", 48, cert.normalizer_order)
    nq8 = FiniteGroup.generate(sl2.action, model.sl2_normalizer_gens, cap=64)
    rep.check("|N_SL2(25)(Q8)| by scan", 48, nq8.order)
    involutions = sum(1 for e in nq8.elements if nq8.element_order(e) == 2)
    rep.check("normalizer has a unique involution", 1, involutions)

    # (i) Out_K(Q1 Q2 Q3) from the product normalizer
    p0 = FiniteGroup.generate(
        action, [g for Q in model.factor_q for g in Q.generators],
        cap=300, name="Q1Q2Q3")
    rep.check("|Q1Q2Q3| = 2^8", 256, p0.order)
    # generators of N_K(Q1Q2Q3), for (i) and for the container of (iv)
    n_gens = _slotwise(action, model.sl2_normalizer_gens, [model.tau, model.rho])
    out = induced_outer(n_gens, p0, action=action)
    # the expected Out_K(P) is the K column of the table the weight count reads
    out_k = {row.label: row.out["K"] for row in load_tables()["k_lpos"]}
    target = resolve_out_descriptor(out_k["Q1Q2Q3"])
    rep.check("|Out_K(Q1Q2Q3)| = 1296", target.order, out.order)
    rep.check("Out_K(Q1Q2Q3) type", "isomorphism-verified", identify(out, target))

    # (ii) Out_K(C_S(U)) via the enumerated normalizer of R0
    csu = FiniteGroup.generate(action, list(model.r0.generators) + [model.d],
                               cap=5000, name="C_S(U)")
    rep.check("|C_S(U)| = 2^12", 4096, csu.order)
    n_r0_gens = _slotwise(action, [model.x, model.y],
                          [action.make(model.c, model.c, model.c), model.tau, model.rho])
    n_r0 = FiniteGroup.generate(action, n_r0_gens, cap=50_000, name="N_K(R0)")
    rep.check("|N_K(R0)| container", 24576, n_r0.order)
    n_csu = normalizer(n_r0, csu)
    out_csu = induced_outer(n_csu.generators, csu, action=action)
    target = resolve_out_descriptor(out_k["C_S(U)"])
    rep.check("|Out_K(C_S(U))| = 6", target.order, out_csu.order)
    rep.check("Out_K(C_S(U)) type", "isomorphism-verified", identify(out_csu, target))

    # (iv) the non-radical witness P = Q1 Q2 Q3 <s>, s = [x, 1, 1] tau
    s = action.mul(_embed(action, model.x, 0), model.tau)
    s2 = action.mul(s, s)
    rep.check("s^2 = [x, x, 1]", action.matrices(action.make(model.x, model.x, mat.identity)),
              action.matrices(s2))
    P = FiniteGroup.generate(action, list(p0.generators) + [s], cap=2048,
                             name="Q1Q2Q3<s>")
    rep.check("|P| = 1024, P/P0 cyclic of order 4", (1024, 4), (P.order, P.order // p0.order))

    # container chain: P0 is the only maximal subgroup of P meet L0
    # isomorphic to P0, so normalizers of P normalize P0
    p_plus = FiniteGroup.generate(action, list(p0.generators) + [s2], cap=1024)
    rep.check("|P meet L0| = 512", 512, p_plus.order)
    p0_like = sum(isomorphic(M, p0) for M in maximal_subgroups(p_plus))
    rep.check("P0 characteristic in P meet L0", 1, p0_like)

    m_container = FiniteGroup.generate(action, n_gens, cap=400_000, name="N_K(Q1Q2Q3)")
    rep.check("|N_K(Q1Q2Q3)| = 48^3/2 * 6", 331776, m_container.order)
    n_p = normalizer(m_container, P)
    out_p = induced_outer(n_p.generators, P, action=action)
    o2 = two_core(out_p)
    rep.check("witness |O_2(Out_K(P))| = 2 (not radical)", 2, o2.order)

    return rep.done(out_order_witness=out_p.order)
