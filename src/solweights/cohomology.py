"""Degree-1 and degree-2 mod-p cohomology certificates, p odd.

All computations go through restriction to an abelian or controlled Sylow
p-subgroup P:

* P cyclic: H^1(P) is one-dimensional, an automorphism t -> t^k acting by k,
  and the Bockstein identifies H^2 with H^1 as modules; the answer is the
  fixed space under the automorphisms induced by the normalizer.
* P elementary abelian of rank 2 or 3: H^2(P) decomposes as the Bockstein
  copy of the dual module plus the exterior square of the dual; the answer
  is the common fixed space under the induced action.
* Sylow C3 wr C3, normal: the wreath decomposition splits H^2 into base
  invariants, a middle term that vanishes when its cocycle and coboundary
  spaces have equal dimension, and the quotient's H^2; the outer action is then applied
  to each summand.
* A three-term spectral argument and a direct-product additivity rule
  handle the remaining composite groups.

Conversion to k-coefficients (k algebraically closed, characteristic 2) uses
injectivity of restriction on the p-primary part together with the exponent
of H^2 of the Sylow subgroup, giving an elementary abelian p-part of order
p^dim.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import asdict, dataclass, field

from .errors import Inconclusive, UnsupportedSylow, WrongSylowShape
from .groups import (
    FiniteGroup,
    _discrete_log_table,
    _greedy_generators,
    _prime_factors,
    abelian_invariants,
    conjugator,
    derived_subgroup,
    is_abelian,
    is_normal,
    maximal_subgroups,
    normalizer,
    quotient_group,
    sylow_subgroup,
)
from .linalg import (
    det,
    exterior_square,
    fixed_space,
    identity,
    mat_mul,
    nullspace,
    rank,
    rref,
    transpose,
)


@dataclass
class H2Certificate:
    group: str
    prime: int
    dim: int
    path: str
    invariant_vectors: list[list[int]] = field(default_factory=list)
    basis_labels: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class KxCertificate:
    group: str
    parts: dict[int, H2Certificate]
    conclusion: str  # "0" or "C3" etc.

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "parts": {p: c.to_json() for p, c in self.parts.items()},
            "kx": self.conclusion,
        }


# ---------------------------------------------------------------------------
# degree one
# ---------------------------------------------------------------------------


def is_p_perfect(G: FiniteGroup, p: int) -> bool:
    """True iff G/G' has order prime to p."""
    return (G.order // derived_subgroup(G).order) % p != 0


# ---------------------------------------------------------------------------
# module data for an abelian Sylow subgroup
# ---------------------------------------------------------------------------


def action_matrices(G: FiniteGroup, P: FiniteGroup, p: int,
                    basis: list[tuple] | None = None,
                    acting: list[tuple] | None = None) -> tuple[list, list[tuple]]:
    """Matrices over GF(p) of the conjugation action on the elementary
    abelian subgroup P, for generators of N_G(P) (or a supplied list)."""
    basis = basis or _greedy_generators(P)
    logs = _discrete_log_table(P, basis, p)
    if acting is None:
        N = normalizer(G, P)
        acting = list(N.generators)
    mats = []
    for g in acting:
        # columns are images of basis vectors
        cols = list(map(logs.get, map(conjugator(G.action, g), basis)))
        if None in cols:
            raise RuntimeError("conjugation does not preserve the subgroup")
        mats.append(transpose(cols))
    return mats, basis


def _dual(p: int, m: list[list[int]]) -> list[list[int]]:
    """Action on the dual module: transpose of the inverse (here we only need
    fixed spaces, so the transpose of the matrix works equally; we use the
    honest contragredient for definiteness)."""
    n = len(m)
    # invert over GF(p): [m | I] reduces to [I | m^-1]
    reduced, _ = rref(p, [list(row) + e for row, e in zip(m, identity(n))])
    return transpose([row[n:] for row in reduced])


def h2_module_matrices(p: int, mats: list[list[list[int]]], rank: int):
    """Per-generator action on H^2(V) = (Bockstein copy of V*) + Lambda^2 V*."""
    blocks = []
    for m in mats:
        dual = _dual(p, m)
        lam = exterior_square(p, dual, rank)
        blocks.append([row + [0] * len(lam) for row in dual]
                      + [[0] * rank + row for row in lam])
    return blocks


def _h2_basis_labels(rank: int) -> list[str]:
    labels = [f"y{i + 1}" for i in range(rank)]
    labels += [f"x{i + 1}x{j + 1}" for i in range(rank) for j in range(i + 1, rank)]
    return labels


# ---------------------------------------------------------------------------
# the abelian-Sylow path
# ---------------------------------------------------------------------------


def h2_abelian_sylow(G: FiniteGroup, p: int, name: str | None = None) -> H2Certificate:
    """H^2(G, F_p) for odd p when the Sylow p-subgroup is cyclic or
    elementary abelian of rank 2 or 3 (stable elements over an abelian
    Sylow subgroup)."""
    if p == 2:
        raise UnsupportedSylow("odd primes only")
    P = sylow_subgroup(G, p)
    gname = name or G.name or "group"
    marked = G.marks.get("v_basis")
    basis = list(marked) if marked and all(m in P.index for m in marked) else None
    if P.order == 1:
        return H2Certificate(gname, p, 0, "cyclic-sylow-vanishing",
                             notes=["trivial Sylow subgroup"])
    invs = abelian_invariants(P) if is_abelian(P) else None
    if invs is not None and len(invs) == 1:
        # cyclic case: automorphism t -> t^k acts on H^1 and H^2 by k
        N = normalizer(G, P)
        gen = P.generators[0] if P.generators else P.identity
        # the note lists the exponents over the generators from_elements
        # picks for N, so that it depends on N alone and not on how N was
        # built (N may be G)
        ks = {_coset_exponent(P, {P.identity}, gen, conjugator(G.action, g)(gen)) % p
              for g in FiniteGroup.from_elements(N.action, N.elements).generators}
        dim = 1 if all(k == 1 for k in ks) else 0
        cert = H2Certificate(gname, p, dim, "cyclic-sylow-vanishing",
                             notes=[f"normalizer power exponents mod {p}: {sorted(ks)}"])
        if dim:
            cert.invariant_vectors = [[1]]
            cert.basis_labels = ["y1"]
        return cert
    if invs is not None and all(d == p for d in invs) and len(invs) in (2, 3):
        rank = len(invs)
        mats, _ = action_matrices(G, P, p, basis=basis)
        blocks = h2_module_matrices(p, mats, rank)
        fixed = fixed_space(p, blocks, rank + rank * (rank - 1) // 2)
        cert = H2Certificate(gname, p, len(fixed), "elementary-abelian-invariants",
                             invariant_vectors=fixed,
                             basis_labels=_h2_basis_labels(rank))
        if rank == 2:
            dets = {det(p, m) for m in mats}
            in_sl = dets <= {1}
            cert.notes.append(f"determinant criterion: Aut_G(V) in SL(V) is {in_sl}")
            v_fixed = fixed_space(p, [_dual(p, m) for m in mats], rank)
            if not v_fixed and len(fixed) != (1 if in_sl else 0):
                raise RuntimeError("rank-2 fixed points disagree with determinant criterion")
        return cert
    raise UnsupportedSylow(
        f"Sylow {p}-subgroup of {gname} is neither cyclic nor elementary abelian of rank <= 3")


def _coset_exponent(G: FiniteGroup, N: Container[tuple], g: tuple, x: tuple) -> int:
    """The least k >= 0 with x in N g^k, for N given by its elements."""
    acc = G.identity
    for k in range(G.order):
        if G.mul(x, G.inv(acc)) in N:
            return k
        acc = G.mul(acc, g)
    raise RuntimeError("element lies in no coset N g^k")


# ---------------------------------------------------------------------------
# the wreath path (Sylow C3 wr C3, normal)
# ---------------------------------------------------------------------------


def h2_wreath_c3(G: FiniteGroup, name: str | None = None) -> H2Certificate:
    """H^2(G, F_3) when the Sylow 3-subgroup W = C3 wr C3 is normal in G.

    The decomposition of H^2(W) has three summands: invariants of the base
    rotation on H^2(base), a middle term H^1(C3, H^1(base)) that is checked
    to vanish by comparing dim ker(1 + rho + rho^2) with rank(rho - 1), and
    H^2 of the rotation quotient.  Fixed points of the outer 2-group action
    are then taken; on the quotient summand an outer element acting on the
    rotation by t -> t^k acts by k.
    """
    p = 3
    gname = name or G.name or "group"
    W = sylow_subgroup(G, p)
    if W.order != 81:
        raise WrongSylowShape(f"Sylow 3-subgroup of {gname} has order {W.order}, need 81")
    if not is_normal(G, W):
        raise WrongSylowShape("Sylow 3-subgroup is not normal")
    base = _wreath_base(G, W)
    if base is None:
        raise WrongSylowShape("no elementary abelian rank-3 base of index 3 found")
    rho = next(e for e in W.elements if e not in base.index)
    # outer generator transversal: generators of G modulo W, as elements
    outer = [g for g in G.generators if g not in W.index]

    acting = [rho] + outer
    mats, _ = action_matrices(G, base, p, basis=base.marks.get("v_basis"), acting=acting)
    blocks = h2_module_matrices(p, mats, rank=3)
    fixed_a = fixed_space(p, blocks, 6)

    # middle term: H^1(C3, H^1(base)); a 1-cocycle is determined by its value
    # on rho, which must lie in the kernel of the norm 1 + rho + rho^2, and
    # coboundaries are the image of rho - 1
    r = _dual(p, mats[0])
    r2 = mat_mul(p, r, r)
    eye = identity(3)
    norm = [[(eye[i][j] + r[i][j] + r2[i][j]) % p for j in range(3)] for i in range(3)]
    diff = [[(r[i][j] - eye[i][j]) % p for j in range(3)] for i in range(3)]
    cocycles, coboundaries = p ** len(nullspace(p, norm)), p ** rank(p, diff)
    if cocycles != coboundaries:
        raise Inconclusive("middle wreath term does not vanish")
    middle_dim = 0

    # quotient summand H^2(C3): outer element acts by its power exponent on
    # the rotation coset
    ks = [_coset_exponent(W, base.index, rho, conjugator(G.action, g)(rho)) % 3 for g in outer]
    quotient_dim = 1 if all(k == 1 for k in ks) else 0

    dim = len(fixed_a) + middle_dim + quotient_dim
    cert = H2Certificate(gname, p, dim, "wreath-nakaoka",
                         invariant_vectors=fixed_a,
                         basis_labels=_h2_basis_labels(3))
    cert.notes.append(f"summands: base-invariants {len(fixed_a)}, middle {middle_dim}, "
                      f"quotient {quotient_dim}")
    cert.notes.append(f"middle-term cocycles {cocycles}, coboundaries {coboundaries}")
    cert.notes.append(f"outer rotation exponents: {ks}")
    return cert


def _wreath_base(G: FiniteGroup, W: FiniteGroup) -> FiniteGroup | None:
    """The elementary abelian rank-3 subgroup of index 3 in W (the base):
    spanned by G's ``v_basis`` mark when that gives order 27, else the
    elementary abelian member of W's maximal subgroups.  An abelian W, such
    as C3^4, is no wreath product and has no base."""
    marks = G.marks.get("v_basis")
    if marks:
        base = FiniteGroup.generate(W.action, list(marks), cap=28,
                                    marks={"v_basis": list(marks)})
        if base.order == 27:
            return base
    if is_abelian(W):
        return None
    return next((M for M in maximal_subgroups(W) if is_abelian(M) and M.exponent() == 3),
                None)


# ---------------------------------------------------------------------------
# three-term vanishing and direct products
# ---------------------------------------------------------------------------


def three_term_vanishing(G: FiniteGroup, N: FiniteGroup, p: int,
                         name: str | None = None) -> H2Certificate:
    """Certify H^2(G, F_p) = 0 from a normal subgroup N when the three
    relevant spectral terms all vanish:

        H^0(G/N, H^2(N)) = 0,  H^1(G/N, H^1(N)) = 0,  H^2(G/N, F_p) = 0.

    Raises Inconclusive when some term is nonzero or not computable.
    """
    gname = name or G.name or "group"
    if not is_normal(G, N):
        raise Inconclusive("given subgroup is not normal")
    h2n = h2_dim(N, p, name="base")
    if h2n.dim != 0:
        raise Inconclusive(f"H^2 of the base is nonzero (dim {h2n.dim})")
    if not is_p_perfect(N, p):
        raise Inconclusive("base is not p-perfect, H^1 term not certified zero")
    Q = quotient_group(G, N)
    h2q = h2_abelian_sylow(Q, p, name="quotient")  # depth-1 recursion only
    if h2q.dim != 0:
        raise Inconclusive(f"H^2 of the quotient is nonzero (dim {h2q.dim})")
    cert = H2Certificate(gname, p, 0, "three-term-vanishing")
    cert.notes.append("terms: H0(Q,H2(N))=0 (coefficients vanish), "
                      "H1(Q,H1(N))=0 (base p-perfect), H2(Q)=0")
    return cert


def h2_kunneth(G: FiniteGroup, p: int, name: str | None = None) -> H2Certificate:
    """H^2 of a marked direct product of p-perfect factors, by additivity."""
    gname = name or G.name or "group"
    factor_gens = G.marks.get("factor_gens")
    if not factor_gens:
        raise Inconclusive("no direct-product marks available")
    total = 0
    for gens in factor_gens:
        factor = FiniteGroup.generate(G.action, gens, cap=G.order + 1)
        if not is_p_perfect(factor, p):
            raise Inconclusive("factor is not p-perfect")
        total += h2_dim(factor, p, name="factor").dim
    cert = H2Certificate(gname, p, total, "kunneth")
    return cert


# ---------------------------------------------------------------------------
# dispatcher and k^x conversion
# ---------------------------------------------------------------------------


def h2_dim(G: FiniteGroup, p: int, name: str | None = None) -> H2Certificate:
    """H^2(G, F_p) by the first applicable path, for an odd prime p."""
    gname = name or G.name or "group"
    if p < 3 or _prime_factors(p) != [p]:
        raise UnsupportedSylow(f"p must be an odd prime, got {p}")
    try:
        return h2_abelian_sylow(G, p, name=gname)
    except UnsupportedSylow:
        pass
    if p == 3 and sylow_subgroup(G, p).order == 81:
        try:
            return h2_wreath_c3(G, name=gname)
        except WrongSylowShape:
            pass
    base_gens = G.marks.get("base_gens")
    if base_gens:
        base = FiniteGroup.generate(G.action, list(base_gens), cap=G.order + 1)
        try:
            return three_term_vanishing(G, base, p, name=gname)
        except Inconclusive:
            pass
    if G.marks.get("factor_gens"):
        return h2_kunneth(G, p, name=gname)
    raise UnsupportedSylow(f"no implemented path for {gname} at p = {p}")


def odd_h2_kx(G: FiniteGroup, name: str | None = None) -> KxCertificate:
    """The odd part of H^2(G, k^x) for k algebraically closed of
    characteristic 2, prime by prime.

    A nonzero F_p-dimension converts to a p-part of order p^dim: restriction
    to a Sylow p-subgroup is injective on the p-primary part (the index is
    coprime to p), and H^2 of a cyclic Sylow subgroup vanishes while an
    elementary abelian one has exponent p, bounding the exponent by p.
    """
    gname = name or G.name or "group"
    parts: dict[int, H2Certificate] = {}
    factors = []
    for p in (q for q in _prime_factors(G.order) if q != 2):
        cert = h2_dim(G, p, name=gname)
        if cert.dim:
            P = sylow_subgroup(G, p)
            if is_abelian(P) and P.exponent() == p:
                cert.notes.append(
                    f"k^x conversion: restriction to the Sylow {p}-subgroup is "
                    f"injective on the {p}-part (index {G.order // P.order} coprime "
                    f"to {p}); H^2 of the elementary abelian Sylow subgroup has "
                    f"exponent {p}, so the {p}-part is (C{p})^{cert.dim}")
            else:
                cert.notes.append(
                    "k^x conversion: exponent bound unavailable for this Sylow shape")
                raise UnsupportedSylow(
                    f"cannot bound the exponent of the {p}-part for {gname}")
            factors.append((p, cert.dim))
        parts[p] = cert
    conclusion = " x ".join(f"C{p}" for p, d in factors for _ in range(d)) or "0"
    return KxCertificate(group=gname, parts=parts, conclusion=conclusion)
