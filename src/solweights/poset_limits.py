"""Cochain complex of a functor on a chain poset; limits and vanishing.

Chains are strictly increasing sequences in a class poset given by cover
edges; a chain of n+1 subgroup classes has length n, and chain classes are
identified with their class-label sequences.  A functor assigns an
F_p-dimension to every chain class and a matrix to every codimension-one
face inclusion; the coboundary is the alternating sum over face maps, and
cohomology is computed by exact rank over GF(p).

Two vanishing shortcuts avoid assembling a fully specified functor: (a) all
length-zero values vanish; (b) exactly two nonzero singletons sit under a
common upper bound with injective maps of equal image, and a third class
pins the upper value down.  Both agree with the kernel computation whenever
the full data is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .cohomology import h2_dim, odd_h2_kx
from .errors import CyclicInput, MissingCertificate, NotAFunctor
from .fusion_tables import load_hasse, load_tables, resolve_out_descriptor
from .groups import FiniteGroup, cached_per_cap, normalizer, sylow_subgroup
from .linalg import mat_mul, rank
from .zoo import named_group

Chain = tuple[str, ...]


@dataclass
class ChainPoset:
    labels: list[str]
    less: dict[str, set[str]]           # strict order, transitively closed
    chains_by_length: list[list[Chain]]

    def all_chains(self) -> list[Chain]:
        return [c for group in self.chains_by_length for c in group]

    def chains(self, n: int) -> list[Chain]:
        """The chains of length n (none beyond the longest)."""
        return self.chains_by_length[n] if n < len(self.chains_by_length) else []


def build_chain_poset(labels: list[str], cover_edges: list[tuple[str, str]],
                      max_length: int | None = None) -> ChainPoset:
    """All strictly increasing chains in the poset generated by the covers."""
    adjacency: dict[str, set[str]] = {lab: set() for lab in labels}
    for low, high in cover_edges:
        if low not in adjacency or high not in adjacency:
            raise CyclicInput(f"edge endpoint not among labels: {low}->{high}")
        adjacency[low].add(high)
    # the labels above lab are those reachable from its covers; a cycle would
    # put a label above itself
    less: dict[str, set[str]] = {}
    for lab in labels:
        above, stack = set(), list(adjacency[lab])
        while stack:
            upper = stack.pop()
            if upper not in above:
                above.add(upper)
                stack.extend(adjacency[upper])
        if lab in above:
            raise CyclicInput(f"cover relation has a cycle through {lab}")
        less[lab] = above
    chains_by_length: list[list[Chain]] = [[(lab,) for lab in labels]]
    while True:
        if max_length is not None and len(chains_by_length) > max_length:
            break
        previous = chains_by_length[-1]
        extended = []
        for chain in previous:
            top = chain[-1]
            for upper in sorted(less[top]):
                extended.append(chain + (upper,))
        if not extended:
            break
        chains_by_length.append(extended)
    return ChainPoset(labels=list(labels), less=less,
                      chains_by_length=chains_by_length)


@dataclass
class ChainFunctor:
    """F_p-valued functor data on the chains of a poset.

    ``values`` maps a chain to its dimension (missing means zero) and
    ``face_maps`` maps (face, chain) to a matrix with dim F(chain) rows and
    dim F(face) columns.  Maps between zero spaces may be omitted.
    """

    p: int
    poset: ChainPoset
    values: dict[Chain, int] = field(default_factory=dict)
    face_maps: dict[tuple[Chain, Chain], list[list[int]]] = field(default_factory=dict)

    def dim(self, chain: Chain) -> int:
        return self.values.get(chain, 0)

    def face_map(self, face: Chain, chain: Chain) -> list[list[int]]:
        rows, cols = self.dim(chain), self.dim(face)
        if rows == 0 or cols == 0:
            return [[0] * cols for _ in range(rows)]
        try:
            return self.face_maps[(face, chain)]
        except KeyError:
            raise MissingCertificate(
                f"face map {face} -> {chain} required but not supplied") from None

    def validate(self):
        """Functoriality: for each 2-chain and each class x in it, the two
        composites from (x,) through the 1-chains that contain x agree.
        Classes are tried from the top of the chain down."""
        for chain in self.poset.chains(2):
            if self.dim(chain) == 0:
                continue
            for k in (2, 1, 0):
                x = chain[k:k + 1]
                if self.dim(x) == 0:
                    continue
                faces = [chain[:i] + chain[i + 1:] for i in range(3) if i != k]
                # through a zero-dimensional face the composite is the zero map
                via = [mat_mul(self.p, self.face_map(face, chain), self.face_map(x, face))
                       if self.dim(face) else [[0] * self.dim(x) for _ in range(self.dim(chain))]
                       for face in faces]
                if via[0] != via[1]:
                    raise NotAFunctor(f"composites into {chain} disagree from {x}")


def constant_functor(poset: ChainPoset, p: int, dim: int = 1) -> ChainFunctor:
    values = {c: dim for c in poset.all_chains()}
    eye = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    maps = {}
    for n, chains in enumerate(poset.chains_by_length):
        if n == 0:
            continue
        for chain in chains:
            for i in range(len(chain)):
                maps[(chain[:i] + chain[i + 1:], chain)] = eye
    return ChainFunctor(p=p, poset=poset, values=values, face_maps=maps)


def coboundary_matrix(F: ChainFunctor, n: int) -> list[list[int]]:
    """delta^n : C^n -> C^(n+1), alternating sum of face maps."""
    target = F.poset.chains(n + 1)
    src_offsets, total_src = _offsets(F, F.poset.chains(n))
    tgt_offsets, total_tgt = _offsets(F, target)
    matrix = [[0] * total_src for _ in range(total_tgt)]
    for chain in target:
        rows = F.dim(chain)
        if rows == 0:
            continue
        for i in range(len(chain)):
            face = chain[:i] + chain[i + 1:]
            cols = F.dim(face)
            if cols == 0:
                continue
            block = F.face_map(face, chain)
            sign = 1 if i % 2 == 0 else -1
            r0, c0 = tgt_offsets[chain], src_offsets[face]
            for r in range(rows):
                for c in range(cols):
                    matrix[r0 + r][c0 + c] = (matrix[r0 + r][c0 + c]
                                              + sign * block[r][c]) % F.p
    return matrix


def _offsets(F: ChainFunctor, chains: list[Chain]) -> tuple[dict[Chain, int], int]:
    """Where each chain's block starts in the cochain space, and its dimension."""
    starts = list(accumulate((F.dim(c) for c in chains), initial=0))
    return dict(zip(chains, starts)), starts[-1]


def cochain_cohomology(F: ChainFunctor, max_degree: int) -> list[int]:
    """Dimensions of H^0 .. H^max_degree, checking delta.delta = 0."""
    F.validate()
    deltas = [coboundary_matrix(F, n) for n in range(max_degree + 1)]
    # composite check
    for n in range(max_degree):
        a, b = deltas[n], deltas[n + 1]
        if a and b and a[0] and b[0]:
            comp = mat_mul(F.p, b, a)
            if any(any(x % F.p for x in row) for row in comp):
                raise NotAFunctor(f"delta^{n + 1} . delta^{n} != 0")
    dims_c = [sum(F.dim(c) for c in F.poset.chains(n)) for n in range(max_degree + 1)]
    ranks = [rank(F.p, d) for d in deltas]
    return [dims_c[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# vanishing shortcuts
# ---------------------------------------------------------------------------


def vanishing_criteria(F: ChainFunctor) -> str | None:
    """Return 'a' or 'b' when a vanishing shortcut certifies lim = 0."""
    singletons = F.poset.chains_by_length[0]
    nonzero = [c for c in singletons if F.dim(c) > 0]
    if not nonzero:
        return "a"
    if len(nonzero) != 2:
        return None
    less = F.poset.less
    (x1,), (x2,) = sorted(nonzero, key=lambda c: (len(less[c[0]]), c))
    # orient so that x1 < x2
    if x2 in less[x1]:
        pass
    elif x1 in less[x2]:
        x1, x2 = x2, x1
    else:
        return None
    for y in F.poset.labels:
        if y in (x1, x2) or x2 not in less[y]:
            continue
        try:
            m1 = F.face_map((x1,), (x1, x2))
            m2 = F.face_map((x2,), (x1, x2))
            m3 = F.face_map((x2,), (y, x2))
        except MissingCertificate:
            continue
        d1, d2 = F.dim((x1,)), F.dim((x2,))
        if rank(F.p, m1) != d1 or rank(F.p, m2) != d2 or rank(F.p, m3) != d2:
            continue
        # equal images: adjoining the other map's columns must not raise the rank
        if len(m1) != len(m2):
            continue
        side_by_side = [m1[r] + m2[r] for r in range(len(m1))]
        if rank(F.p, side_by_side) != rank(F.p, m1):
            continue
        return "b"
    return None


def lim_dimension(F: ChainFunctor) -> int:
    """dim of the limit (degree-zero cohomology) by direct kernel rank."""
    return sum(F.dim(c) for c in F.poset.chains(0)) - rank(F.p, coboundary_matrix(F, 0))


# ---------------------------------------------------------------------------
# the degree-two coefficient functor on the centric radical poset
# ---------------------------------------------------------------------------


@cached_per_cap
def _a7_four_group():
    """The four-group of A7 whose normalizer certifies the map out of R; one
    object per cap, so a repeat call finds its normalizer in A7's memo."""
    return FiniteGroup.generate(named_group("A7").action,
                                [(1, 0, 3, 2, 4, 5, 6), (2, 3, 0, 1, 4, 5, 6)], cap=5)


def verify_lim_A2(l: int) -> dict:
    """Certify that the limit of the degree-two twist functor vanishes.

    For l >= 1 every outer automorphism group in the classification has
    trivial odd k^x-cohomology, so the functor is zero on all singleton
    chains and criterion (a) applies.  At l = 0 the two nonzero values sit
    at the R and QR classes; the map out of QR is the identity because Q, R
    and QR are weakly closed (data), and the map out of R is an isomorphism
    because both target groups have one-dimensional mod-3 cohomology and the
    relevant normalizer of a four-group in the alternating group of degree 7
    has index coprime to 3, making restriction injective.  Criterion (b)
    then applies, and the assembled cochain complex cross-checks it.
    """
    tables = load_tables()
    caveats = ["chain classes are identified with class-label sequences; exact "
               "on the support because the three supporting classes are weakly "
               "closed (data)"]
    singleton_values = {}
    for row in tables["f_lpos" if l >= 1 else "l0"]:
        cert = odd_h2_kx(resolve_out_descriptor(row.out["F"]), name=row.label)
        singleton_values[row.label] = cert.conclusion
    if l >= 1:
        diagram = load_hasse("lpos")
        poset = build_chain_poset([lab for lab, _ in diagram.nodes], diagram.edges,
                                  max_length=2)
        functor = ChainFunctor(p=3, poset=poset,
                               values={(lab,): 0 for lab, _ in diagram.nodes})
        criterion = vanishing_criteria(functor)
        lim = lim_dimension(functor)
        return {"l": l, "criterion": criterion, "singleton_values": singleton_values,
                "maps": {}, "lim_dim": lim, "caveats": caveats, "facts": {},
                "pass": criterion == "a" and lim == 0
                and all(v == "0" for v in singleton_values.values())}

    nonzero = sorted(lab for lab, v in singleton_values.items() if v != "0")
    facts = {}

    # the normalizer of a four-group in A7 and the two cohomology dimensions
    a7 = named_group("A7")
    n72 = normalizer(a7, _a7_four_group())
    facts["normalizer_order"] = n72.order
    facts["index"] = a7.order // n72.order
    facts["index_coprime_to_3"] = facts["index"] % 3 != 0
    syl = sylow_subgroup(n72, 3)
    facts["contains_sylow_3"] = syl.order == 9
    facts["h2_A7_dim"] = h2_dim(a7, 3, name="A7").dim
    facts["h2_normalizer_dim"] = h2_dim(n72, 3, name="N_A7(V4)").dim
    iso_justified = (facts["normalizer_order"] == 72 and facts["index"] == 35
                     and facts["index_coprime_to_3"] and facts["contains_sylow_3"]
                     and facts["h2_A7_dim"] == 1 and facts["h2_normalizer_dim"] == 1)

    # assembled functor on the support closure {Q, R, QR}
    poset = build_chain_poset(["Q", "R", "QR"], [("Q", "QR"), ("R", "QR")],
                              max_length=2)
    eye = [[1]]
    functor = ChainFunctor(
        p=3, poset=poset,
        values={("R",): 1, ("QR",): 1, ("R", "QR"): 1, ("Q", "QR"): 1},
        face_maps={
            (("R",), ("R", "QR")): eye,     # isomorphism, justified by facts
            (("QR",), ("R", "QR")): eye,    # identity (weak closure)
            (("QR",), ("Q", "QR")): eye,    # identity (weak closure)
        })
    criterion = vanishing_criteria(functor)
    lim = lim_dimension(functor)
    cross = cochain_cohomology(functor, 1)
    return {
        "l": 0,
        "criterion": criterion,
        "singleton_values": singleton_values,
        "nonzero_singletons": nonzero,
        "maps": {"R->(R<QR)": "isomorphism", "QR->(R<QR)": "identity",
                 "QR->(Q<QR)": "identity"},
        "lim_dim": lim,
        "cochain_h0": cross[0],
        "caveats": caveats,
        "facts": facts,
        "pass": (criterion == "b" and lim == 0 and cross[0] == 0
                 and iso_justified and nonzero == ["QR", "R"]),
    }
