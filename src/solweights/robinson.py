"""Counting 2-blocks of defect zero from group data.

The count is the GF(2) rank of N N^T, where N is indexed by the defect-zero
conjugacy classes (odd centralizer order) against representatives of the
S-S double cosets that meet the defect-zero elements and whose conjugate of
S intersects S trivially; the (i, j) entry is |y_i^G meet x_j S| mod 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .groups import (
    ConjClass,
    FiniteGroup,
    _p_part,
    class_index_table,
    conjugacy_classes,
    conjugator,
    double_cosets,
    sylow_subgroup,
    trivial_intersection,
)
from .linalg import gf2_rank, gram_gf2


@dataclass
class RobinsonData:
    group: FiniteGroup
    sylow: FiniteGroup
    classes: list[ConjClass]                 # defect-zero classes, Y
    coset_defect_zero: list[list[tuple]]     # defect-zero elements per coset
    x_reps: list[tuple]                      # chosen f(D) per coset, X
    raw_counts: list[list[int]]              # |y_i^G meet x_j S| before mod 2
    matrix_rows: list[int]                   # N over GF(2), bit-packed rows

    @property
    def n_shape(self) -> tuple[int, int]:
        return len(self.classes), len(self.x_reps)

    def gram_rank(self) -> int:
        return gf2_rank(gram_gf2(self.matrix_rows))

    def bound(self) -> int:
        return min(len(self.x_reps), len(self.classes))

    def to_json(self, name: str | None = None) -> dict:
        G = self.group
        rank = self.gram_rank()
        return {
            "group": name or G.name or "group",
            "order": G.order,
            "sylow_order": self.sylow.order,
            "classes": [
                {"size": c.size, "centralizer_order": c.centralizer_order}
                for c in conjugacy_classes(G)
            ],
            "defect_zero": [
                {"size": c.size, "centralizer_order": c.centralizer_order}
                for c in self.classes
            ],
            "x_count": len(self.x_reps),
            "rank": rank,
            "count": rank,
            "bound": self.bound(),
        }


def defect_zero_classes(G: FiniteGroup) -> list[ConjClass]:
    """The conjugacy classes with odd centralizer order."""
    return [c for c in conjugacy_classes(G) if c.centralizer_order % 2 == 1]


def robinson_matrix(G: FiniteGroup, sylow: FiniteGroup | None = None) -> RobinsonData:
    """Assemble the defect-zero data and the GF(2) matrix N.

    The double cosets come one at a time from ``groups.double_cosets``.
    Kept cosets contain a defect-zero element and satisfy the trivial
    intersection condition (constant on each coset).  f(D) is the first
    defect-zero element of D in enumeration order; :func:`repick` draws it
    at random instead, on the same cosets.
    """
    S = sylow if sylow is not None else sylow_subgroup(G, 2)
    class_table = class_index_table(G)
    dz_rows = _defect_zero_rows(G)

    coset_dz: list[list[tuple]] = []
    for x, members in double_cosets(G, S):
        dz_members = sorted(j for j in members if class_table[j] in dz_rows)
        # trivial intersection is constant on the double coset
        if dz_members and trivial_intersection(G, S, x):
            coset_dz.append([G.elements[j] for j in dz_members])

    x_reps = [members[0] for members in coset_dz]
    raw, rows = _counts(G, S, x_reps)
    return RobinsonData(
        group=G, sylow=S, classes=defect_zero_classes(G), coset_defect_zero=coset_dz,
        x_reps=x_reps, raw_counts=raw, matrix_rows=rows,
    )


def repick(base: RobinsonData, rng: random.Random) -> RobinsonData:
    """``base`` with f(D) drawn uniformly from each kept coset, in coset order.

    The coset partition, Y and Y_0 are reused; only X, the raw counts and N
    are rebuilt.
    """
    x_reps = [rng.choice(members) for members in base.coset_defect_zero]
    raw, rows = _counts(base.group, base.sylow, x_reps)
    return replace(base, x_reps=x_reps, raw_counts=raw, matrix_rows=rows)


def _defect_zero_rows(G: FiniteGroup) -> dict[int, int]:
    """Class index -> row of N, for the defect-zero classes in class order."""
    return {ci: row for row, ci in enumerate(
        ci for ci, c in enumerate(conjugacy_classes(G)) if c.centralizer_order % 2 == 1)}


def _counts(G: FiniteGroup, S: FiniteGroup,
            x_reps: list[tuple]) -> tuple[list[list[int]], list[int]]:
    """The counts |y_i^G meet x_j S| and the rows of N, bit-packed over GF(2)."""
    class_table = class_index_table(G)
    dz_rows = _defect_zero_rows(G)
    mul = G.action.mul

    def column(xj: tuple) -> list[int]:
        counts = [0] * len(dz_rows)
        for s in S.elements:
            row = dz_rows.get(class_table[G.index[mul(xj, s)]])
            if row is not None:
                counts[row] += 1
        return counts

    columns = [column(xj) for xj in x_reps]
    raw = [[col[i] for col in columns] for i in range(len(dz_rows))]
    rows = []
    for counts in raw:
        bits = 0
        for j, n in enumerate(counts):
            if n & 1:
                bits |= 1 << j
        rows.append(bits)
    return raw, rows


def defect_zero_block_count(G: FiniteGroup) -> tuple[int, int]:
    """(rank of N N^T over GF(2), the bound min(|X|, |Y|))."""
    data = robinson_matrix(G)
    return data.gram_rank(), data.bound()


def two_complement_shortcut(G: FiniteGroup) -> int | None:
    """Defect-zero class count when G has a normal 2-complement, else None.

    The odd-order elements of such a group are exactly the normal complement,
    so it suffices that they form a subgroup of odd index equal to the full
    odd part.
    """
    odd_part = G.order // _p_part(G.order, 2)
    odd_elements = [e for e in G.elements if G.element_order(e) % 2 == 1]
    if len(odd_elements) != odd_part:
        return None
    # closure check: the odd elements must already form a subgroup
    if G.subgroup(odd_elements).order != odd_part:
        return None
    return len(defect_zero_classes(G))


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Nontrivial cycle lengths of a permutation, sorted descending."""
    seen = [False] * len(perm)
    lengths = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length > 1:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# choice invariance
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    group: str
    baseline: int
    runs: int
    variations: list[str] = field(default_factory=list)
    ranks: list[int] = field(default_factory=list)

    @property
    def all_equal(self) -> bool:
        return all(r == self.baseline for r in self.ranks)


def choice_invariance(G: FiniteGroup, runs: int = 20, seed: int = 0,
                      name: str | None = None) -> InvarianceReport:
    """Re-run the rank computation under randomized choices.

    Three kinds of variation: re-picking the defect-zero representative
    f(D) in each kept double coset, replacing S by a random conjugate, and
    permuting the generator list with a random element appended (which
    changes the enumeration order and everything downstream; the closure
    skips the appended element, already in the group, but ``G.generators``
    keeps it, so the class numbering walks it too).  The rank must never
    move.  The f(D) re-picks share the base run's coset partition; the
    other two recompute it.
    """
    rng = random.Random(seed)
    base = robinson_matrix(G)
    report = InvarianceReport(group=name or G.name or "group",
                              baseline=base.gram_rank(), runs=runs)
    heavy = G.order > 4000
    n_gens = runs // 3 if not heavy else max(2, runs // 6)
    n_sylow = runs // 3 if not heavy else max(3, runs // 5)
    n_fpick = runs - n_gens - n_sylow
    # a heavy group asks for at least 3 + 2 conjugate and regenerated runs;
    # with runs < 5 the schedule is cut to runs
    schedule = (["fpick"] * n_fpick + ["sylow"] * n_sylow + ["gens"] * n_gens)[:runs]
    for kind in schedule:
        if kind == "fpick":
            data = repick(base, rng)
        elif kind == "sylow":
            conj = conjugator(G.action, rng.choice(G.elements))
            S2 = FiniteGroup.from_elements(G.action, map(conj, base.sylow.elements))
            data = robinson_matrix(G, sylow=S2)
        else:
            gens = list(G.generators)
            rng.shuffle(gens)
            extra = rng.choice(G.elements)
            G2 = FiniteGroup.generate(G.action, gens + [extra], cap=G.order + 1)
            data = robinson_matrix(G2)
        report.ranks.append(data.gram_rank())
        report.variations.append(kind)
    return report
