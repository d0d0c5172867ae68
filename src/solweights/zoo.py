"""Constructors for the named groups and fields used throughout.

Every registry group is a permutation group (GL_n(2) via its action on
nonzero vectors), so the uniform fast path applies.  Groups carry ``marks``
pointing at distinguished elements or subgroup generators that later modules
need (direct-product factors, the wreath base, the canonical rank-3 basis of
the 3-torsion in the order-108/324 semidirect products, and so on).

One spec grammar, in :func:`spec_builder`, both checks specs and builds
groups: it parses and range-checks a spec and returns a builder without
closing anything, and :func:`named_group` calls that builder, memoized per
spec and cap.  The grammar:

    S<n>  A<n>  C<n> (n >= 1)  D<2n> (2n >= 6)  GL(<n>,2) (n >= 2)
    SL2(<q>) (q = 5, 25)  quat(<2^k>) (8, 16, 32, 64)
    wr(<spec>,<spec>)  x(<spec>,<spec>)  dih(C3xC3)  m108  m324  1
"""

from __future__ import annotations

import functools
import re
from typing import Callable, NamedTuple

from .errors import UnknownSpec
from .fields import field_tower, tower_field
from .groups import FiniteGroup, MatrixAction, PermAction, cached_per_cap

# ---------------------------------------------------------------------------
# basic permutation group families
# ---------------------------------------------------------------------------


def trivial_group() -> FiniteGroup:
    return FiniteGroup.generate(PermAction(1), [], name="1")


def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return trivial_group()
    act = PermAction(n)
    cycle = tuple([(i + 1) % n for i in range(n)])
    return FiniteGroup.generate(act, [cycle], name=f"C{n}")


def symmetric_group(n: int) -> FiniteGroup:
    act = PermAction(n)
    if n <= 1:
        return FiniteGroup.generate(act, [], name=f"S{n}")
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple([(i + 1) % n for i in range(n)])
    return FiniteGroup.generate(act, [swap, cycle], name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    act = PermAction(n)
    if n <= 2:
        return FiniteGroup.generate(act, [], name=f"A{n}")
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2:
        cycle = tuple([(i + 1) % n for i in range(n)])
    else:
        cycle = tuple([0] + [1 + (i % (n - 1)) for i in range(1, n)])
    return FiniteGroup.generate(act, [three, cycle], name=f"A{n}")


def dihedral_group(order: int) -> FiniteGroup:
    """D_<order>, dihedral of the given (even) order, on order/2 points.

    The action is faithful only from order 6 on, so the spec grammar rejects
    ``D4``; the Klein four-group is ``x(C2,C2)``."""
    n = order // 2
    act = PermAction(n)
    rot = tuple((i + 1) % n for i in range(n))
    refl = tuple((-i) % n for i in range(n))
    return FiniteGroup.generate(act, [rot, refl], name=f"D{order}")


def gl_n_2(n: int) -> FiniteGroup:
    """GL_n(2) acting on the 2^n - 1 nonzero vectors (bitmask - 1 as point)."""
    size = (1 << n) - 1
    act = PermAction(size)

    def perm_of(rows: list[int]) -> tuple[int, ...]:
        images = []
        for v in range(1, size + 1):
            w = 0
            for i in range(n):
                if v >> i & 1:
                    w ^= rows[i]
            images.append(w - 1)
        return tuple(images)

    cycle_rows = [1 << ((i + 1) % n) for i in range(n)]
    transvection_rows = [1 << i for i in range(n)]
    transvection_rows[0] ^= 1 << 1  # e1 -> e1 + e2
    G = FiniteGroup.generate(act, [perm_of(cycle_rows), perm_of(transvection_rows)],
                             name=f"GL({n},2)")
    expected = 1
    for i in range(n):
        expected *= (1 << n) - (1 << i)
    if G.order != expected:
        raise RuntimeError(f"GL({n},2) construction has order {G.order}, expected {expected}")
    return G


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def _shift(perm: tuple[int, ...], offset: int, total: int) -> tuple[int, ...]:
    images = list(range(total))
    for i, pi in enumerate(perm):
        images[offset + i] = offset + pi
    return tuple(images)


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Direct product on disjoint point sets (both factors permutation groups)."""
    n, m = G.action.n, H.action.n
    act = PermAction(n + m)
    gens = [_shift(g, 0, n + m) for g in G.generators]
    gens += [_shift(h, n, n + m) for h in H.generators]
    marks = {
        "factor_gens": [
            [_shift(g, 0, n + m) for g in G.generators],
            [_shift(h, n, n + m) for h in H.generators],
        ],
    }
    P = FiniteGroup.generate(act, gens, name=name, marks=marks)
    if P.order != G.order * H.order:
        raise RuntimeError("direct product order mismatch")
    return P


def wreath_product(base: FiniteGroup, top: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Imprimitive wreath product base wr top on (base points) x (top points)."""
    m = base.action.n
    k = top.action.n
    total = m * k
    act = PermAction(total)
    base_gens = [_shift(g, block * m, total) for block in range(k) for g in base.generators]
    gens = list(base_gens)
    for t in top.generators:
        images = list(range(total))
        for block in range(k):
            for i in range(m):
                images[block * m + i] = t[block] * m + i
        gens.append(tuple(images))
    W = FiniteGroup.generate(act, gens, name=name, marks={"base_gens": base_gens})
    if W.order != base.order ** k * top.order:
        raise RuntimeError("wreath product order mismatch")
    return W


# ---------------------------------------------------------------------------
# the specific 3-group semidirect products, on 9 points
# ---------------------------------------------------------------------------

_T0 = (1, 2, 0, 3, 4, 5, 6, 7, 8)
_T1 = (0, 1, 2, 4, 5, 3, 6, 7, 8)
_T2 = (0, 1, 2, 3, 4, 5, 7, 8, 6)
_INV = (0, 2, 1, 3, 5, 4, 6, 8, 7)          # blockwise inversion
_SWAP = (3, 4, 5, 0, 1, 2, 6, 7, 8)          # exchange blocks 0, 1
_ROT = (3, 4, 5, 6, 7, 8, 0, 1, 2)           # rotate blocks 0 -> 1 -> 2


def generalized_dihedral_c3c3() -> FiniteGroup:
    """(C3 x C3) with every element inverted by an involution, on 9 points."""
    act = PermAction(9)
    ta = (3, 4, 5, 6, 7, 8, 0, 1, 2)   # (a, b) -> (a + 1, b)
    tb = (1, 2, 0, 4, 5, 3, 7, 8, 6)   # (a, b) -> (a, b + 1)
    # regular action on pairs encoded 3a + b; inversion sends (a, b) to (-a, -b)
    inv = tuple(3 * ((-(p // 3)) % 3) + ((-(p % 3)) % 3) for p in range(9))
    G = FiniteGroup.generate(act, [ta, tb, inv], name="dih(C3xC3)",
                             marks={"v_basis": [ta, tb]})
    if G.order != 18:
        raise RuntimeError("generalized dihedral construction has wrong order")
    return G


def m108() -> FiniteGroup:
    """C3^3 : (C2 x C2), inversion and the swap of the first two blocks."""
    act = PermAction(9)
    G = FiniteGroup.generate(act, [_T0, _T1, _T2, _INV, _SWAP], name="m108",
                             marks={"v_basis": [_T0, _T1, _T2]})
    if G.order != 108:
        raise RuntimeError("m108 construction has wrong order")
    return G


def m324() -> FiniteGroup:
    """C3^3 : (C2 x S3), inversion commuting with the full block permutation."""
    act = PermAction(9)
    G = FiniteGroup.generate(act, [_T0, _T1, _T2, _INV, _SWAP, _ROT], name="m324",
                             marks={"v_basis": [_T0, _T1, _T2]})
    if G.order != 324:
        raise RuntimeError("m324 construction has wrong order")
    return G


# ---------------------------------------------------------------------------
# SL_2(q) and the quaternion frame
# ---------------------------------------------------------------------------


def sl2_gens(level: int) -> tuple[MatrixAction, list[tuple]]:
    """Generators of SL_2(5^(2^level)): upper and lower transvections.

    Transvections u(a), l(a) over an F5-spanning set of the field generate
    the full group; omega-powers 1, w, w^2, ... span at the levels used here
    (the order assertion in :func:`sl2_group` backs this).
    """
    fq = tower_field(level)
    act = MatrixAction(fq)
    gens = [(1, 1, 0, 1), (1, 0, 1, 1)]
    acc = 1
    for _ in range(2 ** level - 1):
        acc = fq.mul(acc, fq.omega)
        gens.append((1, acc, 0, 1))
        gens.append((1, 0, acc, 1))
    return act, gens


@cached_per_cap
def sl2_group(level: int) -> FiniteGroup:
    """SL_2(q) for q = 5^(2^level) as a matrix group, order q(q-1)(q+1)."""
    act, gens = sl2_gens(level)
    q = act.field.size
    G = FiniteGroup.generate(act, gens, cap=q * (q * q - 1) + 1,
                             name=f"SL2({q})")
    if G.order != q * (q - 1) * (q + 1):
        raise RuntimeError(f"SL2({q}) construction has order {G.order}")
    return G


class QuaternionFrame(NamedTuple):
    """The quaternion frame at one level; see :func:`quaternion_frame`."""

    action: MatrixAction   # 2x2 matrices over F_{q^2}
    x: tuple               # diag(omega, omega^-1)
    y: tuple               # (0, -1; 1, 0)
    c: tuple               # diag(z^-1, z), c^2 = x^-1
    R: FiniteGroup         # <x, y>, generalized quaternion of order 2^(level+3)
    q8: FiniteGroup        # <x^(2^level), y>


@cached_per_cap
def quaternion_frame(level: int) -> QuaternionFrame:
    """The standard quaternion frame inside SL_2(q), q = 5^(2^level), 0 <= level <= 3.

    x and y have entries in F_q, and subfield encodings embed unchanged, so
    R and q8 are also subgroups of :func:`sl2_group` at the enumerable
    levels 0 and 1.  The frame itself works up to level 3, where SL_2(q) is
    far beyond any enumeration cap but R stays tiny.
    """
    _, fq2, omega = field_tower(level)
    act = MatrixAction(fq2)
    x = (omega, 0, 0, fq2.inv(omega))
    y = (0, fq2.neg(1), 1, 0)
    R = FiniteGroup.generate(act, [x, y], cap=2 ** (level + 4),
                             name=f"Q{2 ** (level + 3)}")
    z = fq2.omega
    c = (fq2.inv(z), 0, 0, z)
    if R.order != 2 ** (level + 3):
        raise RuntimeError("quaternion frame has wrong order")
    if act.mul(c, c) != act.inv(x):
        raise RuntimeError("frame element c does not square to x^-1")
    return QuaternionFrame(act, x, y, c, R, R.subgroup([R.power(x, 2 ** level), y]))


def quaternion_group(order: int) -> FiniteGroup:
    """Generalized quaternion group of the given order (8, 16, 32, or 64)."""
    return quaternion_frame(order.bit_length() - 4).R


# ---------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------

# enumerable levels only; SL_2(625) already has ~2.4e8 elements
_SL2_LEVELS = {5: 0, 25: 1}


def split_top(s: str, sep: str) -> list[str]:
    """s split at each sep outside parentheses, parts stripped."""
    parts = []
    depth = 0
    start = 0
    i = 0
    while i < len(s):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
        elif depth == 0 and s.startswith(sep, i):
            parts.append(s[start:i])
            start = i + len(sep)
            i += len(sep)
            continue
        i += 1
    parts.append(s[start:])
    return [p.strip() for p in parts]


_FIXED = {"1": trivial_group, "m108": m108, "m324": m324,
          "dih(C3xC3)": generalized_dihedral_c3c3}
_LETTER_FAMILIES = {"S": symmetric_group, "A": alternating_group,
                    "C": cyclic_group, "D": dihedral_group}


def spec_builder(spec: str) -> Callable[[], FiniteGroup]:
    """Parse and range-check a group spec, and return a zero-argument builder.

    This is the one place that decides whether a spec is valid: it raises
    UnknownSpec for a spec outside the grammar and builds no group, so a
    spec can be checked without closing anything.  The product builders
    resolve their factors through :func:`named_group`, so shared factors
    stay memoized."""
    s = spec.strip()
    if not s:
        raise UnknownSpec("empty group spec")
    if s in _FIXED:
        return _FIXED[s]
    m = re.fullmatch(r"([SACD])(\d+)", s)
    if m:
        letter, n = m.group(1), int(m.group(2))
        if letter == "C" and n < 1:
            raise UnknownSpec(f"cyclic order must be at least 1, got {n}")
        if letter == "D" and (n % 2 or n < 6):
            raise UnknownSpec(f"dihedral order must be even and >= 6, got {n}")
        return functools.partial(_LETTER_FAMILIES[letter], n)
    m = re.fullmatch(r"GL\((\d+),2\)", s)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise UnknownSpec(f"GL(n,2) needs n >= 2, got {n}")
        return functools.partial(gl_n_2, n)
    m = re.fullmatch(r"SL2\((\d+)\)", s)
    if m:
        q = int(m.group(1))
        if q not in _SL2_LEVELS:
            raise UnknownSpec(f"SL2 supported for q in {sorted(_SL2_LEVELS)}, got {q}")
        return functools.partial(sl2_group, _SL2_LEVELS[q])
    m = re.fullmatch(r"quat\((\d+)\)", s)
    if m:
        order = int(m.group(1))
        if order not in (8, 16, 32, 64):
            raise UnknownSpec(f"quaternion order must be 8, 16, 32 or 64, got {order}")
        return functools.partial(quaternion_group, order)
    m = re.fullmatch(r"(wr|x)\((.*)\)", s)
    if m:
        op = m.group(1)
        args = split_top(m.group(2), ",")
        if len(args) != 2:
            raise UnknownSpec(f"{op} takes two arguments: {spec!r}")
        for arg in args:
            spec_builder(arg)
        product = wreath_product if op == "wr" else direct_product
        return lambda: product(named_group(args[0]), named_group(args[1]), name=s)
    raise UnknownSpec(f"unrecognized group spec {spec!r}")


@cached_per_cap
def named_group(spec: str) -> FiniteGroup:
    """Resolve a group spec string; results are cached per spec."""
    return spec_builder(spec)()
