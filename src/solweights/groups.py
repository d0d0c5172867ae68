"""Exact computation engine for finite groups given by generators.

Elements are plain hashable tuples; an *action* object supplies the
multiplication, inversion and identity for one element kind:

* ``PermAction(n)`` -- permutations of 0..n-1 as image tuples,
* ``MatrixAction(field)`` -- 2x2 matrices over a finite field as flat
  entry tuples (row major),
* ``CentralTripleAction(field)`` -- triples of 2x2 matrices together with a
  permutation of three coordinates, stored modulo the central sign
  identification (m1, m2, m3, pi) ~ (-m1, -m2, -m3, pi) as (c1, c2, c3, pi)
  with each slot matrix one integer code, big-endian in its entries, so
  codes order like matrix tuples; ``matrices`` decodes an element.  The
  stored representative is the one whose first nonzero matrix entry v has
  v < -v as encodings, which is the lexicographically smaller one.

Matrix products index the field's ``mul_table``, ``add_table``,
``neg_table`` and ``inv_table`` directly, on every field; the field decides
whether they are filled eagerly or on demand.  Triple products look slot
codes up in the action's own memos, filled by matrix arithmetic on first use;
the product memo is keyed by the right factor first.

Besides ``mul``, each action has ``right_mul(g)``, the map x -> x g with
everything that depends on g alone worked out once: the gather of g for
permutations, g's multiplication rows for matrices, and for triples the
product-memo columns of g's permuted slots.  Closure (one pass over H per
coset H r), coset labelling, quotient generators and element orders
multiply long runs of elements on the right by one fixed element, and go
through it.

Conjugation is one map, ``conjugator(action, g)``: x -> g^-1 x g, with g^-1
and ``right_mul(g)`` worked out once.  Every conjugation goes through it
except ``_normalizes``, whose per-element calls in the Sylow loop would pay
for building the map more than the two products it saves.

Groups cache their full element enumeration (Dimino's closure, coset by
coset, deterministic in the generator order; see ``_dimino``) and
structural data derived from it.  A ``FiniteGroup`` is append-only: its
elements, generators and marks are fixed at construction, and its one memo
``_memo`` gains an entry per ``cached_per_group`` call (classes with their
index table, center, derived and Frattini subgroups, Sylow subgroups and
normalizers) on first use, never changed after and freed with the group.
Every operation here is a function of its inputs alone, so a shared
memoized group gives the same results whichever caller fills its memo first.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd, lcm, sqrt
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CapExceeded,
    DoesNotNormalize,
    ElementNotInGroup,
    NotNormal,
    OrbitCapExceeded,
    SubgroupNotContained,
)
from .fields import FiniteField, _Memo

DEFAULT_CAP = 5_000_000  # bounds every closure and orbit; the CLI lowers it with --cap

Element = tuple


def cached_per_cap(fn: Callable) -> Callable:
    """Memoize fn on (DEFAULT_CAP, *args), so a result built under one cap
    is never served under a lower one."""
    memo: dict = {}

    @functools.wraps(fn)
    def cached(*args):
        key = (DEFAULT_CAP, *args)
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]

    return cached


def cached_per_group(fn: Callable) -> Callable:
    """Memoize fn(G, *args) in G's own memo, so the result lives as long as
    G.  Groups come from cap-keyed memos or are built locally, so a result
    is never served under a lower cap than the one it was built under."""

    @functools.wraps(fn)
    def cached(G: "FiniteGroup", *args):
        key = (fn, *args)
        if key not in G._memo:
            G._memo[key] = fn(G, *args)
        return G._memo[key]

    return cached


# ---------------------------------------------------------------------------
# element actions
# ---------------------------------------------------------------------------


class PermAction:
    """Permutations of {0..n-1}; composition is (a*b)(i) = a[b[i]]."""

    kind = "perm"

    def __init__(self, n: int):
        self.n = n
        self.identity: Element = tuple(range(n))

    def mul(self, a: Element, b: Element) -> Element:
        # one C-level gather.  itemgetter returns a bare entry for one index
        # and raises for none, so degrees 0 and 1 return the identity, the
        # only permutation there
        if self.n < 2:
            return self.identity
        return itemgetter(*b)(a)

    def right_mul(self, g: Element) -> Callable[[Element], Element]:
        """x -> x g: the gather itself, called at C level."""
        if self.n < 2:
            identity = self.identity
            return lambda x: identity
        return itemgetter(*g)

    def inv(self, a: Element) -> Element:
        out = [0] * self.n
        for i, ai in enumerate(a):
            out[ai] = i
        return tuple(out)

    def __repr__(self):
        return f"PermAction({self.n})"

    def __eq__(self, other):
        return isinstance(other, PermAction) and other.n == self.n

    def __hash__(self):
        return hash(("perm", self.n))


class MatrixAction:
    """2x2 matrices over a finite field, flat tuples (a, b, c, d)."""

    kind = "matrix"

    def __init__(self, field: FiniteField):
        self.field = field
        self.identity: Element = (1, 0, 0, 1)

    def mul(self, x: Element, y: Element) -> Element:
        M, A = self.field.mul_table, self.field.add_table
        a, b, c, d = x
        e, g, h, i = y
        Ma, Mb, Mc, Md = M[a], M[b], M[c], M[d]
        return (A[Ma[e]][Mb[h]], A[Ma[g]][Mb[i]], A[Mc[e]][Md[h]], A[Mc[g]][Md[i]])

    def right_mul(self, y: Element) -> Callable[[Element], Element]:
        """x -> x y, with y's four multiplication rows fetched once (field
        multiplication commutes, so M[e][a] = a e)."""
        M, A = self.field.mul_table, self.field.add_table
        Me, Mg, Mh, Mi = (M[v] for v in y)

        def times(x: Element) -> Element:
            a, b, c, d = x
            return (A[Me[a]][Mh[b]], A[Mg[a]][Mi[b]], A[Me[c]][Mh[d]], A[Mg[c]][Mi[d]])

        return times

    def inv(self, x: Element) -> Element:
        f = self.field
        a, b, c, d = x
        M, N = f.mul_table, f.neg_table
        dt = f.add_table[M[a][d]][N[M[b][c]]]
        if not dt:
            raise ZeroDivisionError("inverse of a singular matrix")
        Mi = M[f.inv_table[dt]]
        return (Mi[d], Mi[N[b]], Mi[N[c]], Mi[a])

    def __repr__(self):
        return f"MatrixAction({self.field!r})"

    def __eq__(self, other):
        return isinstance(other, MatrixAction) and other.field is self.field

    def __hash__(self):
        return hash(("matrix", id(self.field)))


class CentralTripleAction:
    """Triples of 2x2 matrices with a coordinate permutation, modulo signs.

    Elements are (c1, c2, c3, pi): each c is the code ((a n + b) n + c) n + d
    of a 2x2 matrix (a, b, c, d) over the field, n = |F|, and pi is a
    permutation tuple of (0, 1, 2).  The code is big-endian in the entries,
    so codes compare like the matrix tuples.  ``make`` takes matrix tuples,
    and ``matrices`` decodes an element back into them.  The product
    permutes the second factor's matrix triple by the first factor's pi
    before multiplying componentwise; pi parts compose as functions, by a
    table of the six permutations, so products share their pi tuples.  Of
    the two central representatives, the one whose first nonzero entry v of
    (m1, m2, m3) satisfies v < -v is stored; that entry is where the two
    tuples first differ, so it is the lexicographically smaller one.

    Products, negations, inverses and the sign rule (flip or not, by a
    matrix's first nonzero entry) of slot matrices are memoized by code and
    filled on first use, so once a group's few slot matrices are in, a
    product is three table lookups and no matrix arithmetic.  The product
    memo is keyed by the right factor first (``_prod[b][a]`` is a b), so
    ``right_mul(y)`` fetches, per slot permutation of the left factor, the
    three columns of y's permuted slots once and then looks up only the
    left factor's codes.
    """

    kind = "central-triple"

    def __init__(self, field: FiniteField):
        self.field = field
        self.mat = MatrixAction(field)
        one = self._encode(self.mat.identity)
        self.identity: Element = (one, one, one, (0, 1, 2))
        dec, enc = self._decode, self._encode
        self._prod = _Memo(lambda b: _Memo(lambda a: enc(self.mat.mul(dec(a), dec(b)))))
        self._neg = _Memo(lambda c: enc(map(field.neg_table.__getitem__, dec(c))))
        self._inv = _Memo(lambda c: enc(self.mat.inv(dec(c))))
        self._flip = _Memo(self._flip_code)
        perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        self._compose = {p: {q: (p[q[0]], p[q[1]], p[q[2]]) for q in perms} for p in perms}

    def _encode(self, m: Iterable[int]) -> int:
        code, n = 0, self.field.size
        for v in m:
            code = code * n + v
        return code

    def _decode(self, code: int) -> Element:
        n = self.field.size
        code, d = divmod(code, n)
        code, c = divmod(code, n)
        a, b = divmod(code, n)
        return (a, b, c, d)

    def _flip_code(self, code: int) -> bool:
        v = next(filter(None, self._decode(code)), 0)
        return self.field.neg_table[v] < v

    def _canonical(self, c1: int, c2: int, c3: int, pi: Element) -> Element:
        # the two representatives first differ at the first nonzero entry,
        # which is that of the first nonzero slot matrix
        if self._flip[c1 or c2 or c3]:
            N = self._neg
            return (N[c1], N[c2], N[c3], pi)
        return (c1, c2, c3, pi)

    def make(self, m1: Element, m2: Element, m3: Element, pi: Element = (0, 1, 2)) -> Element:
        return self._canonical(self._encode(m1), self._encode(m2), self._encode(m3), pi)

    def matrices(self, x: Element) -> tuple:
        """The element as (m1, m2, m3, pi) with flat 2x2 matrix tuples."""
        return (*map(self._decode, x[:3]), x[3])

    def mul(self, x: Element, y: Element) -> Element:
        a1, a2, a3, p = x
        # permuted[p[i]] = y[i]
        permuted = [0, 0, 0]
        permuted[p[0]] = y[0]
        permuted[p[1]] = y[1]
        permuted[p[2]] = y[2]
        P = self._prod
        return self._canonical(P[permuted[0]][a1], P[permuted[1]][a2], P[permuted[2]][a3],
                               self._compose[p][y[3]])

    def right_mul(self, y: Element) -> Callable[[Element], Element]:
        """x -> x y.  Per slot permutation p of x, y's slots permuted by p
        select three columns of the product memo and p composes with y's
        permutation once; each is filled on the first x with that p."""
        P, compose, flip, neg = self._prod, self._compose, self._flip, self._neg

        def columns(p: Element) -> tuple:
            permuted = [0, 0, 0]
            permuted[p[0]] = y[0]
            permuted[p[1]] = y[1]
            permuted[p[2]] = y[2]
            return (P[permuted[0]], P[permuted[1]], P[permuted[2]], compose[p][y[3]])

        by_perm = _Memo(columns)

        def times(x: Element) -> Element:
            a1, a2, a3, p = x
            P1, P2, P3, q = by_perm[p]
            c1, c2, c3 = P1[a1], P2[a2], P3[a3]
            # the sign rule of _canonical
            if flip[c1 or c2 or c3]:
                return (neg[c1], neg[c2], neg[c3], q)
            return (c1, c2, c3, q)

        return times

    def inv(self, x: Element) -> Element:
        a1, a2, a3, p = x
        q = [0, 0, 0]
        for i, pi in enumerate(p):
            q[pi] = i
        inv = self._inv
        # ((t, p))^-1 = ((t^-1)^{p^-1}, p^-1): slot q[i] receives inv(t_i)
        out = [0, 0, 0]
        out[q[0]] = inv[a1]
        out[q[1]] = inv[a2]
        out[q[2]] = inv[a3]
        return self._canonical(out[0], out[1], out[2], tuple(q))

    def __repr__(self):
        return f"CentralTripleAction({self.field!r})"

    def __eq__(self, other):
        return isinstance(other, CentralTripleAction) and other.field is self.field

    def __hash__(self):
        return hash(("central-triple", id(self.field)))


Action = PermAction | MatrixAction | CentralTripleAction


def conjugator(action: Action, g: Element) -> Callable[[Element], Element]:
    """x -> x^g = g^-1 x g, with g^-1 and x -> x g worked out once."""
    mul, ginv, times = action.mul, action.inv(g), action.right_mul(g)
    return lambda x: times(mul(ginv, x))


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjClass:
    rep: Element
    size: int
    centralizer_order: int


class FiniteGroup:
    """A finite group with full element enumeration.

    Enumeration order is ``_dimino``'s, deterministic given the generator
    order: the list starts with <g_1..g_i> for each i.
    """

    def __init__(self, action: Action, generators: Sequence[Element],
                 elements: list[Element], index: dict[Element, int],
                 name: str | None = None, marks: dict | None = None):
        self.action = action
        self.generators = tuple(generators)
        self.elements = elements
        self.index = index
        self.order = len(elements)
        self.name = name
        self.marks = marks or {}
        self._memo: dict = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def generate(cls, action: Action, generators: Sequence[Element],
                 cap: int | None = None, name: str | None = None,
                 marks: dict | None = None) -> "FiniteGroup":
        """Closure of the generators under the action, by ``_dimino``."""
        _, elements, index = _dimino(action, generators, cap, name)
        return cls(action, generators, elements, index, name=name, marks=marks)

    @classmethod
    def from_elements(cls, action: Action, elements: Iterable[Element],
                      name: str | None = None, marks: dict | None = None) -> "FiniteGroup":
        """Group from a closed element set on its greedy generators in sorted
        order, picked and closed by one ``_dimino`` walk."""
        element_set = set(elements)
        gens, closed, index = _dimino(action, sorted(element_set), len(element_set) + 1, name)
        if index.keys() != element_set:
            raise ValueError("element set is not closed under the group operations")
        return cls(action, gens, closed, index, name=name, marks=marks)

    # -- basic queries -------------------------------------------------------

    @property
    def identity(self) -> Element:
        return self.action.identity

    def __contains__(self, e: Element) -> bool:
        return e in self.index

    def __len__(self) -> int:
        return self.order

    def __repr__(self):
        label = self.name or "group"
        return f"<{label} of order {self.order}>"

    def mul(self, a: Element, b: Element) -> Element:
        return self.action.mul(a, b)

    def inv(self, a: Element) -> Element:
        return self.action.inv(a)

    def element_order(self, a: Element) -> int:
        order, acc = 1, a
        identity = self.action.identity
        times = self.action.right_mul(a)
        while acc != identity:
            acc = times(acc)
            order += 1
        return order

    def power(self, a: Element, e: int) -> Element:
        if e < 0:
            return self.power(self.action.inv(a), -e)
        acc, base = self.action.identity, a
        while e:
            if e & 1:
                acc = self.action.mul(acc, base)
            base = self.action.mul(base, base)
            e >>= 1
        return acc

    def is_subgroup_of(self, other: "FiniteGroup") -> bool:
        """Whether every generator lies in other, which is closed, so then
        every element does."""
        return all(g in other.index for g in self.generators)

    def subgroup(self, generators: Sequence[Element], name: str | None = None) -> "FiniteGroup":
        if not all(map(self.index.__contains__, generators)):
            raise ElementNotInGroup(f"generator not in {self!r}")
        return FiniteGroup.generate(self.action, generators, cap=self.order + 1, name=name)

    def exponent(self) -> int:
        return lcm(*map(self.element_order, self.elements))


def _dimino(action: Action, candidates: Iterable[Element], cap: int | None,
            name: str | None = None) -> tuple[list[Element], list[Element], dict[Element, int]]:
    """Dimino's closure of the candidates, picking each one, in order, not
    yet in the closure of the earlier picks: (picks, elements, index).

    With picks g_1, g_2, ..., the list starts with H_i = <g_1..g_i> for each
    i.  A pick grows H = H_(i-1) by right cosets H r, each listed as H's own
    list times r, in turn: when r s is new for a pick s, the coset H (r s)
    is the listed coset H r times s, one pass of x -> x s over it.  That is
    at most |G| + k x (representatives) products for k picks, against
    |G| x k breadth first.  Every product has a pick as its right factor,
    so the central-triple product memo, keyed by the right factor, gains
    columns for the picks only.  A coset is added only if the list stays
    within the cap (at most ``DEFAULT_CAP``).
    """
    cap = DEFAULT_CAP if cap is None else min(cap, DEFAULT_CAP)
    picks: list[Element] = []
    mults: list[Callable] = []
    elements = [action.identity]
    index = {action.identity: 0}
    for g in candidates:
        if g in index:
            continue
        picks.append(g)
        mults.append(action.right_mul(g))
        size, start = len(elements), 0  # H is elements[:size]
        while start < len(elements):  # the cosets H r are elements[start:start + size]
            for times in mults:
                if times(elements[start]) in index:
                    continue
                if len(elements) + size > cap:
                    raise CapExceeded(f"closure exceeded cap {cap}"
                                      + (f" while generating {name}" if name else ""))
                coset = list(map(times, elements[start:start + size]))
                index.update(zip(coset, itertools.count(len(elements))))
                elements += coset
            start += size
    return picks, elements, index


# ---------------------------------------------------------------------------
# orbits and stabilizers
# ---------------------------------------------------------------------------


def _orbit(start, maps: Sequence[Callable],
           cap: int | None = None) -> tuple[list, list[tuple[int, ...]]]:
    """Breadth-first orbit of a point under the point maps, one per generator.

    Returns the points in the order found and, for each map, the
    permutation it induces on them as the tuple of image positions.
    """
    cap = DEFAULT_CAP if cap is None else min(cap, DEFAULT_CAP)
    points = [start]
    position = {start: 0}
    perms: list[list[int]] = [[] for _ in maps]
    for point in points:  # points grows during the walk
        for f, perm in zip(maps, perms):
            image = f(point)
            j = position.get(image)
            if j is None:
                j = position[image] = len(points)
                points.append(image)
                if len(points) > cap:
                    raise OrbitCapExceeded(f"orbit exceeded cap {cap}")
            perm.append(j)
    return points, [tuple(perm) for perm in perms]


@cached_per_group
def _class_data(G: FiniteGroup) -> tuple[list[ConjClass], list[int]]:
    """Conjugacy classes by orbit of representatives under generator
    conjugation, and the class index of each element index.  Classes are
    numbered, and represented, by their first element in the breadth-first
    walk from the identity by G.generators, which stops once every element
    has its class; so the numbering does not depend on the enumeration."""
    elements, index = G.elements, G.index
    # the walks are over element indices, so no product outlives its lookup
    maps = [lambda i, conj=conjugator(G.action, g): index[conj(elements[i])]
            for g in G.generators]
    mults = [G.action.right_mul(g) for g in G.generators if g != G.identity]
    table = [-1] * G.order
    classes: list[ConjClass] = []
    seen = bytearray(G.order)
    seen[0] = 1
    walk, left = [0], G.order
    for i in walk:  # walk grows until every element has its class
        if table[i] < 0:
            orbit, _ = _orbit(i, maps)
            for j in orbit:
                table[j] = len(classes)
            size = len(orbit)
            if G.order % size:
                raise RuntimeError("class size does not divide group order")
            classes.append(ConjClass(elements[i], size, G.order // size))
            left -= size
            if not left:
                break
        for times in mults:
            j = index[times(elements[i])]
            if not seen[j]:
                seen[j] = 1
                walk.append(j)
    return classes, table


def conjugacy_classes(G: FiniteGroup) -> list[ConjClass]:
    """Conjugacy classes, numbered as ``_class_data`` says."""
    return _class_data(G)[0]


def class_index_table(G: FiniteGroup) -> list[int]:
    """Map element index -> conjugacy class index."""
    return _class_data(G)[1]


def right_cosets(G: FiniteGroup, H: FiniteGroup) -> tuple[list[int], list[list[int]]]:
    """The right cosets H g of a subgroup H of G, by one walk over G.

    Returns the coset number of each element index of G, and the element
    indices of each coset.  Cosets are numbered by their first element in
    enumeration order, and each coset's first index is that element.  Each
    element not yet labelled labels its coset H g (|H| products, |G| in all).
    """
    index, right_mul = G.index, G.action.right_mul
    label = [-1] * G.order
    cosets: list[list[int]] = []
    for i, g in enumerate(G.elements):
        if label[i] < 0:
            number = len(cosets)
            coset = list(map(index.__getitem__, map(right_mul(g), H.elements)))
            for j in coset:
                label[j] = number
            cosets.append(coset)
    return label, cosets


def _scan(G: FiniteGroup, keep: Callable[[Element], bool],
          H: FiniteGroup | None = None) -> FiniteGroup:
    """The subgroup of the elements h of G with keep(h), by a walk over G.

    The elements passing keep must form a subgroup of G, as stabilizers do
    ({h : P^h = P}, {h : h commutes with X}).  So when every generator of G
    passes, the answer is G itself: the generators are tested first, up to
    the first that fails, and G comes back with no walk.

    Otherwise H is a subgroup of G already known to lie in the answer (None
    for the trivial group), so keep is constant on each right coset H g: the
    first element of each coset is tested, and on a pass the whole coset is
    kept.  That is [G:H] tests instead of |G|.  Kept cosets hold G's own
    element objects, not the fresh products, so they add no tuples.  That
    result goes through from_elements, so it depends only on the element set.
    """
    if all(map(keep, G.generators)):
        return G
    if H is None or H.order == 1:
        return FiniteGroup.from_elements(G.action, filter(keep, G.elements))
    elements = G.elements
    kept = [elements[j] for coset in right_cosets(G, H)[1]
            if keep(elements[coset[0]]) for j in coset]
    return FiniteGroup.from_elements(G.action, kept)


def _commutes_with(G: FiniteGroup, xs: Sequence[Element]) -> Callable[[Element], bool]:
    mul = G.action.mul
    return lambda h: all(mul(h, x) == mul(x, h) for x in xs)


def _normalizes(G: FiniteGroup, g: Element, P: FiniteGroup) -> bool:
    """Whether g^-1 x g lies in P for each generator x of P, by two plain
    products: ``sylow_subgroup`` calls this about 2,700 times for GL(4,2)
    at p = 2, on P with few generators, and a ``conjugator`` per call costs more."""
    mul = G.action.mul
    ginv = G.action.inv(g)
    for x in P.generators:
        if mul(mul(ginv, x), g) not in P.index:
            return False
    return True


def is_normal(G: FiniteGroup, N: FiniteGroup) -> bool:
    """Whether every generator of G normalizes N."""
    return all(_normalizes(G, g, N) for g in G.generators)


def centralizer(G: FiniteGroup, g: Element) -> FiniteGroup:
    """The subgroup {h in G : hg = gh}."""
    if g not in G.index:
        raise ElementNotInGroup("element not in group")
    return _scan(G, _commutes_with(G, (g,)))


def centralizer_of_subgroup(G: FiniteGroup, P: FiniteGroup) -> FiniteGroup:
    """C_G(P); when P <= G the walk keeps whole right cosets of Z(P)."""
    return _scan(G, _commutes_with(G, P.generators), center(P) if P.is_subgroup_of(G) else None)


@cached_per_group
def normalizer(G: FiniteGroup, P: FiniteGroup) -> FiniteGroup:
    """N_G(P) by a walk over G (P need not be a subgroup of G).

    When every generator of G normalizes P the answer is G itself.
    Otherwise, when P <= G, P lies in N_G(P), so one test per right coset
    P g decides the whole coset: [G:P] tests, and the kept cosets go through
    from_elements.  When P is not in G every element is tested.  The result
    is memoized on G, keyed on the object P.
    """
    return _scan(G, lambda h: _normalizes(G, h, P), P if P.is_subgroup_of(G) else None)


@cached_per_group
def center(G: FiniteGroup) -> FiniteGroup:
    return _scan(G, _commutes_with(G, G.generators))


@dataclass(frozen=True)
class OrbitCertificate:
    orbit_size: int
    normalizer_order: int | None
    conjugates: frozenset[frozenset]


def subgroup_orbit(action: Action, ambient_generators: Sequence[Element],
                   P: FiniteGroup, cap: int | None = None,
                   ambient_order: int | None = None) -> OrbitCertificate:
    """Orbit of P under conjugation by the ambient generators.

    Conjugates are keyed by their element sets (``conjugates``), so distinct
    subgroups are never merged.  When the ambient order is known the
    normalizer order follows by orbit-stabilizer.
    """
    maps = [lambda sub, conj=conjugator(action, g): frozenset(map(conj, sub))
            for g in ambient_generators]
    orbit, _ = _orbit(frozenset(P.elements), maps, cap=cap)
    norm_order = None
    if ambient_order is not None:
        if ambient_order % len(orbit):
            raise RuntimeError("orbit size does not divide ambient order")
        norm_order = ambient_order // len(orbit)
    return OrbitCertificate(len(orbit), norm_order, frozenset(orbit))


# ---------------------------------------------------------------------------
# Sylow subgroups
# ---------------------------------------------------------------------------


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


@cached_per_group
def sylow_subgroup(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup by the normalizer extension loop.

    Starting from the trivial group, repeatedly pass to the normalizer and
    extend by the p-part of the next element whose p-part lies outside.
    "Next" is along one walk of the element indices, never restarted: step
    1 while the group is trivial (G normalizes it), then the least
    s >= |G| / golden ratio coprime to |G|, so the tests spread over the
    enumeration instead of running along one of ``_dimino``'s contiguous
    cosets, whose tests tend to fail together.  The result is deterministic.
    """
    target, n = _p_part(G.order, p), G.order
    spread = next(s for s in itertools.count(round(n * (sqrt(5) - 1) / 2)) if gcd(s, n) == 1)
    current = G.subgroup([])
    k = 0
    while current.order < target:
        step = 1 if current.order == 1 else spread
        for _ in range(n):
            k = (k + step) % n
            h = G.elements[k]
            if h in current.index or not _normalizes(G, h, current):
                continue
            o = G.element_order(h)
            x = G.power(h, o // _p_part(o, p))  # the p-part of h
            if x in current.index:
                continue
            current = G.subgroup(list(current.generators) + [x])
            break
        else:
            raise RuntimeError("Sylow extension loop stalled")
    return current


# ---------------------------------------------------------------------------
# double cosets
# ---------------------------------------------------------------------------


def double_cosets(G: FiniteGroup, S: FiniteGroup) -> Iterator[tuple[Element, list[int]]]:
    """Partition of G into S-S double cosets, one coset at a time.

    Each coset comes as its representative, the first element in enumeration
    order, and the indices of its members.  The right cosets S g are labelled
    first by ``right_cosets`` (|G| products in all); S x S is then the union
    of the right cosets S (x s), s in S, at |S| products per double coset.
    Members therefore come grouped by right coset, not in enumeration order.
    """
    if not S.is_subgroup_of(G):
        raise SubgroupNotContained("S is not a subgroup of G")
    mul, index = G.action.mul, G.index
    label, cosets = right_cosets(G, S)
    taken = bytearray(len(cosets))
    for i, x in enumerate(G.elements):
        if taken[label[i]]:
            continue
        members = []
        for s in S.elements:
            k = label[index[mul(x, s)]]
            if not taken[k]:
                taken[k] = 1
                members += cosets[k]
        yield x, members


def trivial_intersection(G: FiniteGroup, S: FiniteGroup, x: Element) -> bool:
    """Whether S meets its conjugate S^x trivially.  The walk stops at the
    second s in S with s^x in S, the identity being the first."""
    inside = filter(S.index.__contains__, map(conjugator(G.action, x), S.elements))
    return len(list(itertools.islice(inside, 2))) < 2


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def quotient_group(G: FiniteGroup, N: FiniteGroup) -> FiniteGroup:
    """G/N as a permutation group on the cosets of N.

    Cosets are numbered as by ``right_cosets``, and each is represented by
    its first element in G's enumeration order.  The coset number of each
    element index of G is stored in ``marks["coset_of"]``.
    """
    if not N.is_subgroup_of(G):
        raise SubgroupNotContained("N is not a subgroup of G")
    if not is_normal(G, N):
        raise NotNormal("N is not normal in G")
    coset_of, cosets = right_cosets(G, N)
    reps = [G.elements[coset[0]] for coset in cosets]
    n_cosets = len(reps)
    if n_cosets * N.order != G.order:
        raise RuntimeError("coset decomposition inconsistent")
    index = G.index
    gen_perms = [tuple(coset_of[index[x]] for x in map(G.action.right_mul(g), reps))
                 for g in G.generators]
    Q = FiniteGroup.generate(PermAction(n_cosets), gen_perms, cap=n_cosets + 1,
                             marks={"coset_of": coset_of})
    if Q.order != n_cosets:
        raise RuntimeError("quotient order mismatch")
    return Q


@cached_per_group
def derived_subgroup(G: FiniteGroup) -> FiniteGroup:
    mul, inv = G.action.mul, G.action.inv
    comms = {mul(mul(inv(a), inv(b)), mul(a, b)) for a in G.generators for b in G.generators}
    return _normal_closure(G, sorted(comms))


def is_abelian(G: FiniteGroup) -> bool:
    """Whether the generators of G commute pairwise."""
    return all(map(_commutes_with(G, G.generators), G.generators))


def abelian_invariants(A: FiniteGroup) -> tuple[int, ...]:
    """Invariant factors (d1 >= d2 >= ..., each dividing the previous) of an
    abelian group, by repeatedly splitting off an element of maximal order.
    Raises ValueError when A is not abelian."""
    if not is_abelian(A):
        raise ValueError(f"{A!r} is not abelian")
    factors = []
    current = A
    while current.order > 1:
        best = max(current.elements, key=current.element_order)  # the first of maximal order
        factors.append(current.element_order(best))
        current = quotient_group(current, current.subgroup([best]))
    return tuple(factors)


def _normal_closure(G: FiniteGroup, seed: Sequence[Element]) -> FiniteGroup:
    maps = [conjugator(G.action, g) for g in G.generators]
    current = FiniteGroup.generate(G.action, list(seed), cap=G.order + 1)
    while True:
        extra = [y for conj in maps for y in map(conj, current.generators)
                 if y not in current.index]
        if not extra:
            return current
        current = FiniteGroup.generate(G.action, list(current.generators) + extra,
                                       cap=G.order + 1)


def two_core(G: FiniteGroup) -> FiniteGroup:
    """O_2(G), the largest normal 2-subgroup: each class representative
    joins when its normal closure with those taken so far is a 2-group."""
    gens: list[Element] = []
    for cls in conjugacy_classes(G):
        candidate = _normal_closure(G, gens + [cls.rep])
        if candidate.order == _p_part(candidate.order, 2):
            gens = list(candidate.generators)
    return _normal_closure(G, gens)


# ---------------------------------------------------------------------------
# subgroups of p-groups
# ---------------------------------------------------------------------------


def _p_group_prime(P: FiniteGroup) -> int:
    """The prime p with |P| a power of p (2 for the trivial group)."""
    primes = _prime_factors(P.order)
    if len(primes) > 1:
        raise ValueError(f"{P!r} is not a p-group")
    return primes[0] if primes else 2


def _discrete_log_table(P: FiniteGroup, basis: list[tuple], p: int) -> dict[tuple, tuple]:
    """Map each element of the elementary abelian p-group P to its exponent
    vector over the basis."""
    table = {functools.reduce(P.action.mul, map(P.power, basis, vec), P.identity): vec
             for vec in itertools.product(range(p), repeat=len(basis))}
    if len(table) != P.order:
        raise RuntimeError("basis does not span the elementary abelian group")
    return table


@cached_per_group
def frattini_subgroup(P: FiniteGroup) -> FiniteGroup:
    """Phi(P) = P' P^p for a p-group P, generated by the derived subgroup and
    the p-th powers of P's generators: modulo P' the p-th power map is a
    homomorphism, so those powers give every p-th power."""
    p = _p_group_prime(P)
    gens = list(derived_subgroup(P).generators) + [P.power(g, p) for g in P.generators]
    return FiniteGroup.generate(P.action, gens, cap=P.order + 1)


def maximal_subgroups(P: FiniteGroup) -> list[FiniteGroup]:
    """The maximal subgroups of a p-group P, as the preimages of the
    hyperplanes of P/Phi(P).

    Phi(P) is the intersection of the maximal subgroups, each of index p,
    and P/Phi(P) is elementary abelian, so the maximal subgroups are the
    preimages of the index-p subgroups of the vector space F_p^d = P/Phi(P):
    the kernels of the nonzero linear forms, one per line of forms (first
    nonzero coefficient 1, in lexicographic order).  Raises ValueError when
    P is not a p-group.
    """
    p = _p_group_prime(P)
    F = quotient_group(P, frattini_subgroup(P))
    basis = _greedy_generators(F)
    logs = _discrete_log_table(F, basis, p)
    # F acts regularly on the cosets: the element of the coset Phi g sends
    # Phi, coset 0, to Phi g
    coords = {x[0]: v for x, v in logs.items()}
    vectors = [coords[c] for c in F.marks["coset_of"]]
    out = []
    for form in itertools.product(range(p), repeat=len(basis)):
        if next(filter(None, form), 0) != 1:
            continue
        members = [g for g, v in zip(P.elements, vectors)
                   if not sum(a * b for a, b in zip(form, v)) % p]
        out.append(FiniteGroup.from_elements(P.action, members))
    return out


def subgroup_levels(P: FiniteGroup) -> Iterator[list[FiniteGroup]]:
    """The subgroups of a p-group P of index p^k, for k = 0, 1, ... while
    any are left: a subgroup of index p^(k+1) is maximal in one of index
    p^k, so each level is the maximal subgroups of the one before, kept once
    by element set."""
    level = [P]
    while level:
        yield level
        level = list({frozenset(M.elements): M for H in level
                      for M in maximal_subgroups(H)}.values())


def subgroups(P: FiniteGroup) -> list[FiniteGroup]:
    """Every subgroup of a p-group P, level by level from P itself."""
    return [H for level in subgroup_levels(P) for H in level]


# ---------------------------------------------------------------------------
# isomorphism identification
# ---------------------------------------------------------------------------


def _greedy_generators(G: FiniteGroup) -> list[Element]:
    """Greedy generators of G: each element, in enumeration order, that is
    not in the closure of the earlier picks (a basis in that order when G is
    elementary abelian)."""
    return _dimino(G.action, G.elements, G.order + 1)[0]


def _extend_iso(G: FiniteGroup, H: FiniteGroup, gens: list[Element],
                images: list[Element]) -> bool:
    """Whether gens -> images extends to an injective homomorphism on
    <gens>.  The walk pairs each element x of <gens> with its image f(x)
    and multiplies both on the right by each generator and its image; it
    fails as soon as x g is reached with a second image (f is not well
    defined) or f(x) f(g) is reached from a second element (f is not
    injective)."""
    pairs = [(G.action.right_mul(g), H.action.right_mul(h)) for g, h in zip(gens, images)]
    mapping = {G.identity: H.identity}
    reached = {H.identity}
    walk = [G.identity]
    for x in walk:  # walk grows during the loop
        fx = mapping[x]
        for times_g, times_h in pairs:
            y, fy = times_g(x), times_h(fx)
            known = mapping.get(y)
            if known is None:
                if fy in reached:
                    return False
                mapping[y] = fy
                reached.add(fy)
                walk.append(y)
            elif known != fy:
                return False
    return True


def isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Backtrack search for an isomorphism G -> H on G's greedy generators.

    Each generator's candidate images share its element order and class
    size, and the first image only ranges over class representatives of H,
    since composing with an inner automorphism is free.  After image k is
    chosen, ``_extend_iso`` checks the partial map on <g1..gk>, so a branch
    dies at the first level where it is not an injective homomorphism; at
    the last level <g1..gk> is G, and an injective homomorphism between
    groups of equal order is an isomorphism.
    """
    if G.order != H.order:
        return False
    gens = _greedy_generators(G)
    if not gens:
        return True
    table_g = class_index_table(G)
    classes_g = conjugacy_classes(G)
    g_keys = [(G.element_order(g), classes_g[table_g[G.index[g]]].size) for g in gens]
    classes_h = conjugacy_classes(H)
    table_h = class_index_table(H)
    h_keys = [(H.element_order(e), classes_h[table_h[i]].size)
              for i, e in enumerate(H.elements)]
    # per level, computed once: the images with the generator's element
    # order and class size
    levels = [[c.rep for c in classes_h if h_keys[H.index[c.rep]] == g_keys[0]]]
    levels += [[e for e, key in zip(H.elements, h_keys) if key == g_keys[k]]
               for k in range(1, len(gens))]
    images: list[Element] = []

    def backtrack(k: int) -> bool:
        if k == len(gens):
            return True
        for cand in levels[k]:
            images.append(cand)
            if _extend_iso(G, H, gens[:k + 1], images) and backtrack(k + 1):
                return True
            images.pop()
        return False

    return backtrack(0)


def identify(G: FiniteGroup, reference: FiniteGroup) -> str | None:
    """Return "isomorphism-verified" when ``isomorphic`` finds an
    isomorphism from G onto the reference group, else None."""
    return "isomorphism-verified" if isomorphic(G, reference) else None


# ---------------------------------------------------------------------------
# induced outer automorphism groups
# ---------------------------------------------------------------------------


def conjugation_permutation(N_action: Action, g: Element, P: FiniteGroup) -> Element:
    """The permutation x -> x^g of P's element indices."""
    images = tuple(map(P.index.get, map(conjugator(N_action, g), P.elements)))
    if None in images:
        raise DoesNotNormalize("element does not normalize the subgroup")
    return images


def _coset_key(inner: FiniteGroup, columns: list[tuple], base: Sequence[int],
               phi: Element) -> Element:
    """Label of the coset inner * phi: the member psi * phi whose images of
    the base points are least (the first such psi on ties).  An automorphism
    is fixed by its base images, so only that one member is built in full.
    columns[j] lists psi[j] over inner's elements, so the comparison runs
    column-wise at C speed."""
    *_, i = min(zip(*[columns[phi[b]] for b in base], range(inner.order)))
    return inner.action.mul(inner.elements[i], phi)


def induced_outer(N_generators: Sequence[Element], P: FiniteGroup,
                  action: Action | None = None) -> FiniteGroup:
    """Image of <N_generators> in Aut(P), modulo Inn(P), as a quotient group.

    The automorphism group is never enumerated.  Cosets of Inn(P) inside the
    image are explored by orbit, each coset keyed by its member with the least
    images of P's generators (the base); the result is the regular permutation
    action of the outer group on those cosets, generated by the permutations
    the orbit induces.
    """
    action = action or P.action
    perm_action = PermAction(P.order)
    inner_gens = [conjugation_permutation(action, g, P) for g in P.generators]
    inner = FiniteGroup.generate(perm_action, inner_gens, cap=P.order ** 2)
    base = [P.index[x] for x in P.generators]
    # the label of Inn(P) itself: its member with the least base images
    start = min(inner.elements, key=lambda psi: [psi[b] for b in base])
    columns = list(zip(*inner.elements))
    mults = [perm_action.right_mul(conjugation_permutation(action, g, P)) for g in N_generators]
    maps = [lambda rep, times=times: _coset_key(inner, columns, base, times(rep))
            for times in mults]
    cosets, out_gens = _orbit(start, maps)
    n = len(cosets)
    Q = FiniteGroup.generate(PermAction(n), out_gens, cap=n + 1)
    if Q.order != n:
        raise RuntimeError("outer quotient action is not regular")
    return Q
