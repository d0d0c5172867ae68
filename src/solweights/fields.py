"""Finite fields: prime fields GF(p) and the quadratic tower over GF(5).

Tower levels are GF(5^(2^k)).  Level 0 is GF(5) with designated generator
omega_0 = 2 (multiplicative order 4); level k+1 adjoins z with z^2 = omega_k,
and omega_{k+1} = z then has order 2^(k+3).  Elements are encoded as integers
in [0, size): a level-(k+1) element a + b*z is encoded as
enc(a) + enc(b) * 5^(2^k).  Subfield elements keep their encoding under this
convention, so embedding up the tower is the identity on encodings.

Every field has add/mul/neg/inv tables, and its arithmetic indexes them.
Prime fields fill them eagerly as lists.  Tower levels, GF(25) and up, fill
them lazily by pair arithmetic over the base field's tables, entry by entry,
as they are read: the pipeline's matrix groups read only a small share of
a level's products (about a thousand of GF(625)'s 390,625 in the l = 1
model), so whole tables would cost more to build than they save.
"""

from __future__ import annotations

import functools
import random

TABLE_MAX = 1024


class _Memo(dict):
    """A lazily filled table: a missing entry is computed by fn and kept."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class FiniteField:
    """A finite field with integer-encoded elements.

    Either a prime field GF(p) or a level of the quadratic tower over GF(5).
    Use :func:`prime_field` / :func:`tower_field` to construct; instances are
    cached and compared by identity.
    """

    def __init__(self, char: int, level: int, base: "FiniteField | None"):
        self.char = char
        self.level = level
        self.base = base
        if base is None:
            self.size = char
        else:
            self.size = base.size * base.size
        self.half = None if base is None else base.size
        # designated generator of the 2-power torsion: order 2^(level+2) at
        # characteristic 5
        if char == 5:
            self.omega = 2 if base is None else base.size  # z = (0, 1)
        else:
            self.omega = None
        self._build_tables()
        if base is not None:
            self._check_irreducible()
        self._verify_axioms()

    # -- construction helpers ----------------------------------------------

    def _build_tables(self):
        if self.base is None:
            n = self.size
            self.add_table = [[(a + b) % n for b in range(n)] for a in range(n)]
            self.mul_table = [[a * b % n for b in range(n)] for a in range(n)]
            self.neg_table = [-a % n for a in range(n)]
            self.inv_table = [0] + [self.mul_table[a].index(1) for a in range(1, n)]
        else:
            # rows and entries are computed on first read and kept
            self.add_table = _Memo(lambda a: _Memo(functools.partial(self._add_slow, a)))
            self.mul_table = _Memo(lambda a: _Memo(functools.partial(self._mul_slow, a)))
            self.neg_table = _Memo(self._neg_slow)
            self.inv_table = _Memo(self._inv_slow)

    def _check_irreducible(self):
        # z^2 - omega_base irreducible over the base iff omega_base is a
        # non-square there; equivalent to omega^((q-1)/2) != 1
        base = self.base
        w = base.omega
        e = (base.size - 1) // 2
        if base.pow(w, e) == 1:
            raise ValueError("defining element is a square; tower step not irreducible")

    def _verify_axioms(self):
        # seeded associativity/distributivity spot checks; inverses are
        # checked exhaustively on fields of at most TABLE_MAX elements
        rng = random.Random(self.size)
        for _ in range(24):
            a = rng.randrange(self.size)
            b = rng.randrange(self.size)
            c = rng.randrange(self.size)
            if self.mul(a, self.mul(b, c)) != self.mul(self.mul(a, b), c):
                raise AssertionError("multiplication is not associative")
            if self.mul(a, self.add(b, c)) != self.add(self.mul(a, b), self.mul(a, c)):
                raise AssertionError("multiplication does not distribute")
        if self.size <= TABLE_MAX:
            for a in range(1, self.size):
                if self.mul(a, self.inv_table[a]) != 1:
                    raise AssertionError("inverse table is wrong")

    # -- arithmetic ----------------------------------------------------------

    def _split(self, a: int) -> tuple[int, int]:
        return a % self.half, a // self.half

    def _join(self, lo: int, hi: int) -> int:
        return lo + hi * self.half

    def _add_slow(self, a: int, b: int) -> int:
        A = self.base.add_table
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        return self._join(A[a0][b0], A[a1][b1])

    def _neg_slow(self, a: int) -> int:
        N = self.base.neg_table
        a0, a1 = self._split(a)
        return self._join(N[a0], N[a1])

    def _mul_slow(self, a: int, b: int) -> int:
        # (a0 + a1 z)(b0 + b1 z) = (a0 b0 + w a1 b1) + (a0 b1 + a1 b0) z; w
        # leads its product, so a lazily tabled base fills one row for it
        A, M = self.base.add_table, self.base.mul_table
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        Ma0, Ma1 = M[a0], M[a1]
        lo = A[Ma0[b0]][M[self.base.omega][Ma1[b1]]]
        hi = A[Ma0[b1]][Ma1[b0]]
        return self._join(lo, hi)

    def _inv_slow(self, a: int) -> int:
        # (a0 + a1 z)^-1 = (a0 - a1 z) / (a0^2 - w a1^2); 0 maps to 0, as in the
        # prime fields' list tables
        A, M, N = self.base.add_table, self.base.mul_table, self.base.neg_table
        a0, a1 = self._split(a)
        d = self.base.inv_table[A[M[a0][a0]][N[M[self.base.omega][M[a1][a1]]]]]
        return self._join(M[d][a0], M[d][N[a1]])

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def pow(self, a: int, e: int) -> int:
        result = 1
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.inv_table[a]

    def __repr__(self):
        if self.base is None:
            return f"GF({self.char})"
        return f"GF({self.char}^{2 ** self.level})"


@functools.cache
def prime_field(p: int) -> FiniteField:
    """GF(p) for a prime p (2, 3, 5 are the ones used here)."""
    return FiniteField(p, 0, None)


@functools.cache
def tower_field(level: int) -> FiniteField:
    """GF(5^(2^level)) in the fixed quadratic tower."""
    if level < 0:
        raise ValueError("tower level must be non-negative")
    if level == 0:
        return prime_field(5)
    return FiniteField(5, level, tower_field(level - 1))


def field_tower(level: int) -> tuple[FiniteField, FiniteField, int]:
    """Return (F_q, F_{q^2}, omega) for q = 5^(2^level), level <= 3.

    omega is the designated element of F_q of multiplicative order
    2^(level+2); F_{q^2} extends F_q by z with z^2 = omega.
    """
    if not 0 <= level <= 3:
        raise ValueError("field tower is provided for levels 0..3 only")
    fq = tower_field(level)
    fq2 = tower_field(level + 1)
    return fq, fq2, fq.omega
