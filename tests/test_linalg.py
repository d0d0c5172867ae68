import random

import pytest

from solweights.linalg import (
    det,
    exterior_square,
    fixed_space,
    gf2_rank,
    gram_gf2,
    mat_mul,
    nullspace,
    rank,
    rref,
)


def brute_gf2_rank(rows, width):
    """Oracle: size of the row span, enumerated outright."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return len(span).bit_length() - 1


def test_gf2_rank_against_span_enumeration():
    rng = random.Random(3)
    for _ in range(50):
        rows = [rng.randrange(16) for _ in range(rng.randrange(1, 5))]
        assert gf2_rank(rows) == brute_gf2_rank(rows, 4)


def test_gf2_gram():
    rows = [0b101, 0b011]
    gram = gram_gf2(rows)
    # diagonal: popcount parity of each row; off-diagonal: parity of overlap
    assert gram[0] & 1 == 0  # popcount(101) = 2
    assert (gram[0] >> 1) & 1 == 1  # overlap 101 & 011 = 001


def test_rank_and_nullspace_dimensions():
    p = 3
    m = [[1, 2, 0], [2, 1, 0], [0, 0, 0]]
    r = rank(p, m)
    ns = nullspace(p, m)
    assert r + len(ns) == 3
    for v in ns:
        assert all(sum(m[i][j] * v[j] for j in range(3)) % p == 0 for i in range(3))


def test_rref_idempotent():
    p = 5
    m = [[2, 1], [4, 2]]
    reduced, pivots = rref(p, m)
    again, _ = rref(p, reduced)
    assert reduced == again
    assert pivots == [0]


def test_fixed_space_identity_and_negation():
    p = 3
    eye = [[1, 0], [0, 1]]
    neg = [[2, 0], [0, 2]]
    assert len(fixed_space(p, [eye], 2)) == 2
    assert len(fixed_space(p, [neg], 2)) == 0
    swap = [[0, 1], [1, 0]]
    fixed = fixed_space(p, [swap], 2)
    assert len(fixed) == 1 and fixed[0] == [1, 1]


def test_det_multiplicative():
    p = 5
    rng = random.Random(11)
    for _ in range(30):
        a = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        b = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        assert det(p, mat_mul(p, a, b)) == det(p, a) * det(p, b) % p


def test_exterior_square_of_identity_and_swap():
    p = 3
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    lam = exterior_square(p, eye, 3)
    assert lam == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # swap e1 <-> e2: e1^e2 -> e2^e1 = -(e1^e2); e1^e3 <-> e2^e3
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    lam = exterior_square(p, swap, 3)
    assert lam[0][0] == p - 1
    assert lam[1][2] == 1 and lam[2][1] == 1


def test_exterior_square_functorial():
    p = 3
    rng = random.Random(5)
    for _ in range(20):
        a = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        b = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        if det(p, a) == 0 or det(p, b) == 0:
            continue
        lhs = exterior_square(p, mat_mul(p, a, b), 3)
        rhs = mat_mul(p, exterior_square(p, a, 3), exterior_square(p, b, 3))
        assert lhs == rhs


def test_mat_mul_inner_dimension_zero_raises():
    # a 2 x 0 times a 0 x n matrix is the 2 x n zero matrix, but an empty b
    # does not say n
    with pytest.raises(ValueError, match="inner dimension 0"):
        mat_mul(3, [[], []], [])
