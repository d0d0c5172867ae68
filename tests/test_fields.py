import random

import pytest

from solweights.fields import _Memo, field_tower, prime_field, tower_field


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_designated_generator_order(level):
    fq, fq2, omega = field_tower(level)
    n = 2 ** (level + 2)
    assert fq.pow(omega, n) == 1
    assert fq.pow(omega, n // 2) != 1


def test_level_zero_omega_is_two():
    fq, _, omega = field_tower(0)
    assert omega == 2
    # 2^2 = 4 != 1 and 2^4 = 16 = 1 mod 5
    assert fq.mul(2, 2) == 4
    assert fq.pow(2, 4) == 1


@pytest.mark.parametrize("level", [1, 2, 3])
def test_tower_step_adjoins_square_root(level):
    prev = tower_field(level - 1)
    this = tower_field(level)
    z = this.omega
    assert this.mul(z, z) == prev.omega


def test_subfield_embedding_is_identity_on_encodings():
    f5 = tower_field(0)
    f25 = tower_field(1)
    for a in range(5):
        for b in range(5):
            assert f25.mul(a, b) == f5.mul(a, b)
            assert f25.add(a, b) == f5.add(a, b)


@pytest.mark.parametrize("size,field", [(25, tower_field(1)), (625, tower_field(2))])
def test_exhaustive_inverses_small_levels(size, field):
    assert field.size == size
    for a in range(1, size):
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_lazy_tables_match_pair_arithmetic(level):
    # every tower level fills its tables on first read; subfield encodings
    # must meet the subfield's tables (GF(625)'s from GF(5^8) up) across
    # that boundary
    f = tower_field(level)
    sub = tower_field(min(level - 1, 2))
    assert type(f.mul_table) is _Memo
    rng = random.Random(600 + level)
    for _ in range(200):
        a, b = rng.randrange(f.size), rng.randrange(f.size)
        assert f.add_table[a][b] == f._add_slow(a, b) == f.add(b, a)
        assert f.mul_table[a][b] == f._mul_slow(a, b) == f.mul(b, a)
        s, t = rng.randrange(sub.size), rng.randrange(sub.size)
        assert f.add(s, t) == sub.add_table[s][t]
        assert f.mul(s, t) == sub.mul_table[s][t]
    for _ in range(10):
        a = rng.randrange(1, f.size)
        assert f.mul(a, f.inv(a)) == 1
    assert f.inv_table[0] == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("level", [3, 4])
def test_lazy_inverse_by_norm_matches_power(level):
    # the lazy inv_table inverts through the norm to the base field; it must
    # agree with a^(q-2), and inv(0) must still fail
    f = tower_field(level)
    assert type(f.inv_table) is _Memo
    rng = random.Random(800 + level)
    for _ in range(20):
        a = rng.randrange(1, f.size)
        assert f.inv_table[a] == f.pow(a, f.size - 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for level in (1, 2, 3):
        f = tower_field(level)
        for _ in range(120):
            a = rng.randrange(f.size)
            b = rng.randrange(f.size)
            c = rng.randrange(f.size)
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0


def test_irreducibility_guard():
    # every constructed step already verified; the guard fires on a square
    f5 = prime_field(5)
    assert f5.pow(4, 2) == 1  # 4 = 2^2 is a square with sqrt 2, order 2


def test_prime_fields():
    for p in (2, 3, 5):
        f = prime_field(p)
        for a in range(1, p):
            assert f.mul(a, f.inv(a)) == 1
