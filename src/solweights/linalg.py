"""Exact linear algebra over GF(2) (bit-packed) and GF(p) (small dense)."""

from __future__ import annotations


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of a matrix given as bit-packed row integers."""
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            low = p & -p
            if row & low:
                row ^= p
        if row:
            pivots.append(row)
            rank += 1
    return rank


def gram_gf2(rows: list[int]) -> list[int]:
    """N N^T over GF(2) for bit-packed rows: entry (i,k) = parity(row_i & row_k)."""
    n = len(rows)
    out = []
    for i in range(n):
        acc = 0
        ri = rows[i]
        for k in range(n):
            if (ri & rows[k]).bit_count() & 1:
                acc |= 1 << k
        out.append(acc)
    return out


# -- dense matrices over GF(p), rows as tuples of ints ----------------------


def mat_mul(p: int, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a b over GF(p).  b needs a row to give the product its width, so an
    inner dimension of 0 raises; the caller knows the zero product's shape."""
    if not b:
        raise ValueError("inner dimension 0: the product's width is not determined")
    rows_a, inner, cols_b = len(a), len(b), len(b[0])
    out = [[0] * cols_b for _ in range(rows_a)]
    for i in range(rows_a):
        row = a[i]
        acc = out[i]
        for k in range(inner):
            coeff = row[k]
            if coeff:
                bk = b[k]
                for j in range(cols_b):
                    acc[j] = (acc[j] + coeff * bk[j]) % p
    return out


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(p: int, mat: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p); returns (rows, pivot columns)."""
    rows = [list(r) for r in mat]
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                coeff = rows[i][c]
                rows[i] = [(rows[i][j] - coeff * rows[r][j]) % p for j in range(n_cols)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(p: int, mat: list[list[int]]) -> int:
    if not mat:
        return 0
    return len(rref(p, mat)[0])


def nullspace(p: int, mat: list[list[int]]) -> list[list[int]]:
    """Basis of the right kernel {v : mat v = 0} over GF(p)."""
    if not mat:
        return []
    n_cols = len(mat[0])
    reduced, pivots = rref(p, mat)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-reduced[r][fc]) % p
        basis.append(v)
    return basis


def fixed_space(p: int, mats: list[list[list[int]]], dim: int) -> list[list[int]]:
    """Basis of the common fixed space {v : M v = v for every M}."""
    if not mats:
        return [row[:] for row in identity(dim)]
    stacked: list[list[int]] = []
    for m in mats:
        for i in range(dim):
            stacked.append([(m[i][j] - (1 if i == j else 0)) % p for j in range(dim)])
    return nullspace(p, stacked)


def transpose(mat: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*mat)]


def det(p: int, mat: list[list[int]]) -> int:
    """Determinant over GF(p) by elimination."""
    rows = [list(r) for r in mat]
    n = len(rows)
    result = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c] % p:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = (-result) % p
        result = (result * rows[c][c]) % p
        inv = pow(rows[c][c], -1, p)
        for i in range(c + 1, n):
            if rows[i][c]:
                coeff = (rows[i][c] * inv) % p
                rows[i] = [(rows[i][j] - coeff * rows[c][j]) % p for j in range(n)]
    return result


def exterior_square(p: int, m: list[list[int]], dim: int) -> list[list[int]]:
    """Induced action on Lambda^2 in the basis e_i ^ e_j, i < j (lex order).

    Column (i,j) of the result holds the coordinates of (M e_i) ^ (M e_j),
    with the normalization e_j ^ e_i = -(e_i ^ e_j).
    """
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    index = {pr: k for k, pr in enumerate(pairs)}
    out = [[0] * len(pairs) for _ in range(len(pairs))]
    for col, (i, j) in enumerate(pairs):
        # (sum_a m[a][i] e_a) ^ (sum_b m[b][j] e_b)
        for a in range(dim):
            mai = m[a][i]
            if not mai:
                continue
            for b in range(dim):
                mbj = m[b][j]
                if not mbj or a == b:
                    continue
                coeff = (mai * mbj) % p
                if a < b:
                    row = index[(a, b)]
                    out[row][col] = (out[row][col] + coeff) % p
                else:
                    row = index[(b, a)]
                    out[row][col] = (out[row][col] - coeff) % p
    return out
