"""Exact integer linear algebra: Smith normal form and its products.

Matrices are plain lists of row lists of Python ints, so everything is exact
and overflow-free.  Shapes are passed explicitly wherever an empty matrix
would make them ambiguous.

The sparse readers (sparse_columns, pack_mod_p, column_echelon, rank_mod_p)
take a matrix as sparse rows of (column, coefficient) pairs instead; all but
sparse_columns work over GF(p), packing a vector one bit per entry into a
Python int for p = 2 and keeping it as a list otherwise.  The echelon is
read only for its pivot count, the rank.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, mul

from .record import Record, assign


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """a @ b; both matrices must be nonempty and compatible."""
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cols):
                    acc[j] += x * brow[j]
        out.append(acc)
    return out


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    """a @ v, touching only the nonzero entries of v."""
    nz = [k for k, x in enumerate(v) if x]
    if len(nz) < 2:     # itemgetter of one index returns a bare entry
        return [sum(row[k] * v[k] for k in nz) for row in a]
    get, xs = itemgetter(*nz), [v[k] for k in nz]
    return [sum(map(mul, get(row), xs)) for row in a]


class SmithForm(Record, eq=False):
    """u @ a @ v == d with d diagonal, nonnegative, d[i] | d[i+1].

    u and v are unimodular; u_inv is the exact integer inverse of u.
    Transforms the caller opted out of (track=...) are None, and v holds
    only the leading rows the caller kept (v_rows=...).
    """

    __slots__ = ("rows", "cols", "d", "u", "v", "u_inv")

    def __init__(self, rows: int, cols: int, d: list[list[int]], u: list[list[int]] | None,
                 v: list[list[int]] | None, u_inv: list[list[int]] | None):
        assign(self, "rows", rows)
        assign(self, "cols", cols)
        assign(self, "d", d)
        assign(self, "u", u)
        assign(self, "v", v)
        assign(self, "u_inv", u_inv)

    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(self.rows, self.cols))]


def smith_normal_form(a, rows: int | None = None, cols: int | None = None,
                      track: str = "uUv", v_rows: int | None = None) -> SmithForm:
    """Diagonalize over the integers.

    track selects which transforms to carry along: "u" for u, "U" for u_inv,
    "v" for v.  Skipping unused ones saves most of the work on large
    matrices; so does v_rows, which keeps only the leading v_rows rows of
    v (at most cols; default all).  The pivot at each step is the first
    entry of least absolute value in row-major order of the trailing block,
    so the result does not depend on track or v_rows.
    """
    m = [list(row) for row in a]
    r = len(m) if rows is None else rows
    c = (len(m[0]) if m else 0) if cols is None else cols
    if len(m) != r or any(len(row) != c for row in m):
        raise ValueError("matrix shape disagrees with declared dimensions")

    # Column operations on u_inv and v are row operations on their
    # transposes, so every transform is kept as rows and updated row-wise.
    u = identity_matrix(r) if "u" in track else None
    ui_t = identity_matrix(r) if "U" in track else None
    # v_t's rows are v's columns, cut to their first v_rows entries
    kept = c if v_rows is None else v_rows
    v_t = ([[1 if i == j else 0 for j in range(kept)] for i in range(c)]
           if "v" in track else None)

    def combine(mat, i, j, q):
        # row_i += q * row_j, visiting only the nonzero entries of row_j
        row_i, row_j = mat[i], mat[j]
        for k in compress(range(len(row_j)), row_j):
            row_i[k] += q * row_j[k]

    def swap(mat, i, j):
        mat[i], mat[j] = mat[j], mat[i]

    def swap_rows(i, j):
        swap(m, i, j)
        if u is not None:
            swap(u, i, j)
        if ui_t is not None:
            swap(ui_t, i, j)

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]
        if ui_t is not None:
            ui_t[i] = [-x for x in ui_t[i]]

    def add_row(i, j, q):
        # row_i += q * row_j
        combine(m, i, j, q)
        if u is not None:
            combine(u, i, j, q)
        if ui_t is not None:
            combine(ui_t, j, i, -q)

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        if v_t is not None:
            swap(v_t, i, j)

    def add_col(i, j, q):
        # col_i += q * col_j, called only with j the pivot, whose column of m
        # is zero off the diagonal by then
        m[j][i] += q * m[j][j]
        if v_t is not None:
            combine(v_t, i, j, q)

    t = 0
    limit = min(r, c)
    while t < limit:
        # move the first absolutely smallest nonzero entry of the trailing
        # block to (t, t): the first row holding the least value, then its
        # first column; nothing can beat an entry of absolute value 1
        best, bi = 0, t
        for i in range(t, r):
            least = min(map(abs, filter(None, m[i][t:])), default=0)
            if least and (not best or least < best):
                best, bi = least, i
                if best == 1:
                    break
        if not best:
            break
        bj = next(j for j in range(t, c) if abs(m[bi][j]) == best)
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if m[t][t] < 0:
            negate_row(t)

        while True:
            restart = False
            for i in range(t + 1, r):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        add_row(i, t, -q)
                    if m[i][t]:
                        # remainder is a strictly smaller positive pivot
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, c):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        add_col(j, t, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            if any(m[i][t] for i in range(t + 1, r)):
                continue
            # cross is clear; enforce divisibility of the trailing block
            p = m[t][t]
            if p == 1:
                break
            viol = next((i for i in range(t + 1, r) if any(
                map(p.__rmod__, filter(None, m[i][t + 1:])))), None)  # x % p
            if viol is None:
                break
            add_row(t, viol, 1)
        t += 1

    def transpose(mat):
        return None if mat is None else [list(col) for col in zip(*mat)]

    return SmithForm(rows=r, cols=c, d=m, u=u, v=transpose(v_t),
                     u_inv=transpose(ui_t))


def sparse_columns(rows, cols: int) -> list[list[tuple[int, int]]]:
    """The columns of the integer matrix with cols columns whose rows are
    given sparsely as lists of (column, coefficient) pairs: column j as the
    list of (row, coefficient) pairs of its terms, in row order.  A row
    appears once per term it holds in column j; its coefficients add."""
    columns: list = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, c in row:
            columns[j].append((i, c))
    return columns


def pack_mod_p(pairs, length: int, p: int):
    """The vector of the given length over GF(p) whose entries are the sums
    of the (index, coefficient) pairs, packed as column_echelon packs it."""
    if p == 2:
        x = 0
        for i, c in pairs:
            if c & 1:
                x ^= 1 << i
        return x
    x = [0] * length
    for i, c in pairs:
        x[i] += c
    return [v % p for v in x]


def column_echelon(rows, cols: int, p: int) -> dict:
    """An echelon basis over GF(p), p prime, of the column space of the
    integer matrix with cols columns whose rows are given sparsely as lists
    of (column, coefficient) pairs.

    A column may repeat within a row (its coefficients add) and coefficients
    need not be reduced.  Each column is gathered from the pairs
    (sparse_columns), reduced against the pivots found so far (_add_pivot)
    and kept when it does not vanish, so the pivots are keyed by lead and
    their number is the rank.  For p = 2 a vector is packed one bit per
    entry into a Python int (entry i is bit i) and its lead is its bit
    length, so reduction is XOR; for odd p vectors are lists whose lead is
    the first nonzero index, scaled to a leading 1.
    """
    pivots: dict = {}
    for pairs in sparse_columns(rows, cols):
        _add_pivot(pivots, pack_mod_p(pairs, len(rows), p), p)
    return pivots


def _add_pivot(pivots: dict, x, p: int) -> None:
    """Reduce x against the pivots until its lead has none and keep what
    is left as a new pivot; an x that reduces to zero adds nothing."""
    if p == 2:
        while x:
            top = x.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = x
                return
            x ^= pivot
        return
    lead = next((j for j, v in enumerate(x) if v), None)
    while lead is not None:
        pivot = pivots.get(lead)
        if pivot is None:
            scale = pow(x[lead], -1, p)
            pivots[lead] = [v * scale % p for v in x]
            return
        c = x[lead]
        x = [(v - c * y) % p for v, y in zip(x, pivot)]
        lead = next((j for j in range(lead + 1, len(x)) if x[j]), None)


def rank_mod_p(rows, cols: int, p: int) -> int:
    """Rank over GF(p), p prime, of the integer matrix with cols columns
    whose rows are given sparsely as lists of (column, coefficient) pairs:
    the pivot count of column_echelon."""
    return len(column_echelon(rows, cols, p))
