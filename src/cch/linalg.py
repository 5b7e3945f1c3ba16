"""Dense exact linear algebra over the rationals for small matrices.

Matrices are lists of rows of Fractions (or ints).  Rank is computed by
fraction-free elimination on integer rows: a row of ints is copied, and a
row holding a Fraction is scaled by the lcm of its denominators.

The chain complex (complexes.py) keeps its differential sparse and calls
only `rank`, on the nonzero blocks of the boundary.  The other helpers
have no caller in the library; they stay because the benchmark's tracer
(perfbench/tracing.py) resolves them by name.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm


def zeros(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a, b):
    n, k = len(a), len(a[0]) if a else 0
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        row = a[i]
        for t in range(k):
            x = row[t]
            if x == 0:
                continue
            brow = b[t]
            orow = out[i]
            for j in range(m):
                if brow[j]:
                    orow[j] += x * brow[j]
    return out


def scale_columns(a, diag):
    """a @ diag(d): scale column j by diag[j]."""
    return [[x * diag[j] for j, x in enumerate(row)] for row in a]


def scale_rows(a, diag):
    """diag(d) @ a: scale row i by diag[i]."""
    return [[x * diag[i] for x in row] for i, row in enumerate(a)]


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def nonzero_entries(a):
    return [(i, j, x) for i, row in enumerate(a) for j, x in enumerate(row) if x != 0]


def _integer_rows(a):
    rows = []
    for row in a:
        if Fraction in map(type, row):
            den = lcm(*[x.denominator for x in row])
            row = [int(x * den) for x in row]
        rows.append(list(row))
    return rows


def rank(a) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    if not a or not a[0]:
        return 0
    m = _integer_rows(a)
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    prev = 1
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        piv = m[r][col]
        for i in range(r + 1, n_rows):
            head = m[i][col]
            mi, mr = m[i], m[r]
            for j in range(col + 1, n_cols):
                mi[j] = (piv * mi[j] - head * mr[j]) // prev
            mi[col] = 0
        prev = piv
        r += 1
        if r == n_rows:
            break
    return r
