"""Exact rational arithmetic and small-scale lattice linear algebra.

Rational scalars are ``fractions.Fraction`` throughout (always in lowest
terms, positive denominator, exact arithmetic).  Lattice vectors are plain
tuples of ints, dual/rational vectors are tuples of Fractions.  Everything
here is a pure function; no floating point is used anywhere.

Every determinant, rank, solve, inverse and adjugate here goes through
`echelon`: forward fraction-free elimination (Bareiss, Math. Comp. 22, 1968)
on rows scaled to integers one at a time, and solves finish with integer
back-substitution.  A fan eliminates no cone: `fans` reaches every cone's
adjugate from the standard basis by rank-one steps with the same division.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

LatticeVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


def dot(u: Sequence, v: Sequence):
    """Exact inner product of two equal-length vectors (int or Fraction)."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def primitivize(v: LatticeVec) -> LatticeVec:
    """Divide an integer vector by the gcd of its coordinates.

    The result spans the same ray and has coordinate gcd 1.
    """
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(a // g for a in v)


# -- the elimination kernel ---------------------------------------------------


def integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those factors."""
    out = []
    scale = 1
    for row in rows:
        mult = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def echelon(
    rows: Sequence[Sequence[int]], ncols: Optional[int] = None
) -> tuple[list[int], list[list[int]], int]:
    """Forward fraction-free (Bareiss) elimination of integer rows.

    Pivots are searched in the first `ncols` columns (default: all); a column
    without a pivot is skipped, so rank-deficient and non-square input is
    fine.  Returns (pivot columns, echelon rows, signed last pivot).  Every
    entry on or right of a row's pivot is a minor of the row-swapped input,
    so every division is exact, and for square input of full rank the signed
    last pivot is the determinant.  With no pivot at all it is 1.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    width = len(m[0]) if m else 0
    if ncols is None:
        ncols = width
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        top = m[r]
        if top[c] == 0:
            piv = next((i for i in range(r + 1, nrows) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], top
            top = m[r]
            sign = -sign
        p = top[c]
        cols = range(c + 1, width)
        for row in m[r + 1 :]:
            f = row[c]
            row[c] = 0
            for j in cols:
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        pivots.append(c)
        r += 1
    return pivots, m, sign * prev


def _solve_columns(
    rows: Sequence[Sequence], rhs_columns: Sequence[Sequence]
) -> Optional[tuple[int, list[list[int]]]]:
    """(d, ys) with A x_k = b_k and ys[k] = d * x_k in integers; None if A is singular.

    A is square with int or rational entries; d is its determinant after
    the rows of [A | b] were scaled to integers, so d * x_k is a Cramer
    numerator and back-substitution against d * b divides exactly.
    """
    n = len(rows)
    aug, _ = integer_rows([list(row) + [b[i] for b in rhs_columns] for i, row in enumerate(rows)])
    pivots, m, d = echelon(aug, n)
    if len(pivots) < n:
        return None
    ys = []
    for col in range(n, n + len(rhs_columns)):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            y[i] = (d * row[col] - sum(row[c] * y[c] for c in range(i + 1, n))) // row[i]
        ys.append(y)
    return d, ys


# -- public operations ----------------------------------------------------------


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> RatVec:
    """Solve the square system (rows)x = rhs exactly.

    Raises ValueError("singular system") when the matrix has no inverse.
    """
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_linear expects a square system")
    solved = _solve_columns(rows, [rhs])
    if solved is None:
        raise ValueError("singular system")
    d, (y,) = solved
    return tuple(Fraction(v, d) for v in y)


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    pivots, _, d = echelon(rows)
    return d if len(pivots) == len(rows) else 0


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square int or rational matrix."""
    ints, scale = integer_rows(rows)
    return Fraction(det_int(ints), scale)


def adjugate(rows: Sequence[Sequence]) -> Optional[tuple[int, tuple[LatticeVec, ...]]]:
    """(d, d * inverse) of a square matrix, or None when singular.

    For integer rows d is the determinant and d * inverse the adjugate.
    """
    n = len(rows)
    solved = _solve_columns(rows, [[int(i == j) for i in range(n)] for j in range(n)])
    if solved is None:
        return None
    d, ys = solved
    return d, tuple(zip(*ys))


def matrix_inverse(rows: Sequence[Sequence]) -> Optional[tuple[RatVec, ...]]:
    """Exact inverse of a square matrix, or None when singular."""
    scaled = adjugate(rows)
    if scaled is None:
        return None
    d, adj = scaled
    return tuple(tuple(Fraction(v, d) for v in row) for row in adj)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank (row space dimension)."""
    return len(echelon(integer_rows(rows)[0])[0])

