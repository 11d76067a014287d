"""Exact rational arithmetic and small-scale lattice linear algebra.

Rational scalars are ``fractions.Fraction`` throughout (always in lowest
terms, positive denominator, exact arithmetic).  Lattice vectors are plain
tuples of ints, dual/rational vectors are tuples of Fractions.  Everything
here, as in the whole package, is a pure function in integers and Fractions.

Every determinant, rank, inverse and adjugate here is one run of `eliminate`
on rows scaled to integers: Gauss-Jordan elimination by the fraction-free
rank-one step `exchange` (Bareiss, Math. Comp. 22, 1968), which leaves |det|
times the solution in the right-hand columns.  A solve, interpolation
(`piecewise.lagrange_interpolate`) included, is the inverse times the
right-hand side.  `fans` shares both: the wall walk's seed cone is one
`eliminate`, and every other cone's table is one `exchange` from a neighbour's.
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


def exchange(table: Sequence[LatticeVec], mult: int, p: int, col: int) -> tuple[list[LatticeVec], int]:
    """table = mult . B^-1 . M (mult = |det B|) once basis vector p gives way to M's column col:
    for c that column of the table, mult becomes |c_p|, row p sign(c_p) table[p] and row i
    (|c_p| table[i] - c_i sign(c_p) table[p]) / mult, an exact division (Bareiss's update)."""
    tp = table[p] if table[p][col] > 0 else tuple([-y for y in table[p]])
    a = tp[col]
    return [tp if i == p else tuple([(a * x - row[col] * y) // mult for x, y in zip(row, tp)])
            for i, row in enumerate(table)], a


def eliminate(rows: Sequence[Sequence[int]], cols: Optional[Sequence[int]] = None) -> tuple[list[int], list, int]:
    """Gauss-Jordan elimination of integer rows by `exchange` steps, from the standard basis.

    Each column of `cols` (default: all), in order, takes the place of the
    first row at or below the next pivot row where it is nonzero, and that
    row moves up to the pivot row; a column with no such row is in the span
    of the pivots so far and is skipped.  Returns (pivot columns, table, d):
    the table is |d| B^-1 M for B the pivot columns in order, and d = det B,
    signed by each step's pivot entry c_p and the parity of its row cycle.
    """
    table, mult, sign, pivots = list(rows), 1, 1, []
    for col in range(len(table[0]) if table else 0) if cols is None else cols:
        k = len(pivots)
        p = next((p for p in range(k, len(table)) if table[p][col]), None)
        if p is None:
            continue
        sign *= (1 if table[p][col] > 0 else -1) * (-1) ** (p - k)
        table, mult = exchange(table, mult, p, col)
        table.insert(k, table.pop(p))
        pivots.append(col)
    return pivots, table, sign * mult


# -- public operations ----------------------------------------------------------


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> RatVec:
    """Solve the square system (rows)x = rhs exactly, as `matrix_inverse(rows)` times rhs.

    Raises ValueError("singular system") when the matrix has no inverse.
    """
    n = len(rows)
    if any(len(r) != n for r in rows) or len(rhs) != n:
        raise ValueError("solve_linear expects a square system")
    inverse = matrix_inverse(rows)
    if inverse is None:
        raise ValueError("singular system")
    return tuple(dot(row, rhs) for row in inverse)


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    pivots, _, d = eliminate(rows)
    return d if len(pivots) == len(rows) else 0


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square int or rational matrix."""
    ints, scale = integer_rows(rows)
    return Fraction(det_int(ints), scale)


def adjugate(rows: Sequence[Sequence]) -> Optional[tuple[int, tuple[LatticeVec, ...]]]:
    """(d, d * inverse) of a square matrix, or None when singular.

    One `eliminate` of A's columns of [A | I], rows scaled to integers, leaves |d| A^-1
    on the right; for integer rows d is the determinant and d * inverse the adjugate.
    """
    n = len(rows)
    aug, _ = integer_rows([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    pivots, table, d = eliminate(aug, range(n))
    if len(pivots) < n:
        return None
    s = 1 if d > 0 else -1
    return d, tuple(tuple([s * x for x in row[n:]]) for row in table)


def matrix_inverse(rows: Sequence[Sequence]) -> Optional[tuple[RatVec, ...]]:
    """Exact inverse of a square matrix, or None when singular."""
    scaled = adjugate(rows)
    if scaled is None:
        return None
    d, adj = scaled
    return tuple(tuple(Fraction(v, d) for v in row) for row in adj)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank (row space dimension)."""
    return len(eliminate(integer_rows(rows)[0])[0])

