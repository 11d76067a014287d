"""Exact rational polytopes: vertex enumeration, triangulation, volume.

Polytopes are handled in H-representation (a list of half-spaces
``<u, normal> >= offset`` with integer normals and rational offsets) and
V-representation (rational vertex tuples).  Vertex enumeration is the
exhaustive n-subset intersection of facet hyperplanes with feasibility
filtering: exact and perfectly adequate at the facet counts this package
sees (< 20).

Each polytope triangulates itself once, lazily, on first use: a fan-out
from its first vertex over a recursive triangulation of the facets that
avoid it, each facet triangulated by projecting out one coordinate.  So
every simplex vertex is a vertex of the polytope.  Volume, centroid and
the closed-form volume functions in `valuations` all read that cached
triangulation.  Every solve, rank, determinant and kernel vector here goes
through the fraction-free elimination kernel in `lattice`; simplex
determinants are `det_int` of the edge vectors scaled to integers.
"""

from __future__ import annotations

import math
import os
import warnings
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded, InvariantViolation
from .lattice import (
    RatVec,
    det_int,
    dot,
    gcd_vec,
    integer_rows,
    kernel_vector,
    matrix_rank,
    solve_or_none,
    vec_sub,
)

HalfSpace = tuple[tuple[int, ...], Fraction]  # (normal a, offset b): <u, a> >= b


def enumerate_vertices(halfspaces: Sequence[HalfSpace], dim: int) -> list[RatVec]:
    """All vertices of the intersection of half-spaces, lexicographically sorted.

    A vertex is the unique solution of some dim-subset of the boundary
    hyperplanes that satisfies every remaining constraint.
    """
    seen: dict[RatVec, None] = {}
    for subset in combinations(halfspaces, dim):
        point = solve_or_none([a for a, _ in subset], [b for _, b in subset])
        if point is None:
            continue
        if all(dot(point, a) >= b for a, b in halfspaces):
            seen.setdefault(point)
    return sorted(seen)


def recession_direction(normals: Sequence[Sequence[int]], dim: int) -> Optional[tuple]:
    """A nonzero direction in {u : <u, a_i> >= 0 for all i}, or None.

    None means the recession cone is trivial, i.e. the polyhedron with these
    normals is bounded.
    """
    line = kernel_vector(normals, dim)
    if line is not None:
        # the constraints fix fewer than dim directions: a full line remains
        return line
    # pointed cone: any nonzero element lies on a face, so scanning the
    # candidate extreme rays (kernels of dim-1 active constraints) finds a
    # direction whenever one exists
    for rows in combinations(normals, dim - 1):
        direction = kernel_vector(rows, dim)
        for cand in (direction, tuple(-x for x in direction)):
            if all(dot(cand, a) >= 0 for a in normals):
                return cand
    return None


def _affine_rank(points: Sequence[RatVec]) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([vec_sub(p, base) for p in points[1:]])


def _det_cols(vectors: Sequence[RatVec]) -> Fraction:
    """Determinant with the given columns (equal to the one with them as rows)."""
    rows, scale = integer_rows(vectors)
    return Fraction(det_int(rows), scale)


def triangulate(
    halfspaces: Sequence[HalfSpace],
    vertices: Sequence[RatVec],
    dim: int,
    apex: Optional[RatVec] = None,
) -> list[tuple[RatVec, ...]]:
    """Triangulate a full-dimensional polytope into rational simplices.

    The triangulation fans out from `apex` (default: the vertex average,
    which lies in the interior; any point of the polytope will do) over a
    recursive triangulation of each facet that does not contain the apex.
    Every returned simplex is a nondegenerate (dim+1)-tuple of points.
    """
    if not vertices:
        return []
    if dim == 1:
        lo, hi = min(vertices), max(vertices)
        return [(lo, hi)] if lo != hi else []
    if apex is None:
        apex = _average(vertices)
    return [(apex,) + boundary for boundary in _boundary_triangulation(halfspaces, vertices, dim, apex)]


def _boundary_triangulation(
    halfspaces: Sequence[HalfSpace], vertices: Sequence[RatVec], dim: int, apex: RatVec
) -> Iterable[tuple[RatVec, ...]]:
    """(dim-1)-simplices covering the facets that do not contain `apex`."""
    canonical = _dedupe(halfspaces)
    for a, b in canonical:
        if dot(apex, a) == b:
            continue
        on_facet = [v for v in vertices if dot(v, a) == b]
        if _affine_rank(on_facet) != dim - 1:
            continue
        j = next(i for i, x in enumerate(a) if x != 0)
        proj = {_drop(v, j): v for v in on_facet}
        if dim - 1 == 1:
            keys = sorted(proj)
            yield (proj[keys[0]], proj[keys[-1]])
            continue
        sub_hs = _project_constraints(canonical, (a, b), j)
        sub_verts = list(proj)
        for sub in triangulate(sub_hs, sub_verts, dim - 1, apex=sub_verts[0]):
            yield tuple(proj[p] for p in sub)


def _project_constraints(
    halfspaces: Sequence[HalfSpace], facet: HalfSpace, j: int
) -> list[HalfSpace]:
    """Restrict remaining constraints to a facet hyperplane, eliminating u_j.

    On the facet, u_j = (b - sum_{k!=j} a_k u_k)/a_j; substituting into
    <u, c> >= d produces a constraint on the remaining coordinates, which we
    rescale back to an integer normal.
    """
    a, b = facet
    out = []
    for c, d in halfspaces:
        if (c, d) == facet:
            continue
        # coefficient vector after substitution (over the dropped-j coords)
        cj = Fraction(c[j], a[j])
        new = [Fraction(c[k]) - cj * a[k] for k in range(len(c)) if k != j]
        rhs = Fraction(d) - cj * b
        if all(x == 0 for x in new):
            continue  # constraint has no content on this facet
        (ints,), scale = integer_rows([new])
        g = gcd_vec(ints)
        out.append((tuple(v // g for v in ints), rhs * scale / g))
    return out


def _dedupe(halfspaces: Sequence[HalfSpace]) -> list[HalfSpace]:
    """Canonical constraint list: primitive integer normals, one (binding) copy each.

    Two half-spaces with parallel normals reduce to the larger offset; this
    keeps boundary triangulations from visiting one geometric facet twice.
    """
    binding: dict[tuple[int, ...], Fraction] = {}
    for a, b in halfspaces:
        g = gcd_vec(a)
        if g == 0:
            continue
        prim = tuple(x // g for x in a)
        off = Fraction(b, g)
        if prim not in binding or off > binding[prim]:
            binding[prim] = off
    return [(a, b) for a, b in binding.items()]


def _drop(v: RatVec, j: int) -> RatVec:
    return v[:j] + v[j + 1 :]


def _average(points: Sequence[RatVec]) -> RatVec:
    n = len(points)
    return tuple(sum(col, Fraction(0)) / n for col in zip(*points))


class RationalPolytope:
    """A bounded rational polytope carrying both H- and V-representations.

    Constructed from half-spaces; vertices are enumerated exactly on
    construction.  Instances are immutable in use (nothing mutates after
    construction) and cache their triangulation and volume data.
    """

    def __init__(
        self,
        halfspaces: Sequence[HalfSpace],
        dim: int,
        *,
        assume_bounded: bool = False,
    ):
        self.dim = dim
        self.halfspaces: tuple[HalfSpace, ...] = tuple(
            (tuple(a), Fraction(b)) for a, b in _dedupe(halfspaces)
        )
        self.vertices: tuple[RatVec, ...] = tuple(
            enumerate_vertices(self.halfspaces, dim)
        )
        if not self.vertices:
            raise InvariantViolation("empty polytope")
        if not assume_bounded and recession_direction(
            [a for a, _ in self.halfspaces], dim
        ) is not None:
            raise InvariantViolation("unbounded polyhedron")

    # -- basic queries ----------------------------------------------------

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        if strict:
            return all(dot(point, a) > b for a, b in self.halfspaces)
        return all(dot(point, a) >= b for a, b in self.halfspaces)

    def is_full_dimensional(self) -> bool:
        return _affine_rank(self.vertices) == self.dim

    def max_linear_functional(self, w: Sequence) -> Fraction:
        """Exact maximum of <., w> over the polytope (attained at a vertex)."""
        return max(dot(v, w) for v in self.vertices)

    # -- volume and centroid ----------------------------------------------

    @cached_property
    def triangulation(self) -> tuple[tuple[tuple[RatVec, ...], Fraction], ...]:
        """Simplices covering the polytope, each with dim! times its volume.

        The fan-out apex is the first vertex, so every simplex vertex is a
        vertex of the polytope.  Built once, on first use.
        """
        return tuple(
            (simplex, abs(_det_cols([vec_sub(p, simplex[0]) for p in simplex[1:]])))
            for simplex in triangulate(self.halfspaces, self.vertices, self.dim, apex=self.vertices[0])
        )

    @cached_property
    def _volume_data(self) -> tuple[Fraction, RatVec]:
        if not self.is_full_dimensional():
            warnings.warn("lower-dimensional polytope: volume 0", stacklevel=4)
            return Fraction(0), _average(self.vertices)
        total = Fraction(0)
        weighted = [Fraction(0)] * self.dim
        for simplex, mass in self.triangulation:
            total += mass
            centroid = _average(simplex)
            for i in range(self.dim):
                weighted[i] += mass * centroid[i]
        return total / math.factorial(self.dim), tuple(w / total for w in weighted)

    def volume(self) -> Fraction:
        """Exact Euclidean volume: the sum over the cached triangulation."""
        return self._volume_data[0]

    def barycenter(self) -> RatVec:
        """Exact centroid: volume-weighted average of the cached simplices' centroids."""
        if not self.is_full_dimensional():
            raise InvariantViolation("barycenter of a degenerate polytope")
        return self._volume_data[1]

    # -- derived structure -------------------------------------------------

    def sliced(self, normal: Sequence[int], offset: Fraction) -> "RationalPolytope":
        """The sub-polytope {u : <u, normal> >= offset} (bounded by construction)."""
        return RationalPolytope(
            list(self.halfspaces) + [(tuple(normal), Fraction(offset))],
            self.dim,
            assume_bounded=True,
        )

    def lattice_points(self, scale: int = 1, budget: Optional[int] = None) -> list[tuple[int, ...]]:
        """Integer points of `scale * P`, by bounding-box enumeration.

        Raises BudgetExceeded when the box holds more than `budget` points
        (default from the oracle budget, see workbench).
        """
        if budget is None:
            budget = default_oracle_budget()
        lo, hi = [], []
        box = 1
        for i in range(self.dim):
            values = [scale * v[i] for v in self.vertices]
            a = math.floor(min(values))
            b = math.ceil(max(values))
            lo.append(a)
            hi.append(b)
            box *= b - a + 1
        if box > budget:
            raise BudgetExceeded("oracle budget exceeded")
        points = []
        for pt in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            if all(dot(pt, a) >= scale * b for a, b in self.halfspaces):
                points.append(pt)
        return points

    def __repr__(self) -> str:
        return (
            f"RationalPolytope(dim={self.dim}, facets={len(self.halfspaces)}, "
            f"vertices={len(self.vertices)})"
        )


def default_oracle_budget() -> int:
    """Lattice enumeration budget; TKS_ORACLE_BUDGET overrides the default 10^7."""
    raw = os.environ.get("TKS_ORACLE_BUDGET")
    if raw is None:
        return 10_000_000
    try:
        return int(raw)
    except ValueError as exc:
        raise InvariantViolation(f"bad TKS_ORACLE_BUDGET value: {raw!r}") from exc
