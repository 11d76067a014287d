"""Complete simplicial fans and their anticanonical polytopes.

A fan is given by primitive integer ray generators and maximal cones as ray
index lists, kept as sorted tuples.  Validation enforces, eagerly and exactly:

  * a dimension, ray coordinates and cone indices of exact type int;
  * primitive, nonzero, pairwise distinct rays, each used by some cone;
  * every maximal cone simplicial and full-dimensional: one elimination
    gives the first cone's adjugate, and across a wall where ray p gives
    way to v, c = adj . v gives the next cone's multiplicity |c_p| and, by
    Bareiss's exact rank-one update, its adjugate;
  * completeness: every wall (facet of a maximal cone) is shared by exactly
    two cones lying on opposite sides of it (c_p < 0), and an interior point
    of the first cone lies in no other cone.  Crossing a wall then never
    changes how many cones cover a generic point, so that number is 1
    everywhere: the cones cover R^n without overlapping.

The anticanonical polytope is { u : <u, v_i> >= -1 for all rays v_i }; it is
built only for Q-Fano fans, where the support function of -K is strictly
convex.  It is read off the cones: for ample -K its vertices are exactly
the points m_sigma with <m_sigma, v> = -1 on the rays of a maximal cone
sigma (Cox-Little-Schenck, *Toric Varieties*, ch. 6), and it is bounded
because the fan is complete.  It is built in integers: each cone's adjugate
gives mult * m_sigma and its products with every ray, which the Q-Fano check
reads; scaled to D, sorted and reduced, they are the vertex matrix and the
one table T[k][j] = D <m_k, v_j>.  The fan keeps the vertex-cone pairing
(`Fan.vertex_cones`); as the check makes every ray off sigma strictly slack
at m_sigma, the rays tight at a vertex (T = -D) are those of its cone.  Its
lattice points at dilation k index the degree-k anticanonical sections.

The automorphisms of a fan (`Fan.automorphisms`) are the integer matrices
that permute its rays and its maximal cones; they act on the anticanonical
polytope, so valuation invariants are constant on their orbits.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import permutations, product
from typing import Optional, Sequence

from .errors import InvariantViolation
from .lattice import LatticeVec, adjugate, primitivize
from .polytopes import RationalPolytope, default_oracle_budget


def _int_vector(v: Sequence[int], what: str = "vector entries") -> tuple[int, ...]:
    """v as a tuple, refusing any entry whose type is not exactly int."""
    v = tuple(v)
    if any(type(x) is not int for x in v):
        raise InvariantViolation(f"{what} must be ints")
    return v


Matrix = tuple[tuple[int, ...], ...]


class Fan:
    """A complete simplicial fan in Z^n defining a projective toric variety."""

    def __init__(
        self,
        dimension: int,
        rays: Sequence[Sequence[int]],
        max_cones: Sequence[Sequence[int]],
        name: str = "",
    ):
        # exact types, as for FanSpec documents: never truncate a float or bool
        if type(dimension) is not int:
            raise InvariantViolation(f"dimension {dimension!r} is not an int")
        rays = tuple(_int_vector(r, "ray coordinates") for r in rays)
        max_cones = tuple(_int_vector(c, "cone ray indices") for c in max_cones)
        self.dimension = dimension
        self.name = name
        self.rays: tuple[LatticeVec, ...] = rays
        self.max_cones: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(c)) for c in max_cones)
        self._ray_lookup = {ray: i for i, ray in enumerate(self.rays)}
        self._polytope: Optional[RationalPolytope] = None
        self._vertex_cones: Optional[tuple[tuple[int, ...], ...]] = None
        self._automorphisms: Optional[tuple[Matrix, ...]] = None
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        n = self.dimension
        if n < 1:
            raise InvariantViolation("dimension must be at least 1")
        seen: dict[LatticeVec, int] = {}
        for i, ray in enumerate(self.rays):
            if len(ray) != n:
                raise InvariantViolation(f"ray {i} has length {len(ray)}, expected {n}")
            if all(x == 0 for x in ray):
                raise InvariantViolation(f"ray {i} is the zero vector")
            if primitivize(ray) != ray:
                raise InvariantViolation(f"ray {i} = {ray} is not primitive")
            if ray in seen:
                raise InvariantViolation(f"duplicate ray {ray} at indices {seen[ray]}, {i}")
            seen[ray] = i
        rays, cones = self.rays, self.max_cones
        shaped = [ci for ci, c in enumerate(cones) if len(c) == n and 0 <= c[0] and c[-1] < len(rays)]
        walls, adjs, mults = {}, [None] * len(cones), [0] * len(cones)
        for ci, p in product(shaped, range(n)):  # by wall: each cone and its ray off it
            walls.setdefault(cones[ci][:p] + cones[ci][p + 1 :], []).append((ci, p))
        # breadth first from each cone that no walk reached; c_p = 0 leaves a singular cone None
        for seed in (ci for ci in shaped if adjs[ci] is None):
            solved = adjugate([[rays[j][i] for j in cones[seed]] for i in range(n)])
            if solved is None:
                continue
            d, adj = solved
            mults[seed], adjs[seed] = abs(d), tuple(tuple(x if d > 0 else -x for x in row) for row in adj)
            for ci in (queue := [seed]):
                adj, mult = adjs[ci], mults[ci]
                for p in range(n):
                    for cj, q in walls[cones[ci][:p] + cones[ci][p + 1 :]]:
                        if adjs[cj] is not None:
                            continue
                        c = [sum(map(operator.mul, row, rays[cones[cj][q]])) for row in adj]
                        if c[p] == 0:  # singular
                            continue
                        s, ap = (1 if c[p] > 0 else -1), adj[p]
                        new = {
                            j: tuple(s * (c[p] * x - ck * y) // mult for x, y in zip(row, ap))
                            for j, row, ck in zip(cones[ci], adj, c)
                        }
                        new[cones[cj][q]] = tuple(s * y for y in ap)
                        adjs[cj], mults[cj] = tuple(new[j] for j in cones[cj]), s * c[p]
                        queue.append(cj)
        for ci, cone in enumerate(cones):
            if len(cone) != n:
                raise InvariantViolation(
                    f"maximal cone {ci} has {len(cone)} rays, expected {n} "
                    "(non-simplicial or lower-dimensional cones are rejected)"
                )
            if cone[0] < 0 or cone[-1] >= len(rays):
                raise InvariantViolation(f"maximal cone {ci} references a missing ray")
            if adjs[ci] is None:
                raise InvariantViolation(f"maximal cone {ci} is not simplicial")
        unused = sorted(set(range(len(rays))).difference(*cones))
        if unused:
            raise InvariantViolation(f"rays {unused} appear in no maximal cone")
        if not walls or any(len(pair) != 2 for pair in walls.values()):
            raise InvariantViolation("fan not complete")
        # per cone, |det| and |det| * inverse of the ray-column matrix, from one
        # elimination and then a rank-one update per wall: adj . w is w's cone
        # coordinates times |det|, so sign tests decide membership exactly
        self._cone_adjugates: list[Matrix] = adjs
        self._cone_mults: list[int] = mults
        for (ci, p), (cj, q) in walls.values():  # c_p of the wall, from its first cone
            if sum(map(operator.mul, adjs[ci][p], rays[cones[cj][q]])) >= 0:
                raise InvariantViolation("overlapping maximal cones")
        inner = [sum(col) for col in zip(*(rays[i] for i in cones[0]))]
        for ci in range(1, len(cones)):
            if all(s >= 0 for s in self._scaled_coords(ci, inner)):
                raise InvariantViolation("overlapping maximal cones")

    # -- cone queries ---------------------------------------------------------

    def _scaled_coords(self, cone_index: int, w: Sequence) -> tuple:
        """w's coordinates in the cone's ray basis, times the cone's |det|."""
        return tuple(sum(map(operator.mul, row, w)) for row in self._cone_adjugates[cone_index])

    def ray_index(self, v: Sequence[int]) -> Optional[int]:
        return self._ray_lookup.get(_int_vector(v))

    def is_smooth(self) -> bool:
        """True iff every maximal cone's rays form a lattice basis (|det| = 1)."""
        return all(d == 1 for d in self._cone_mults)

    # -- derived geometry -------------------------------------------------------

    def anticanonical_polytope(self) -> RationalPolytope:
        """The polytope { u : <u, v_i> >= -1 }, computed once and cached.

        Requires Q-Fano, i.e. -K ample: for each maximal cone, the m with
        <m, v> = -1 on its rays must satisfy <m, v_j> > -1 at every other ray.
        Those points m are then the vertices, one per maximal cone, and the
        polytope is bounded because the fan is complete.  Half-space j is
        ray j's, so column j of the polytope's `normal_table` is ray j's.
        """
        if self._polytope is None:
            d, paired = math.lcm(*self._cone_mults), []
            for ci, cone in enumerate(self.max_cones):
                # mult * m_sigma = adj^T (-1, ..., -1): its products are -mult on
                # sigma's n rays, so Q-Fano is that no other one is <= -mult
                mult = self._cone_mults[ci]
                m = [-sum(col) for col in zip(*self._cone_adjugates[ci])]
                products = [sum(map(operator.mul, m, v)) for v in self.rays]
                if sum(p <= -mult for p in products) > len(cone):
                    raise InvariantViolation(f"not Q-Fano: -K is not ample on maximal cone {ci}")
                paired.append(([d // mult * x for x in m], cone, [d // mult * p for p in products]))
            paired.sort()  # by the rows D * m_sigma, D > 0: the vertices are distinct
            g = math.gcd(d, *(x for row, _, _ in paired for x in row))
            rows = [tuple(x // g for x in row) for row, _, _ in paired]
            table = [tuple(p // g for p in products) for _, _, products in paired]
            halfspaces = tuple((ray, Fraction(-1)) for ray in self.rays)
            self._vertex_cones = tuple(cone for _, cone, _ in paired)
            self._polytope = RationalPolytope._from_int_form(halfspaces, d // g, rows, table, self.dimension)
        return self._polytope

    def vertex_cones(self) -> tuple[tuple[int, ...], ...]:
        """Entry k is the maximal cone sigma whose m_sigma is vertex k of the
        anticanonical polytope, in its sorted vertex order; built with it."""
        self.anticanonical_polytope()
        return self._vertex_cones

    def degree(self) -> Fraction:
        """The anticanonical self-intersection number n! * vol(P)."""
        return math.factorial(self.dimension) * self.anticanonical_polytope().volume()

    def automorphisms(self) -> tuple[Matrix, ...]:
        """The integer matrices that permute the rays and the maximal cones, as row tuples.

        Such a matrix A is fixed by the images of cone 0's rays, which are the
        rays of some maximal cone in some order.  With those targets as the
        columns of T, A = T . adj / mult for cone 0's stored adjugate and
        multiplicity; a candidate is kept when it is integral and maps the
        rays and the cones onto themselves.  Every kept A has finite order,
        so det A = +-1, and it acts on the anticanonical polytope: every
        invariant of a valuation is the same at w and at A w.

        The group is built on first call and cached.  When its |cones| * n!
        candidates exceed the oracle budget, none is tried and the group is
        the identity alone, a valid subgroup for every caller.
        """
        if self._automorphisms is None:
            n = self.dimension
            if len(self.max_cones) * math.factorial(n) > default_oracle_budget():
                identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
                self._automorphisms = (identity,)
            else:
                self._automorphisms = tuple(self._search_automorphisms())
        return self._automorphisms

    def _search_automorphisms(self) -> list[Matrix]:
        n = self.dimension
        adj, mult = self._cone_adjugates[0], self._cone_mults[0]
        cones = set(self.max_cones)
        found = []
        for cone in self.max_cones:
            for targets in permutations(cone):
                # A B = T, with B cone 0's rays and T the targets as columns
                columns = [self.rays[t] for t in targets]
                scaled = [
                    [sum(v[row] * adj[k][col] for k, v in enumerate(columns)) for col in range(n)]
                    for row in range(n)
                ]
                if any(x % mult for r in scaled for x in r):
                    continue
                matrix = tuple(tuple(x // mult for x in r) for r in scaled)
                perm = [
                    self._ray_lookup.get(tuple(sum(map(operator.mul, row, v)) for row in matrix))
                    for v in self.rays
                ]
                if None not in perm and all(
                    tuple(sorted(perm[i] for i in c)) in cones for c in self.max_cones
                ):
                    found.append(matrix)
        return found

    def star_subdivision(self, w: Sequence[int]) -> "Fan":
        """The stellar refinement inserting the primitive ray w.

        Every maximal cone containing w is replaced by the cones obtained by
        swapping w for each generator it has positive coordinate on; cones
        not containing w survive unchanged.
        """
        w = _int_vector(w)
        if primitivize(w) != w:
            raise InvariantViolation("star subdivision requires a primitive vector")
        if self.ray_index(w) is not None:
            raise InvariantViolation(f"{w} is already a ray of the fan")
        new_rays = list(self.rays) + [w]
        w_index = len(self.rays)
        new_cones: list[tuple[int, ...]] = []
        for ci, cone in enumerate(self.max_cones):
            signs = self._scaled_coords(ci, w)
            if any(s < 0 for s in signs):
                new_cones.append(cone)
                continue
            for pos, s in enumerate(signs):
                if s > 0:
                    replaced = list(cone)
                    replaced[pos] = w_index
                    new_cones.append(tuple(sorted(replaced)))
        return Fan(
            self.dimension,
            new_rays,
            new_cones,
            name=f"{self.name}*{w}" if self.name else f"star{w}",
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Fan(dim={self.dimension}{label}, rays={len(self.rays)}, "
            f"cones={len(self.max_cones)})"
        )
