"""Complete simplicial fans and their anticanonical polytopes.

A fan is given by primitive integer ray generators and maximal cones as ray
index lists, kept as sorted tuples.  Validation enforces, eagerly and exactly:

  * a dimension, ray coordinates and cone indices of exact type int;
  * primitive, nonzero, pairwise distinct rays, each used by some cone;
  * every maximal cone simplicial and full-dimensional: the table
    adj . [I | V | x0] (rays V, x0 inside the first cone) of the first cone
    is `lattice.eliminate` of [I | V | x0] on that cone's ray columns, and
    one exact rank-one step (`lattice.exchange`, Bareiss) carries it across
    each wall: where p gives way to v, the column c = adj . v gives the new
    multiplicity |c_p| (c_p = 0: singular);
  * completeness: every wall (facet of a maximal cone) is shared by exactly
    two cones lying on opposite sides of it (c_p < 0), and x0 lies in no
    other cone.  Crossing a wall then never changes how many cones cover a
    generic point, so that number is 1 everywhere: the cones cover R^n
    without overlapping.

The anticanonical polytope is { u : <u, v_i> >= -1 for all rays v_i }; it is
built only for Q-Fano fans, where the support function of -K is strictly
convex.  It is read off the cones: for ample -K its vertices are exactly
the points m_sigma with <m_sigma, v> = -1 on the rays of a maximal cone
sigma (Cox-Little-Schenck, *Toric Varieties*, ch. 6), and it is bounded
because the fan is complete.  It is built in integers: minus the column
sums of a cone's table are mult * m_sigma and its products with every ray,
which the Q-Fano check reads (lazily: a valid fan need not be Q-Fano);
scaled to D, sorted and reduced, they are the vertex matrix and the one
table T[k][j] = D <m_k, v_j>.  The fan keeps the vertex-cone pairing
(`Fan.vertex_cones`); as the check makes every ray off sigma strictly slack
at m_sigma, the rays tight at a vertex (T = -D) are those of its cone, and
with their multiplicities they triangulate P (`polytopes.triangulate`).

The automorphisms of a fan are the integer matrices that permute its rays
and its maximal cones; they act on the anticanonical polytope, so valuation
invariants are constant on their orbits.  `Fan.automorphism_generators`
returns a strong generating set of them, never the whole group.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, product, repeat
from typing import Optional, Sequence

from .errors import InvariantViolation
from .lattice import LatticeVec, eliminate, exchange, primitivize
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
        self._polytope: Optional[RationalPolytope] = None
        self._generators: Optional[tuple[Matrix, ...]] = None
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        n = self.dimension
        if n < 1:
            raise InvariantViolation("dimension must be at least 1")
        self._ray_lookup: dict[LatticeVec, int] = {}
        for i, ray in enumerate(self.rays):
            if len(ray) != n:
                raise InvariantViolation(f"ray {i} has length {len(ray)}, expected {n}")
            if not any(ray):
                raise InvariantViolation(f"ray {i} is the zero vector")
            if math.gcd(*ray) != 1:
                raise InvariantViolation(f"ray {i} = {ray} is not primitive")
            if (first := self._ray_lookup.setdefault(ray, i)) != i:
                raise InvariantViolation(f"duplicate ray {ray} at indices {first}, {i}")
        rays, cones = self.rays, self.max_cones
        shaped = [ci for ci, c in enumerate(cones) if len(c) == n and 0 <= c[0] and c[-1] < len(rays)]
        walls, tables, mults, around = {}, [None] * len(cones), [0] * len(cones), [[None] * n for _ in cones]
        for ci, p in product(shaped, range(n)):  # by wall: each cone and its ray off it
            sides = around[ci][p] = walls.setdefault(cones[ci][:p] + cones[ci][p + 1 :], [])
            sides.append((ci, p))
        # x0 inside the first cone the walk may start from, which is cone 0 on a valid fan
        inner = [sum(col) for col in zip(*(rays[j] for j in cones[shaped[0]]))] if shaped else []
        # breadth first from each cone that no walk reached; c_p = 0 leaves a singular cone None
        for seed in (ci for ci in shaped if tables[ci] is None):
            # [I | V | x0] over the standard basis, the seed's rays exchanged in: row k holds ray k
            start = [(*(int(i == k) for k in range(n)), *col) for i, col in enumerate(zip(*rays, inner))]
            pivots, table, det = eliminate(start, [n + j for j in cones[seed]])
            if len(pivots) == n:  # else singular
                tables[seed], mults[seed] = table, abs(det)
                for ci in (queue := [seed]):
                    table, mult = tables[ci], mults[ci]
                    for p in range(n):
                        for cj, q in around[ci][p]:
                            col = n + cones[cj][q]
                            if tables[cj] is not None or table[p][col] == 0:  # reached, or singular
                                continue
                            tables[cj], mults[cj] = exchange(table, mult, p, col)
                            tables[cj].insert(q, tables[cj].pop(p))  # into cone cj's ray order
                            queue.append(cj)
        for ci, cone in enumerate(cones):
            if len(cone) != n:
                raise InvariantViolation(
                    f"maximal cone {ci} has {len(cone)} rays, expected {n} "
                    "(non-simplicial or lower-dimensional cones are rejected)"
                )
            if cone[0] < 0 or cone[-1] >= len(rays):
                raise InvariantViolation(f"maximal cone {ci} references a missing ray")
            if tables[ci] is None:
                raise InvariantViolation(f"maximal cone {ci} is not simplicial")
        if unused := sorted(set(range(len(rays))).difference(*cones)):
            raise InvariantViolation(f"rays {unused} appear in no maximal cone")
        if not walls or any(len(sides) != 2 for sides in walls.values()):
            raise InvariantViolation("fan not complete")
        # table[k][n + j] is ray j's k-th cone coordinate times |det|, so the signs of c_p on each
        # wall (from its first cone) and of x0's coordinates in every other cone are entry tests
        if any(tables[ci][p][n + cones[cj][q]] >= 0 for (ci, p), (cj, q) in walls.values()) or any(
            min(map(operator.itemgetter(-1), table)) >= 0 for table in tables[1:]
        ):
            raise InvariantViolation("overlapping maximal cones")
        self._cone_tables: list[list[tuple[int, ...]]] = tables
        self._cone_mults: list[int] = mults
        # column sums: -mult * m_sigma, -mult * <m_sigma, v_j> for every ray j, and x0's
        self._cone_sums: list[list[int]] = [list(map(sum, zip(*table))) for table in tables]

    # -- cone queries ---------------------------------------------------------

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
            n, d, paired = self.dimension, math.lcm(*self._cone_mults), []
            for ci, (cone, mult, sums) in enumerate(zip(self.max_cones, self._cone_mults, self._cone_sums)):
                # minus the products are mult on sigma's n rays: Q-Fano is no other one >= mult
                if sum(x >= mult for x in sums[n:-1]) > n:
                    raise InvariantViolation(f"not Q-Fano: -K is not ample on maximal cone {ci}")
                k = d // -mult
                paired.append((tuple([x * k for x in sums[:n]]), cone, mult, tuple([x * k for x in sums[n:-1]])))
            paired.sort()  # by the rows D * m_sigma, D > 0: the vertices are distinct
            rows, cones, mults, products = zip(*paired)
            g = math.gcd(d, *chain.from_iterable(rows))
            if g > 1:
                rows = [tuple([x // g for x in row]) for row in rows]
                d, products = d // g, [tuple([x // g for x in row]) for row in products]
            self._polytope = RationalPolytope._from_int_form(
                tuple(zip(self.rays, repeat(Fraction(-1)))), d, rows, products, n, (cones, mults)
            )
        return self._polytope

    def vertex_cones(self) -> tuple[tuple[int, ...], ...]:
        """Entry k is the maximal cone sigma whose m_sigma is vertex k of the
        anticanonical polytope, in its sorted vertex order; built with it."""
        return self.anticanonical_polytope()._cones[0]

    def degree(self) -> Fraction:
        """The anticanonical self-intersection number n! * vol(P)."""
        return math.factorial(self.dimension) * self.anticanonical_polytope().volume()

    def automorphism_generators(self) -> tuple[Matrix, ...]:
        """A strong generating set of the fan's automorphisms, as row tuples.

        An automorphism A is fixed by the images t_k of cone 0's rays b_k,
        the rays of a maximal cone: ray j goes to sum_k c_jk v_(t_k) / mult,
        c_j its column of cone 0's table.  Sims's stabiliser chain of b_0,
        b_1, ... is searched deepest level first (Seress, *Permutation Group
        Algorithms*, ch. 4): at level k each ray that the generators so far
        cannot carry b_k to is tried as its image, b_0 ... b_(k-1) fixed, by
        a backtrack over images of b_(k+1), ... that share a maximal cone
        with those placed.  Ray j is tested once the last base ray it uses
        is placed, and the first automorphism found is kept.  Cached; when
        the |cones| * n! candidates exceed the oracle budget, no search runs
        and, as for a rigid fan, there are no generators.
        """
        n, rays, cones = self.dimension, self.rays, self.max_cones
        if self._generators is not None or len(cones) * math.factorial(n) > default_oracle_budget():
            return self._generators or ()
        mult, base, cone_set = self._cone_mults[0], cones[0], set(cones)
        cols = list(zip(*self._cone_tables[0]))  # adj's columns, then ray j's c_j at n + j
        due = [[j for j, c in enumerate(cols[n:-1]) if c[k] and not any(c[k + 1 :])] for k in range(n)]
        lookup = {tuple([mult * x for x in ray]): j for j, ray in enumerate(rays)}
        perm, found = list(range(len(rays))), []  # found: (matrix, ray permutation) pairs

        def extend(t: list[int], shared: set[int]) -> bool:
            """Send ray j due at b_(len(t) - 1) to c_j . t / mult, then place t's next ray."""
            rows = list(zip(*map(rays.__getitem__, t)))  # T, with the rays t as columns
            for j in due[len(t) - 1]:
                perm[j] = lookup.get(tuple([sum(map(operator.mul, cols[n + j], row)) for row in rows]))
                if perm[j] is None:
                    return False
            if len(t) < n:
                free = sorted({r for ci in shared for r in cones[ci]}.difference(t))
                return any(extend([*t, s], {ci for ci in shared if s in cones[ci]}) for s in free)
            scaled = [[sum(map(operator.mul, col, row)) for col in cols[:n]] for row in rows]  # T . adj
            images = {tuple(sorted(map(perm.__getitem__, c))) for c in cones}
            if images != cone_set or any(x % mult for row in scaled for x in row):
                return False
            found.append((tuple(tuple([x // mult for x in row]) for row in scaled), tuple(perm)))
            return True

        for k in reversed(range(n)):
            orbit = [base[k]]
            for target in range(len(rays)):
                for x in orbit:  # b_k's orbit under the generators so far
                    orbit.extend({p[x] for _, p in found}.difference(orbit))
                if target not in orbit and target not in base[:k]:
                    extend(t := [*base[:k], target], {ci for ci, c in enumerate(cones) if {*t} <= {*c}})
        self._generators = tuple(a for a, _ in found)
        return self._generators

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
        for cone, table in zip(self.max_cones, self._cone_tables):
            # w's cone coordinates times |det|: map stops at w's length, so it reads adj's n columns
            signs = [sum(map(operator.mul, row, w)) for row in table]
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
