"""The battery generator and the projective-space screen loop as they were
before the screen tested the bound on bare vectors, kept as references.

`workbench.battery_vectors` filters the box with `math.gcd` and sorts on
`(max(map(abs, w)), w)`; `reference_battery_vectors` is the `any` plus
per-vector `math.gcd(*w)` filter and generator-expression key it replaced.
`workbench.screen_projective_space` reads each vector's vertex row, and
where the row meets the bound takes A and tau off it and beta from the
barycenter identity, building no `ToricValuation`;
`reference_screen_witnesses` builds one per battery vector, tests
`meets_equality_bound` on it, computes beta by the spline
(`beta_invariant`), and runs on every fan, with no skip of the fans whose
vertices cannot meet the bound.

`reference_screen_result` writes out the verdict rule of the
`ScreenResult` docstring on given witnesses, with its own smoothness test
(|det| = 1 on every maximal cone, by cofactor expansion), so that the
screen's verdict is checked by code it does not share.

`qualifying_vertices` is that per-vertex test on its own: the vertices m
of the anticanonical polytope with <m, v_i> >= n at some ray v_i, read off
the integer vertex rows.

`valuations.equality_bound_rays` reads the generators of the bound's cones
off the rays that set the alpha invariant.
`reference_equality_bound_rays` is the integer double description it
replaced, kept verbatim, work budget included: it cuts the cone of each
qualifying vertex and returns the extreme rays found, or None.
"""

import math
import operator
from itertools import product

from toricstab.lattice import primitivize
from toricstab.polytopes import default_oracle_budget
from toricstab.valuations import (
    beta_invariant,
    log_discrepancy,
    meets_equality_bound,
    pseff_threshold,
)
from toricstab.workbench import ScreenResult, ScreenWitness, valuation_battery


def reference_battery_vectors(n, radius):
    """Primitive integer vectors of max-norm <= radius in shell-lex order."""
    vectors = []
    for w in product(range(-radius, radius + 1), repeat=n):
        if any(w) and math.gcd(*w) == 1:
            vectors.append(w)
    vectors.sort(key=lambda w: (max(abs(x) for x in w), w))
    return vectors


def reference_screen_witnesses(fan, radius):
    """The screen's witnesses, in battery order, from one valuation per vector."""
    witnesses = []
    for val in valuation_battery(fan, radius):
        if meets_equality_bound(val) and (beta := beta_invariant(val)) <= 0:
            witnesses.append(ScreenWitness(val.w, log_discrepancy(val), pseff_threshold(val), beta))
    return tuple(witnesses)


def _laplace_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _laplace_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j] != 0
    )


def reference_screen_result(fan, radius, witnesses):
    """The screen's result on `witnesses`: a fan is smooth when every maximal
    cone's rays have determinant +-1.  With no witness the verdict says so,
    and names a singular fan.  A witness on a singular fan is a singular
    counterexample, with no recognition asserted.  On a smooth fan a witness
    forces P^n, so the fan is recognized exactly when it has n + 1 rays, and
    a witness on any other smooth fan is a violation of the theorem."""
    n = fan.dimension
    smooth = all(abs(_laplace_det([list(fan.rays[i]) for i in cone])) == 1 for cone in fan.max_cones)
    recognized = None
    if not witnesses:
        verdict = "no witnesses" if smooth else "no witnesses (singular fan)"
    elif not smooth:
        verdict = (
            "singular counterexample: equality-case witness on a singular fan; "
            "the projective-space conclusion is not asserted"
        )
    else:
        recognized = len(fan.rays) == n + 1
        if recognized:
            verdict = "witnesses on projective space (equality case)"
        else:
            verdict = "VIOLATION: equality-case witness on a smooth fan that is not projective space"
    return ScreenResult(fan.name, n, radius, smooth, tuple(witnesses), recognized, verdict)


def qualifying_vertices(fan):
    """Indices of the vertices m of P with <m, v_i> >= n at some ray v_i,
    decided on the integer rows as R . v_i >= n D."""
    n = fan.dimension
    d, rows = fan.anticanonical_polytope().vertex_matrix
    return [
        k
        for k, row in enumerate(rows)
        if any(sum(map(operator.mul, row, ray)) >= n * d for ray in fan.rays)
    ]


def reference_equality_bound_rays(fan):
    """The primitive generators of the cones K_sigma below, in battery order,
    if each is {0} or a ray; None if one has two or more extreme rays, or
    once the call's work, summed over its cuts as |pos| |neg| |rays|, would
    exceed `default_oracle_budget()`.

    Radius-free (Fact 2): for w in a cone sigma the vertex m_sigma attains
    the minimum, so w meets -min >= n max exactly when <n v + m_sigma, w> <= 0
    for every vertex v, and the w that meet the bound fill the union of the
    cones K_sigma = sigma cap C_sigma, C_sigma = {w : <n v + m_sigma, w> <= 0
    for every vertex v}.  C_sigma holds a nonzero w exactly when
    m_sigma + nP lies in a closed half-space through 0, that is, when
    -m_sigma / n is not interior to P = {u : <u, v_i> >= -1}: when
    <m_sigma, v_i> >= n for some ray v_i, on the integer rows R . v_i >= n D.
    The cones (`Fan.vertex_cones`) of the other vertices are skipped; with
    no such vertex, no w at any radius meets the bound, and the result is [].
    The rest run an integer double description (Fukuda-Prodon 1996) in the
    coordinates c >= 0, w = sum c_i rho_i: as <m_sigma, rho_i> = -1, vertex
    v cuts sum c_i (n R_v . rho_i - D) <= 0.  A cut drops the rays it cuts
    off and joins each to each kept ray on the other side that is adjacent
    to it: no third ray is tight at every constraint where both are.
    """
    n, budget = fan.dimension, default_oracle_budget()
    d, rows = fan.anticanonical_polytope().vertex_matrix
    found, work = set(), 0
    for m, cone in zip(rows, fan.vertex_cones()):
        if all(sum(map(operator.mul, m, ray)) < n * d for ray in fan.rays):
            continue  # m_sigma does not qualify: K_sigma = {0}
        basis = [fan.rays[i] for i in cone]
        # (c, indices of the constraints tight at c), from the unit vectors
        rays = [(tuple(int(i == j) for i in range(n)), frozenset(range(n)) - {j}) for j in range(n)]
        for k, row in enumerate(rows, n):
            cut = [n * sum(map(operator.mul, row, b)) - d for b in basis]
            if max(cut) <= 0:
                continue
            signed = [(sum(map(operator.mul, cut, c)), c, tight) for c, tight in rays]
            pos, neg = [r for r in signed if r[0] > 0], [r for r in signed if r[0] < 0]
            work += len(pos) * len(neg) * len(rays)
            if work > budget:
                return None
            kept = [(c, tight | {k} if s == 0 else tight) for s, c, tight in signed if s <= 0]
            for (sp, cp, tp), (sq, cq, tq) in product(pos, neg):
                common = tp & tq
                if len(common) >= n - 2 and not any(common <= t for c, t in rays if c != cp and c != cq):
                    kept.append((primitivize([sp * y - sq * x for x, y in zip(cp, cq)]), common | {k}))
            rays = kept
        if len(rays) > 1:
            return None
        found.update(primitivize([sum(map(operator.mul, col, c)) for col in zip(*basis)]) for c, _ in rays)
    return sorted(found, key=lambda g: (max(map(abs, g)), g))
