"""The battery generator and the projective-space screen loop as they were
before the screen tested the bound on bare vectors, kept as references.

`workbench.battery_vectors` filters the box with `math.gcd` and sorts on
`(max(map(abs, w)), w)`; `reference_battery_vectors` is the `any` plus
`gcd_vec` filter and generator-expression key it replaced.
`workbench.screen_projective_space` reads each vector's vertex row and
builds a `ToricValuation` only where the row meets the bound;
`reference_screen_witnesses` builds one per battery vector, tests
`meets_equality_bound` on it, and runs on every fan, with no skip of the
fans whose vertices cannot meet the bound.

`qualifying_vertices` is that per-vertex test on its own: the vertices m
of the anticanonical polytope with <m, v_i> >= n at some ray v_i, read off
the integer vertex rows.  `equality_bound_rays` cuts only their cones.
"""

import operator
from itertools import product

from toricstab.lattice import gcd_vec
from toricstab.valuations import (
    beta_invariant,
    log_discrepancy,
    meets_equality_bound,
    pseff_threshold,
)
from toricstab.workbench import ScreenWitness, valuation_battery


def reference_battery_vectors(n, radius):
    """Primitive integer vectors of max-norm <= radius in shell-lex order."""
    vectors = []
    for w in product(range(-radius, radius + 1), repeat=n):
        if any(w) and gcd_vec(w) == 1:
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
