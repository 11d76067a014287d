"""Alpha invariant of a toric Fano variety via the torus-invariant reduction.

For toric X the infimum over effective anticanonical Q-divisors is attained
at a torus-invariant one, D = sum d_i D_i with d_i = 1 + <m, v_i> for some
rational m, and (X, c D) is log canonical exactly when every c * d_i <= 1.
The feasible m form the anticanonical polytope itself, so

    alpha(X) = 1 / max_j (1 + max over P of <u, v_j>) = 1 / max_j tau(v_j),

read off the polytope's integer vertex-by-ray table T[k][j] = D <m_k, v_j>
(`normal_table`) as its column maxima, with an explicit extremal witness
divisor.  `AlphaResult` checks the witness on construction: the divisor is
effective and alpha times its largest coefficient is 1, so (X, alpha D) is
log canonical with a coefficient at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fans import Fan
from .lattice import RatVec


@dataclass(frozen=True)
class AlphaResult:
    """alpha(X) together with the divisor realizing the extremal coefficient."""

    alpha: Fraction
    witness_ray_index: int
    witness_divisor: tuple[Fraction, ...]
    witness_m: RatVec
    ray_thresholds: tuple[Fraction, ...]  # per-ray tau(v_j), auditably 1/alpha at max

    def __post_init__(self):
        if self.alpha <= 0:
            raise AssertionError("alpha must be positive")
        if any(d < 0 for d in self.witness_divisor):
            raise AssertionError("witness divisor must be effective")
        if max(self.witness_divisor) * self.alpha != 1:
            raise AssertionError("witness extremal coefficient must equal 1/alpha")


def alpha_invariant(fan: Fan) -> AlphaResult:
    """Exact alpha invariant with witness divisor and per-ray thresholds."""
    poly = fan.anticanonical_polytope()
    (d, rows), table = poly.vertex_matrix, poly.normal_table
    # per ray, the top of its column; the witness is the first ray with the largest top, at
    # the lexicographically largest vertex attaining it: its row D * u, as D > 0
    tops = [max(column) for column in zip(*table)]
    worst = tops.index(max(tops))
    k = max(range(len(rows)), key=lambda k: (table[k][worst], rows[k]))
    return AlphaResult(
        alpha=Fraction(d, d + tops[worst]),
        witness_ray_index=worst,
        witness_divisor=tuple(Fraction(d + t, d) for t in table[k]),
        witness_m=tuple(Fraction(x, d) for x in rows[k]),
        ray_thresholds=tuple(Fraction(d + t, d) for t in tops),
    )

