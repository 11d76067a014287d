"""Seeded job lists for the three benchmark workloads.

A workload is a fixed set of fan specs and a generator of rounds.  Every
round is a list of jobs drawn from the seed alone, so the same seed always
gives the same inputs, and the program only ever sees the generated specs.
Fan specs are plain FanSpec dicts: corpus fans, products built here, with
rays and cones relabelled in a seeded order.  Round k of a workload always
holds the same multiset of job classes, so the seed changes the order and
the points drawn but not what kinds of job a round holds.

  analyze-lowdim   every corpus fan of dimension <= 3 plus P1xP2 and
                   P1xP(1,2,3); radius 4 up to dimension 2, radius 1 in
                   dimension 3.  The seed sets the job order.
  profile-highdim  P4, P5, P2xP2, P1xP3.  On each 4-fold one job per
                   orbit of the nonzero points of {-1,0,1}^4 under the
                   fan's lattice automorphisms, the seed picking w inside
                   the orbit; the equality case w = (1,...,1) on P4 and
                   P5.  P5 runs only its equality case: its 15 orbits
                   would cost about 31 s a round, more than the rest of
                   the round together.
  screen-smooth    the smooth Fano fans of dimension 2 and 3; radius 10
                   in dimension 2 and 3 in dimension 3.  The seed sets the
                   job order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product

from oracles import det, solve


def projective_space(n: int) -> dict:
    rays = [[int(i == j) for i in range(n)] for j in range(n)] + [[-1] * n]
    cones = [[j for j in range(n + 1) if j != omit] for omit in range(n + 1)]
    return {"name": f"P{n}", "dim": n, "rays": rays, "cones": cones}


def _plane(name: str, rays: list[list[int]]) -> dict:
    """Complete fan in Z^2 with rays listed counterclockwise."""
    k = len(rays)
    return {"name": name, "dim": 2, "rays": rays, "cones": [[i, (i + 1) % k] for i in range(k)]}


# the package corpus fans, copied so that the inputs do not change with src/
SURFACES = {
    "dP8": _plane("dP8", [[1, 0], [1, 1], [0, 1], [-1, -1]]),
    "dP7": _plane("dP7", [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1]]),
    "dP6": _plane("dP6", [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]),
    "P(1,2,3)": _plane("P(1,2,3)", [[1, 0], [0, 1], [-2, -3]]),
    "P(1,1,2)": _plane("P(1,1,2)", [[1, 0], [0, 1], [-1, -2]]),
    "Y(1,2,3)": _plane("Y(1,2,3)", [[1, 0], [0, 1], [-1, 0], [-2, -3]]),
}


def product_spec(a: dict, b: dict) -> dict:
    """FanSpec of the product fan: rays (v, 0), (0, v'), cones sigma x sigma'."""
    da, db = a["dim"], b["dim"]
    rays = [list(r) + [0] * db for r in a["rays"]]
    rays += [[0] * da + list(r) for r in b["rays"]]
    na = len(a["rays"])
    cones = [list(c) + [na + i for i in c2] for c in a["cones"] for c2 in b["cones"]]
    return {"name": f"{a['name']}x{b['name']}", "dim": da + db, "rays": rays, "cones": cones}


def relabel(spec: dict, rng: random.Random) -> dict:
    """The same fan with its rays, cones and in-cone indices listed in a seeded order."""
    order = list(range(len(spec["rays"])))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    cones = [[new_index[i] for i in cone] for cone in spec["cones"]]
    for cone in cones:
        rng.shuffle(cone)
    rng.shuffle(cones)
    return {
        "name": spec["name"],
        "dim": spec["dim"],
        "rays": [list(spec["rays"][old]) for old in order],
        "cones": cones,
    }


def automorphisms(spec: dict) -> list[tuple[tuple[int, ...], ...]]:
    """Integer matrices A with A(fan) = fan, as row tuples.

    A is fixed by where it sends the rays of one maximal cone; it is kept
    when it is integral, maps every ray to a ray and every cone to a cone.
    """
    n = spec["dim"]
    rays = [tuple(r) for r in spec["rays"]]
    index = {r: i for i, r in enumerate(rays)}
    cones = {frozenset(c) for c in spec["cones"]}
    base = sorted(spec["cones"][0])
    columns = [[rays[k][i] for k in base] for i in range(n)]
    d = det(columns)
    # adjugate[k] is row k of d * B^-1, where B has the base rays as columns
    solved = [solve(columns, [d * (i == j) for i in range(n)]) for j in range(n)]
    adjugate = [[int(solved[j][k]) for j in range(n)] for k in range(n)]
    out = []
    for targets in permutations(range(len(rays)), n):
        # A sends rays[base[k]] to rays[targets[k]]: A = T . B^-1
        scaled = [
            [sum(rays[targets[k]][row] * adjugate[k][col] for k in range(n)) for col in range(n)]
            for row in range(n)
        ]
        if any(x % d for r in scaled for x in r):
            continue
        matrix = tuple(tuple(x // d for x in r) for r in scaled)
        images = [tuple(_dot(row, v) for row in matrix) for v in rays]
        if not all(v in index for v in images):
            continue
        perm = [index[v] for v in images]
        if {frozenset(perm[i] for i in c) for c in cones} == cones:
            out.append(matrix)
    return out


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cube_orbit(w: tuple[int, ...], group) -> list[tuple[int, ...]]:
    """The images of w under the group that stay in {-1,0,1}^n, sorted."""
    images = {tuple(_dot(row, w) for row in matrix) for matrix in group}
    return sorted(v for v in images if all(abs(x) <= 1 for x in v))


def cube_orbits(n: int, group) -> list[list[tuple[int, ...]]]:
    """The orbits of the nonzero points of {-1,0,1}^n under the group.

    Every such point is primitive.  Orbits are listed by their least point.
    """
    seen = set()
    orbits = []
    for w in product((-1, 0, 1), repeat=n):
        if any(w) and w not in seen:
            orbit = cube_orbit(w, group)
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


@dataclass(frozen=True)
class Job:
    kind: str            # "analyze", "profile" or "screen"
    spec: int            # index into Workload.specs
    param: object        # battery radius, or the valuation vector w
    equality: bool = False  # a pinned projective-space equality case


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    specs: tuple[dict, ...]       # distinct generated fan specs
    projective: tuple[bool, ...]  # spec i is the P^n fan
    classes: tuple                # job templates, one per job of a round
    trace_rounds: int             # rounds the traced run replays

    def round(self, k: int) -> list[Job]:
        """Round k: one job per class, inputs and order drawn from the seed."""
        rng = random.Random(f"{self.name}/{self.seed}/round{k}")
        jobs = [
            Job(kind, spec, rng.choice(param) if isinstance(param, list) else param, eq)
            for kind, spec, param, eq in self.classes
        ]
        rng.shuffle(jobs)
        return jobs


# profile-highdim runs every orbit of w on fans of this dimension; on the
# 5-fold P5 it runs only the equality case
ORBIT_DIM = 4

LOWDIM_CORPUS = (
    "P1", "P2", "P3", "P1xP1", "P1xP1xP1", "dP8", "dP7", "dP6",
    "P(1,2,3)", "P(1,1,2)", "Y(1,2,3)",
)

SCREEN_SMOOTH = ("P2", "P1xP1", "dP8", "dP7", "dP6", "P3", "P1xP1xP1")

WORKLOADS = ("analyze-lowdim", "profile-highdim", "screen-smooth")


def fan_catalog() -> dict[str, dict]:
    """Every named fan the workloads use, before relabelling."""
    fans = {f"P{n}": projective_space(n) for n in range(1, 6)}
    fans.update(SURFACES)
    fans["P1xP1"] = product_spec(fans["P1"], fans["P1"])
    fans["P1xP1xP1"] = product_spec(fans["P1xP1"], fans["P1"])
    return fans


def base_specs(name: str) -> list[dict]:
    """The workload's fan specs before relabelling."""
    corpus = fan_catalog()
    if name == "analyze-lowdim":
        specs = [corpus[n] for n in LOWDIM_CORPUS]
        specs.append(product_spec(corpus["P1"], corpus["P2"]))
        specs.append(product_spec(corpus["P1"], corpus["P(1,2,3)"]))
        return specs
    if name == "profile-highdim":
        return [
            corpus["P4"],
            corpus["P5"],
            product_spec(corpus["P2"], corpus["P2"]),
            product_spec(corpus["P1"], corpus["P3"]),
        ]
    if name == "screen-smooth":
        specs = [corpus[n] for n in SCREEN_SMOOTH]
        specs += [product_spec(corpus["P1"], corpus[n]) for n in ("P2", "dP6", "dP8")]
        return specs
    raise ValueError(f"unknown workload {name!r}; options: {', '.join(WORKLOADS)}")


def is_projective_space(spec: dict) -> bool:
    """True for the standard P^n fan: rays e_1..e_n and -(1,...,1)."""
    n = spec["dim"]
    rays = sorted(tuple(r) for r in spec["rays"])
    expected = sorted(
        [tuple(int(i == j) for i in range(n)) for j in range(n)] + [(-1,) * n]
    )
    return rays == expected


def build(name: str, seed: int) -> Workload:
    """The workload's specs and job classes for this seed."""
    rng = random.Random(f"{name}/{seed}/specs")
    specs = tuple(relabel(s, rng) for s in base_specs(name))
    projective = tuple(is_projective_space(s) for s in specs)
    classes = []
    if name == "profile-highdim":
        for i, (spec, base) in enumerate(zip(specs, base_specs(name))):
            if projective[i]:
                classes.append(("profile", i, (1,) * spec["dim"], True))
            if spec["dim"] == ORBIT_DIM:
                for orbit in cube_orbits(ORBIT_DIM, automorphisms(base)):
                    classes.append(("profile", i, orbit, False))
        trace_rounds = 1
    else:
        kind = "analyze" if name == "analyze-lowdim" else "screen"
        for i, spec in enumerate(specs):
            if kind == "analyze":
                radius = 4 if spec["dim"] <= 2 else 1
            else:
                radius = 10 if spec["dim"] == 2 else 3
            classes.append((kind, i, radius, False))
        trace_rounds = 1 if kind == "analyze" else 5
    return Workload(name, seed, specs, projective, tuple(classes), trace_rounds)

