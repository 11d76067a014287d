"""Shared fixtures: validated corpus fans (cached at module scope)."""

import importlib
import itertools
import random
from pathlib import Path

import pytest

from toricstab.corpus import builtin_fan_specs
from toricstab.errors import InvariantViolation
from toricstab.fans import Fan
from toricstab.workbench import load_builtin_fan


@pytest.fixture(scope="session")
def p123():
    return load_builtin_fan("P(1,2,3)")


@pytest.fixture(scope="session")
def p1():
    return load_builtin_fan("P1")


@pytest.fixture(scope="session")
def p2():
    return load_builtin_fan("P2")


@pytest.fixture(scope="session")
def p3():
    return load_builtin_fan("P3")


@pytest.fixture(scope="session")
def square(request):
    return load_builtin_fan("P1xP1")


@pytest.fixture(scope="session")
def cube():
    return load_builtin_fan("P1xP1xP1")


@pytest.fixture(scope="session")
def dp8():
    return load_builtin_fan("dP8")


@pytest.fixture(scope="session")
def corpus_fans():
    return [load_builtin_fan(name) for name in builtin_fan_specs()]


@pytest.fixture(scope="session")
def q_fano_fans(corpus_fans):
    """Every corpus fan and every Q-Fano star subdivision of one of dimension
    <= 3 at a point of {-1, 0, 1}^n that is not a ray (54 of them)."""
    fans = list(corpus_fans)
    for fan in corpus_fans:
        if fan.dimension <= 3:
            for w in itertools.product((-1, 0, 1), repeat=fan.dimension):
                if any(w) and fan.ray_index(w) is None:
                    fans.append(fan.star_subdivision(w))
    out = []
    for fan in fans:
        try:
            fan.anticanonical_polytope()
        except InvariantViolation:
            continue  # not Q-Fano
        out.append(fan)
    assert len(out) == len(corpus_fans) + 54
    return out


@pytest.fixture(scope="session")
def relabelled_fans():
    """Five seeded relabellings (the bench's `workloads.relabel`) of every
    corpus fan and of the products P1xP2, P1xP(1,2,3), P1xdP6, P1xdP8, P2xP2
    and P1xP3 (95 fans).  A relabelling lists the rays, the cones and the
    ray indices inside each cone in a seeded order, so the wall walk starts
    from another cone and crosses the walls in another order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
    specs = builtin_fan_specs()
    products = [("P1", "P2"), ("P1", "P(1,2,3)"), ("P1", "dP6"), ("P1", "dP8"), ("P2", "P2"), ("P1", "P3")]
    rng = random.Random(32)
    fans = []
    for base in [*specs.values(), *(workloads.product_spec(specs[a], specs[b]) for a, b in products)]:
        for spec in (workloads.relabel(base, rng) for _ in range(5)):
            fans.append(Fan(spec["dim"], spec["rays"], spec["cones"], name=spec["name"]))
    assert len(fans) == 5 * (len(specs) + len(products))
    return fans
