"""Shared fixtures: validated corpus fans (cached at module scope)."""

import itertools

import pytest

from toricstab.errors import InvariantViolation
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
    from toricstab.corpus import builtin_fan_specs

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
