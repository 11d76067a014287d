"""The input contract under mutation: every run ends in output or a documented exit code.

Corpus specs of dimension at most 3 get one to three mutations, among them
star subdivisions of a document that validates, and go through `cli.main` with every command that reads a fan spec.  A run
either succeeds or fails with exit 2, 3 or 4 and exactly one `error: `
line on stderr and nothing on stdout; exit 5 (an internal error) or a
traceback is a fault of the program.
"""

import copy
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab.cli import main
from toricstab.corpus import builtin_fan_specs
from toricstab.errors import ToricstabError
from toricstab.workbench import parse_fan_spec

SPECS = [spec for spec in builtin_fan_specs().values() if spec["dim"] <= 3]
KINDS = (
    "ray entry", "cone entry", "drop cone", "duplicate cone", "append ray", "dim", "bad entry",
    "non-object", "star subdivision",
)
BAD_VALUES = (True, 1.5, None, "x")
vectors = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(lambda w: ",".join(map(str, w)))


def int_entries(doc):
    """(field, row, column) of every integer entry of the rays and cones."""
    return [
        (field, i, j)
        for field in ("rays", "cones")
        for i, row in enumerate(doc[field])
        for j, x in enumerate(row)
        if type(x) is int
    ]


def mutate(draw, doc, kind):
    """`doc` after one mutation of `kind`, or None when it has nothing to mutate."""
    if not isinstance(doc, dict):
        return None
    doc = copy.deepcopy(doc)
    if kind == "ray entry":
        entries = [e for e in int_entries(doc) if e[0] == "rays"]
        if not entries:
            return None
        _, i, j = draw(st.sampled_from(entries))
        doc["rays"][i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
    elif kind == "cone entry":
        # singular, repeated, missing and overlapping cones, and gaps
        entries = [e for e in int_entries(doc) if e[0] == "cones"]
        if not entries:
            return None
        _, i, j = draw(st.sampled_from(entries))
        doc["cones"][i][j] = draw(st.integers(-1, len(doc["rays"])))
    elif kind in ("drop cone", "duplicate cone"):
        if not doc["cones"]:
            return None
        k = draw(st.integers(0, len(doc["cones"]) - 1))
        if kind == "drop cone":
            del doc["cones"][k]
        else:
            doc["cones"].append(list(doc["cones"][k]))
    elif kind == "append ray":
        size = len(doc["rays"][0])
        doc["rays"].append(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
    elif kind == "dim":
        if type(doc["dim"]) is not int:
            return None
        doc["dim"] += draw(st.sampled_from((-1, 1)))
    elif kind == "bad entry":
        value = draw(st.sampled_from(BAD_VALUES))
        target = draw(st.sampled_from([("dim", None, None)] + int_entries(doc)))
        if target[0] == "dim":
            doc["dim"] = value
        else:
            field, i, j = target
            doc[field][i][j] = value
    elif kind == "star subdivision":
        # refine a document that validates at a primitive w in [-2, 2]^n that is not a ray
        try:
            fan = parse_fan_spec(doc)
        except ToricstabError:
            return None
        points = itertools.product(range(-2, 3), repeat=fan.dimension)
        points = [w for w in points if math.gcd(*w) == 1 and fan.ray_index(w) is None]
        if not points:  # P1: both primitive points are rays
            return None
        fan = fan.star_subdivision(draw(st.sampled_from(points)))
        doc.update(rays=[list(ray) for ray in fan.rays], cones=[list(cone) for cone in fan.max_cones])
    else:
        doc = draw(st.sampled_from(([], [1, 2], 3, "fan", None, True)))
    return doc


@st.composite
def mutated_specs(draw):
    """(the mutation kinds applied, the mutated document)."""
    doc = draw(st.sampled_from(SPECS))
    applied = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)):
        mutated = mutate(draw, doc, kind)
        if mutated is not None:
            doc = mutated
            applied.append(kind)
    return applied, doc


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_mutated_specs_end_in_a_documented_exit_code(tmp_path):
    path = str(tmp_path / "fan.json")
    seen_kinds, seen_codes = set(), set()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(case=mutated_specs(), w_beta=vectors, w_volfn=vectors)
    def check(case, w_beta, w_volfn):
        kinds, doc = case
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        commands = (
            ["analyze", path, "--radius", "1"],
            ["screen", path, "--radius", "1"],
            ["alpha", path],
            ["beta", path, "--w", w_beta],
            ["volfn", path, "--w", w_volfn],
        )
        for argv in commands:
            code, out, err = run_cli(argv)
            assert code in (0, 2, 3, 4), (argv, doc, code, err)
            if code:
                assert out == "", (argv, doc)
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, doc, err)
            seen_codes.add(code)
        seen_kinds.update(kinds)

    check()
    assert seen_kinds == set(KINDS)
    assert {0, 2, 3} <= seen_codes
