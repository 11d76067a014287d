"""Fan documents, batteries, reports, screening, CSV, CLI exit codes."""

import copy
import hashlib
import io
import json
import operator
import runpy
import sys
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest
from report_reference import reference_json, reference_screen_json
from screen_reference import (
    qualifying_vertices,
    reference_battery_vectors,
    reference_equality_bound_rays,
    reference_screen_result,
    reference_screen_witnesses,
)
from test_fans import UnreadableTables, bench_workloads

from toricstab import valuations
from toricstab.alpha import alpha_invariant
from toricstab.cli import main
from toricstab.errors import BudgetExceeded, InvariantViolation, ParseError
from toricstab.fans import Fan
from toricstab.piecewise import PiecewisePolynomial
from toricstab.corpus import builtin_fan_specs
from toricstab.polytopes import RationalPolytope
from toricstab.valuations import (
    ToricValuation,
    beta_invariant,
    equality_bound_rays,
    meets_equality_bound,
    mirrored_profile,
    valuation_profile,
)
from toricstab.workbench import (
    analyze,
    battery_vectors,
    export_volume_csv,
    load_builtin_fan,
    load_fan,
    orbit_profiles,
    parse_fan_spec,
    rat_str,
    report_json,
    screen_json,
    screen_projective_space,
    valuation_battery,
)

P123_SPEC = {
    "name": "P(1,2,3)",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-2, -3]],
    "cones": [[0, 1], [1, 2], [2, 0]],
}

Y_SPEC = {
    "name": "Y(1,2,3)",
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 0], [-2, -3]],
    "cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
}


def write_spec(tmp_path, spec, name="fan.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


# -- fan documents ---------------------------------------------------------


def test_load_fan_example_documents(tmp_path):
    y = load_fan(write_spec(tmp_path, Y_SPEC, "y.json"))
    assert len(y.rays) == 4 and len(y.max_cones) == 4
    x = load_fan(write_spec(tmp_path, P123_SPEC, "x.json"))
    assert x.degree() == 6


def test_load_fan_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_fan(str(bad))
    # a nesting deeper than the decoder's recursion limit, and an integer
    # longer than int() converts, are unreadable documents too
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    long_ray = tmp_path / "long.json"
    long_ray.write_text(json.dumps(P123_SPEC).replace("[-2, -3]", "[-2, " + "3" * 5000 + "]"))
    for path in (deep, long_ray):
        with pytest.raises(ParseError, match="invalid JSON"):
            load_fan(str(path))
        assert main(["analyze", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: invalid JSON") and out.err.count("\n") == 1
    with pytest.raises(ParseError, match="cannot read"):
        load_fan(str(tmp_path / "missing.json"))
    with pytest.raises(ParseError, match="missing required field"):
        parse_fan_spec({"name": "x", "dim": 2, "rays": [[1, 0]]})
    with pytest.raises(ParseError, match="'dim' must be an integer"):
        parse_fan_spec({"dim": "2", "rays": [], "cones": []})
    with pytest.raises(ParseError, match="integer vectors"):
        parse_fan_spec({"dim": 2, "rays": [[1, 0.5]], "cones": []})


def test_load_fan_invariant_violations(tmp_path):
    dup = dict(P123_SPEC, rays=[[1, 0], [1, 0], [-2, -3]])
    with pytest.raises(InvariantViolation, match="duplicate ray"):
        parse_fan_spec(dup)
    gap = dict(P123_SPEC, cones=[[0, 1], [1, 2]])
    with pytest.raises(InvariantViolation, match="fan not complete"):
        parse_fan_spec(gap)


def test_unknown_fields_warn():
    spec = dict(P123_SPEC, plot_color="red")
    with pytest.warns(UserWarning, match="unknown fan spec fields"):
        parse_fan_spec(spec)


def test_metadata_field_accepted_silently(recwarn):
    fan = parse_fan_spec(dict(P123_SPEC, metadata={"source": "builtin"}))
    assert fan.degree() == 6
    assert not [w for w in recwarn if "unknown fan spec" in str(w.message)]


# -- battery ----------------------------------------------------------------


def test_battery_counts(p2):
    assert len(valuation_battery(p2, 1)) == 8
    assert len(valuation_battery(p2, 2)) == 16
    assert len(valuation_battery(p2, 3)) == 32
    assert len(valuation_battery(p2, 4)) == 48


def test_battery_contains_rays(corpus_fans):
    for fan in corpus_fans:
        if fan.dimension > 3:
            continue
        battery = {v.w for v in valuation_battery(fan, 4)}
        for ray in fan.rays:
            if max(abs(x) for x in ray) <= 4:
                assert ray in battery


def test_battery_primitive_and_deterministic(p2):
    battery = valuation_battery(p2, 3)
    assert all(v.is_primitive for v in battery)
    assert [v.w for v in battery] == [v.w for v in valuation_battery(p2, 3)]
    with pytest.raises(InvariantViolation, match="radius"):
        valuation_battery(p2, 0)


def test_battery_bounded_by_the_oracle_budget(monkeypatch, p2):
    """The (2r+1)^n box is checked against the budget before it is scanned."""
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "100")
    with pytest.raises(BudgetExceeded, match="radius-5 battery scans 121 points"):
        valuation_battery(p2, 5)
    assert len(valuation_battery(p2, 4)) == 48
    monkeypatch.setenv("TKS_ORACLE_BUDGET", str(9**2))  # a box exactly at the budget is scanned
    assert len(valuation_battery(p2, 4)) == 48
    monkeypatch.setenv("TKS_ORACLE_BUDGET", str(9**2 - 1))
    with pytest.raises(BudgetExceeded, match="radius-4 battery scans 81 points"):
        valuation_battery(p2, 4)


def test_battery_vectors_match_the_reference_generator():
    """The gcd filter and sort key give the old generator's list, order
    included, for n = 1..4 at radius 1..3; `valuation_battery` wraps it."""
    for name in ("P1", "P2", "P3", "P4"):
        fan = load_builtin_fan(name)
        for radius in (1, 2, 3):
            vectors = battery_vectors(fan, radius)
            assert vectors == reference_battery_vectors(fan.dimension, radius), (name, radius)
            assert [v.w for v in valuation_battery(fan, radius)] == vectors


# -- analyze -----------------------------------------------------------------


def test_orbit_profiles_equal_direct_profiles(monkeypatch, corpus_fans):
    """Every orbit-copied or mirrored profile equals a freshly computed one,
    field by field and in the integer forms of vol and Q, at radius 4 up to
    dimension 2 and radius 2 above."""
    import toricstab.workbench as workbench

    mirrored = []

    def counted(val, other):
        mirrored.append(val.w)
        return mirrored_profile(val, other)

    monkeypatch.setattr(workbench, "mirrored_profile", counted)
    for fan in corpus_fans:
        battery = valuation_battery(fan, 4 if fan.dimension <= 2 else 2)
        for val, profile in zip(battery, orbit_profiles(fan, battery)):
            direct = valuation_profile(ToricValuation(fan, val.w))
            for f in fields(profile):
                assert getattr(profile, f.name) == getattr(direct, f.name), (fan.name, val.w, f.name)
            for got, want in (
                (profile.volume_fn, direct.volume_fn),
                (profile.restricted_volume_fn, direct.restricted_volume_fn),
            ):
                assert (got._grid, got._int_pieces) == (want._grid, want._int_pieces), (fan.name, val.w)
    # the mirror ran, on P(1,2,3) and Y(1,2,3) for every second orbit
    assert len(mirrored) >= 48


def test_a_tampered_minus_w_profile_breaks_the_mirror(p123):
    """A mirrored profile built from a -w profile whose vol or integral was
    changed raises: vol's endpoint check catches a moved end value, and the
    barycenter check a changed integral."""
    w, minus = (2, 1), (-2, -1)
    other = valuation_profile(ToricValuation(p123, minus))
    assert mirrored_profile(ToricValuation(p123, w), other) == valuation_profile(ToricValuation(p123, w))
    vol = other.volume_fn
    den, grid = vol._grid
    # vol_{-w} + 1 is continuous and C^1, but its value at 0 is not the degree
    raised = PiecewisePolynomial._from_int_form(den, grid, [(e, [c + e, *cs]) for e, (c, *cs) in vol._int_pieces])
    with pytest.raises(AssertionError, match="^volume function endpoint values are wrong$"):
        mirrored_profile(ToricValuation(p123, w), replace(other, volume_fn=raised))
    # replace would fail -w's own barycenter check, so change a copy's field
    tampered = copy.copy(other)
    object.__setattr__(tampered, "integrated_volume", other.integrated_volume + 1)
    with pytest.raises(AssertionError, match=r"^beta of \(2, 1\) breaks the barycenter identity$"):
        mirrored_profile(ToricValuation(p123, w), tampered)


@pytest.mark.parametrize("name,radius,orbits,size", [
    ("dP6", 4, 7, 48), ("P1xP1", 4, 7, 48), ("P1xP1xP1", 1, 3, 26), ("P3", 1, 4, 26),
    ("P(1,2,3)", 4, 24, 48), ("Y(1,2,3)", 4, 24, 48),
])
def test_one_profile_per_orbit(monkeypatch, name, radius, orbits, size):
    """`valuation_profile` runs once per orbit of the automorphism group
    together with -1 inside the battery."""
    import toricstab.workbench as workbench

    calls = []

    def counted(val):
        calls.append(val)
        return valuation_profile(val)

    monkeypatch.setattr(workbench, "valuation_profile", counted)
    fan = load_builtin_fan(name)
    profiles = analyze(fan, radius).profiles
    assert (len(calls), len(profiles)) == (orbits, size)
    assert [p.w for p in profiles] == [val.w for val in valuation_battery(fan, radius)]


def test_orbit_partition_equals_the_reference_group(monkeypatch, corpus_fans):
    """The battery's orbits in `orbit_profiles`, closed under the generators
    and -1, are those of the bench's reference group together with -1, on
    the corpus at radius 1 and on the corpus surfaces at radius 4."""
    import toricstab.workbench as workbench

    class Tag:
        """Stands in for a profile: the representative of its orbit."""

        def __init__(self, w):
            self.w = w

        def moved(self, image):
            return self

    monkeypatch.setattr(workbench, "valuation_profile", lambda val: Tag(val.w))
    monkeypatch.setattr(workbench, "mirrored_profile", lambda val, minus: minus)
    workloads = bench_workloads(monkeypatch)
    specs = builtin_fan_specs()
    cases = [(fan, 1) for fan in corpus_fans] + [(fan, 4) for fan in corpus_fans if fan.dimension == 2]
    for fan, radius in cases:
        battery = valuation_battery(fan, radius)
        tags = orbit_profiles(fan, battery)
        partition = {frozenset(val.w for val, tag in zip(battery, tags) if tag is t) for t in tags}
        group = workloads.automorphisms(specs[fan.name])
        group += [tuple(tuple(-x for x in row) for row in a) for a in group]
        members = {val.w for val in battery}
        reference = {
            frozenset(members.intersection(tuple(sum(map(operator.mul, row, val.w)) for row in a) for a in group))
            for val in battery
        }
        assert partition == reference, (fan.name, radius)


def test_each_orbit_gets_one_profile_direct_or_mirrored(monkeypatch, corpus_fans):
    """`orbit_profiles` computes or mirrors one profile per orbit of the
    bench's reference group (without -1) in the battery, no more: a mirrored
    w takes -1 times the orbit of -w, and the mirror runs exactly for the
    orbits whose negative came first.  The corpus at radius 1 and the corpus
    surfaces at radius 4."""
    import toricstab.workbench as workbench

    calls = []

    class Tag:
        """Stands in for a profile and records how it was made."""

        def __init__(self, kind, w):
            calls.append((kind, w))

        def moved(self, image):
            return self

    monkeypatch.setattr(workbench, "valuation_profile", lambda val: Tag("direct", val.w))
    monkeypatch.setattr(workbench, "mirrored_profile", lambda val, minus: Tag("mirror", val.w))
    workloads = bench_workloads(monkeypatch)
    specs = builtin_fan_specs()
    cases = [(fan, 1) for fan in corpus_fans] + [(fan, 4) for fan in corpus_fans if fan.dimension == 2]
    mirrored = 0
    for fan, radius in cases:
        battery = valuation_battery(fan, radius)
        del calls[:]
        orbit_profiles(fan, battery)
        group = workloads.automorphisms(specs[fan.name])
        members = {val.w for val in battery}
        classes = {
            frozenset(members.intersection(tuple(sum(map(operator.mul, row, val.w)) for row in a) for a in group))
            for val in battery
        }
        order = {val.w: i for i, val in enumerate(battery)}
        first = {min(c, key=order.__getitem__): c for c in classes}
        seen, expected = set(), []
        for w in (val.w for val in battery if val.w in first):
            expected.append(("mirror" if tuple(-x for x in w) in seen else "direct", w))
            seen |= first[w]
        assert calls == expected, (fan.name, radius)
        mirrored += sum(kind == "mirror" for kind, _ in calls)
    assert mirrored >= 48


def test_a_wrong_automorphism_breaks_the_barycenter_check(monkeypatch, tmp_path, capsys):
    """The coordinate swap is no automorphism of dP7.  Each orbit copy checks
    its own beta against -degree <b, w>, so `analyze` raises and the CLI
    exits 5 with one line on stderr instead of printing wrong betas."""
    from toricstab.fans import Fan

    generators = Fan.automorphism_generators
    swap = ((0, 1), (1, 0))
    monkeypatch.setattr(Fan, "automorphism_generators", lambda fan: generators(fan) + (swap,))
    spec = builtin_fan_specs()["dP7"]
    with pytest.raises(AssertionError, match=r"^beta of \(-?\d+, -?\d+\) breaks the barycenter"):
        analyze(parse_fan_spec(spec), 2)
    assert main(["analyze", write_spec(tmp_path, spec), "--radius", "2"]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("internal error: beta of (") and out.err.count("\n") == 1


def test_analyze_builds_one_battery(monkeypatch):
    """`analyze` profiles one `valuation_battery` and takes its screen from
    one `screen_projective_space` call, at the same radius."""
    import toricstab.workbench as workbench

    batteries, screens = [], []

    def counted_battery(fan, radius):
        batteries.append((fan.name, radius))
        return valuation_battery(fan, radius)

    def counted_screen(fan, radius):
        screens.append((fan.name, radius))
        return screen_projective_space(fan, radius)

    monkeypatch.setattr(workbench, "valuation_battery", counted_battery)
    monkeypatch.setattr(workbench, "screen_projective_space", counted_screen)
    analyze(load_builtin_fan("dP6"), 4)
    assert batteries == [("dP6", 4)]
    assert screens == [("dP6", 4)]


def test_analyze_screen_equals_standalone_screen(q_fano_fans, corpus_fans):
    """The screen in `analyze`'s report equals `screen_projective_space`,
    witnesses and verdict, on every Q-Fano test fan at radius 1 and on the
    corpus surfaces at radius 4 (the singular witness fans among them): it
    holds by construction, as `analyze` calls the screen.  The report text
    equals the dumped reference dict on the same reports."""
    cases = [(fan, 1) for fan in q_fano_fans]
    cases += [(fan, 4) for fan in corpus_fans if fan.dimension <= 2]
    verdicts = set()
    for fan, radius in cases:
        screen = screen_projective_space(fan, radius)
        report = analyze(fan, radius)
        assert report.projective_space_screen == screen, (fan.name, radius)
        assert report_json(report) == reference_json(report), (fan.name, radius)
        verdicts.add(screen.verdict.split(":")[0])
    assert {"no witnesses", "witnesses on projective space (equality case)", "singular counterexample"} <= verdicts


def test_automorphism_budget_keeps_the_report(monkeypatch):
    """Over budget on P1xP1xP1 and on P1^4, no cone table is read, there are
    no generators, every orbit is a singleton and the report bytes are unchanged."""
    specs = builtin_fan_specs()
    cube = specs["P1xP1xP1"]
    p1_4 = bench_workloads(monkeypatch).product_spec(cube, specs["P1"])
    for spec, candidates in ((cube, 8 * 6), (p1_4, 16 * 24)):
        expected = report_json(analyze(parse_fan_spec(spec), 1))
        fan = parse_fan_spec(spec)
        with monkeypatch.context() as patch:
            patch.setenv("TKS_ORACLE_BUDGET", str(candidates - 1))
            patch.setattr(fan, "_cone_tables", UnreadableTables())
            assert report_json(analyze(fan, 1)) == expected, spec["name"]
            assert fan.automorphism_generators() == ()


def test_analyze_keeps_the_valuation_caches_bounded():
    """Each parse builds a new Fan, so the caches never hit across parses;
    analyzing one spec again and again stays within their fixed size."""
    spec = builtin_fan_specs()["dP7"]
    caches = (valuations.volume_function, valuations.nef_threshold)
    for cache in caches:
        cache.cache_clear()
    analyze(parse_fan_spec(spec), radius=2)
    growth = min(cache.cache_info().currsize for cache in caches)
    assert growth > 0
    for _ in range(valuations.CACHE_SIZE // growth + 1):
        analyze(parse_fan_spec(spec), radius=2)
    for cache in caches:
        assert cache.cache_info().maxsize == valuations.CACHE_SIZE
        assert cache.cache_info().currsize <= valuations.CACHE_SIZE


def test_analyze_weighted_plane(p123):
    report = analyze(p123, radius=4)
    assert not report.toric_divisorial_semistable
    assert report.barycenter == (0, F(-1, 3))
    assert report.instability_witness.w == (0, -1)
    assert report.instability_witness.beta == -2
    assert not report.strictly_stable_over_toric
    assert report.degree == 6
    assert report.alpha.alpha == F(1, 6)


def test_analyze_projective_plane(p2):
    report = analyze(p2, radius=4)
    assert report.toric_divisorial_semistable
    assert report.min_beta == 0
    assert report.instability_witness is None
    assert not report.strictly_stable_over_toric
    assert report.projective_space_screen.recognized_projective_space


def test_analyze_square(square):
    report = analyze(square, radius=3)
    assert report.toric_divisorial_semistable
    assert report.min_beta == 0


def test_analyze_dimension_one(p1):
    report = analyze(p1, radius=4)
    assert report.toric_divisorial_semistable
    assert report.min_beta == 0
    assert len(report.profiles) == 2  # only the two primitive directions
    assert report.projective_space_screen.recognized_projective_space


def test_three_way_verdict_agreement(corpus_fans):
    """barycenter = 0 iff min battery beta >= 0 iff every beta >= 0."""
    for fan in corpus_fans:
        n = fan.dimension
        if n <= 2:
            radius = 4
        elif n == 3:
            radius = 2
        else:
            continue  # permutation-symmetric fans: see the representative test
        barycenter = fan.anticanonical_polytope().barycenter()
        betas = [beta_invariant(v) for v in valuation_battery(fan, radius)]
        semistable = all(x == 0 for x in barycenter)
        assert semistable == (min(betas) >= 0) == all(b >= 0 for b in betas), fan.name


def test_three_way_verdict_agreement_high_dimension():
    """For P4/P5 the radius-1 battery is covered by coordinate-permutation
    orbits, so checking one representative per orbit checks them all."""
    from toricstab.verification import concavity_battery

    for name in ("P4", "P5"):
        fan = load_builtin_fan(name)
        barycenter = fan.anticanonical_polytope().barycenter()
        assert all(x == 0 for x in barycenter)
        betas = [beta_invariant(v) for v in concavity_battery(fan)]
        assert all(b == 0 for b in betas), name


def test_screen_radius_monotone(p123, p2):
    for fan in (p123, p2):
        previous = set()
        for radius in (1, 2, 3, 4):
            current = {w.w for w in screen_projective_space(fan, radius).witnesses}
            assert previous <= current
            previous = current


def test_screen_smooth_non_pn_has_no_witnesses():
    for name in ("P1xP1", "dP8", "dP7", "dP6", "P1xP1xP1"):
        screen = screen_projective_space(load_builtin_fan(name), radius=4)
        assert screen.witnesses == ()
        assert screen.verdict == "no witnesses"


def test_screen_skips_the_battery_without_a_qualifying_vertex(monkeypatch, corpus_fans, p123):
    """No vertex of P1xP1 or dP6 can meet the bound, so the screen generates no
    battery vector and triangulates nothing.  No smooth corpus fan builds a
    battery either: the cones of its bound-meeting set are {0} or rays.
    P(1,2,3), with a 2-dimensional cone K_sigma, still scans the box."""
    import toricstab.workbench as workbench

    def refuse(*args):
        raise AssertionError("the screen built a battery")

    monkeypatch.setattr(workbench, "battery_vectors", refuse)
    for name in ("P1xP1", "dP6"):
        screen = screen_projective_space(load_builtin_fan(name), radius=4)
        assert screen.witnesses == ()
        assert screen.verdict == "no witnesses"
        # with no candidate, a fresh fan's polytope is not even triangulated
        fresh = parse_fan_spec(builtin_fan_specs()[name])
        assert screen_projective_space(fresh, radius=4) == screen
        assert "indexed_triangulation" not in vars(fresh.anticanonical_polytope())
    smooth = [fan for fan in corpus_fans if fan.is_smooth()]
    assert len(smooth) == 10
    for fan in smooth:
        screen_projective_space(fan, radius=4 if fan.dimension <= 3 else 2)
    assert equality_bound_rays(p123) is None
    with pytest.raises(AssertionError, match="the screen built a battery"):
        screen_projective_space(p123, radius=4)


def test_screen_on_bare_vectors_equals_the_valuation_loop(q_fano_fans):
    """The screen's witnesses, their order and its verdict equal the old loop's
    (a `ToricValuation` per battery vector, `meets_equality_bound`, then beta,
    with no pre-test) and the rule of `reference_screen_result` on every Q-Fano test fan at radii 1-10 in dimension 2,
    1-3 in dimension 3 and 1 above: 412 cases, which hold the bench radii."""
    cases = []
    for fan in q_fano_fans:
        top = {2: 10, 3: 3}.get(fan.dimension, 1)
        cases += [(fan, radius) for radius in range(1, top + 1)]
    assert len(cases) == 412
    verdicts = set()
    for fan, radius in cases:
        screen = screen_projective_space(fan, radius)
        witnesses = reference_screen_witnesses(fan, radius)
        assert screen.witnesses == witnesses, (fan.name, radius)
        assert screen == reference_screen_result(fan, radius, witnesses), (fan.name, radius)
        verdicts.add(screen.verdict.split(":")[0])
    assert {"no witnesses", "witnesses on projective space (equality case)", "singular counterexample"} <= verdicts


def test_screen_flags_a_witness_on_a_smooth_fan_that_is_not_projective_space(monkeypatch):
    """No smooth fan but P^n's carries a witness, so the violation verdict is
    reached only with a bound that lets every vector through: on P1xP1, whose
    barycenter is 0, each battery vector is then a witness with beta = 0."""
    import toricstab.workbench as workbench

    fan = load_builtin_fan("P1xP1")
    monkeypatch.setattr(workbench, "equality_bound_rays", lambda fan: None)
    monkeypatch.setattr(workbench, "row_meets_equality_bound", lambda n, row: True)
    screen = screen_projective_space(fan, 1)
    assert [w.w for w in screen.witnesses] == battery_vectors(fan, 1)
    assert screen.smooth and screen.recognized_projective_space is False
    assert screen.verdict.startswith("VIOLATION: ")
    assert screen == reference_screen_result(fan, 1, screen.witnesses)


def test_equality_bound_cones_are_rays_on_smooth_fans(q_fano_fans):
    """On every smooth Q-Fano test fan each cone K_sigma of the bound-meeting set
    is {0} or a ray, so the screen decides it at every radius at once: 26 fans
    by their generators, and 16 have no qualifying vertex.  The 25 singular
    fans with a qualifying vertex all have a larger K_sigma and fall back to
    the box scan."""
    split = {"no vertex": 0, "cones": 0, "fallback": 0}
    for fan in q_fano_fans:
        generators = equality_bound_rays(fan)
        if fan.is_smooth():
            assert generators is not None, fan.name
        if not qualifying_vertices(fan):
            assert generators == [], fan.name
            split["no vertex"] += 1
        elif generators is None:
            assert not fan.is_smooth(), fan.name
            split["fallback"] += 1
        else:
            assert fan.is_smooth(), fan.name
            assert all(meets_equality_bound(ToricValuation(fan, g)) for g in generators), fan.name
            split["cones"] += 1
    assert split == {"no vertex": 16, "cones": 26, "fallback": 25}


def test_equality_bound_rays_equal_the_elimination(monkeypatch, q_fano_fans):
    """The alpha rule gives what the double description over each qualifying
    cone gave (`reference_equality_bound_rays`) on every Q-Fano test fan and
    every relabelled spec of the three bench workloads for seeds 1-10."""
    workloads = bench_workloads(monkeypatch)
    fans = list(q_fano_fans) + [
        Fan(spec["dim"], spec["rays"], spec["cones"])
        for name in workloads.WORKLOADS
        for seed in range(1, 11)
        for spec in workloads.build(name, seed).specs
    ]
    assert len(fans) == len(q_fano_fans) + 270
    for fan in fans:
        assert equality_bound_rays(fan) == reference_equality_bound_rays(fan), fan


# the generators of every smooth corpus fan, in battery order
SMOOTH_BOUND_RAYS = {
    "P1": [(-1,), (1,)],
    "P2": [(-1, 0), (0, -1), (1, 1)],
    "P3": [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)],
    "P4": [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (1, 1, 1, 1)],
    "P5": [(-1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0), (0, 0, 0, -1, 0), (0, 0, 0, 0, -1), (1, 1, 1, 1, 1)],
    "P1xP1": [], "P1xP1xP1": [], "dP6": [],
    "dP8": [(-1, 0), (0, -1)],
    "dP7": [(0, -1)],
}


def test_equality_bound_rays_read_off_alpha(q_fano_fans, corpus_fans, p3):
    """alpha > 1/(n+1) gives [] (16 test fans), alpha < 1/(n+1) gives None
    (25), and alpha = 1/(n+1) gives the negated rays whose threshold
    tau(v_k) is n + 1, in battery order (26).  A star subdivision of P3 with
    alpha = 1/4 and a vertex at n D on two rays gives None, as the
    elimination does, and its screen scans the box."""
    split = {"above": 0, "below": 0, "equal": 0}
    for fan in q_fano_fans:
        n, alpha = fan.dimension, alpha_invariant(fan)
        generators = equality_bound_rays(fan)
        if alpha.alpha > F(1, n + 1):
            assert generators == [], fan.name
            split["above"] += 1
        elif alpha.alpha < F(1, n + 1):
            assert generators is None, fan.name
            split["below"] += 1
        else:
            extremal = [tuple(-x for x in ray) for ray, t in zip(fan.rays, alpha.ray_thresholds) if t == n + 1]
            assert generators == sorted(extremal, key=lambda g: (max(map(abs, g)), g)), fan.name
            split["equal"] += 1
    assert split == {"above": 16, "below": 25, "equal": 26}
    assert {fan.name: equality_bound_rays(fan) for fan in corpus_fans if fan.is_smooth()} == SMOOTH_BOUND_RAYS
    twice = p3.star_subdivision((0, 1, 1)).star_subdivision((-1, 1, 1))
    assert alpha_invariant(twice).alpha == F(1, 4)
    assert equality_bound_rays(twice) is None and reference_equality_bound_rays(twice) is None
    for radius in (1, 2, 3):
        assert screen_projective_space(twice, radius).witnesses == reference_screen_witnesses(twice, radius)


def test_screen_box_scan_equals_the_cone_path(monkeypatch, p2, p3):
    """With `equality_bound_rays` patched to give None, the screen scans the
    box on P2 and P3, with the same result as the cone path."""
    import toricstab.workbench as workbench

    expected = {fan.name: screen_projective_space(fan, 10 if fan.dimension == 2 else 3) for fan in (p2, p3)}
    scanned = []
    original = workbench.battery_vectors

    def recorded(fan, radius):
        scanned.append(fan.name)
        return original(fan, radius)

    monkeypatch.setattr(workbench, "battery_vectors", recorded)
    monkeypatch.setattr(workbench, "equality_bound_rays", lambda fan: None)
    for fan in (p2, p3):
        assert screen_projective_space(fan, expected[fan.name].radius) == expected[fan.name]
    assert scanned == ["P2", "P3"]


def test_screen_builds_no_volume_function(monkeypatch, corpus_fans):
    """The screen takes each witness's beta from the barycenter identity, A and
    tau from its vertex row: with `valuations.volume_function` and the
    screen's `ToricValuation` refusing, it screens P2, dP8 and dP7 at radius
    10 and P3 at radius 3, base and relabelled as in screen-smooth for seeds
    1-10, and the singular corpus fans on the box-scan path at radius 4,
    each with the reference loop's witnesses and verdict."""
    import toricstab.workbench as workbench

    workloads = bench_workloads(monkeypatch)
    names = ("P2", "dP8", "dP7", "P3")
    cases = [(load_builtin_fan(name), 10 if name != "P3" else 3) for name in names]
    cases += [
        (parse_fan_spec(spec), 10 if spec["dim"] == 2 else 3)
        for seed in range(1, 11)
        for spec in workloads.build("screen-smooth", seed).specs
        if spec["name"] in names
    ]
    singular = [fan for fan in corpus_fans if not fan.is_smooth()]
    assert len(cases) == 44 and [fan.name for fan in singular] == ["P(1,2,3)", "P(1,1,2)", "Y(1,2,3)"]
    cases += [(fan, 4) for fan in singular]

    def refuse(*args):
        raise AssertionError("the screen built a volume function or a valuation")

    with monkeypatch.context() as m:
        m.setattr(valuations, "volume_function", refuse)
        m.setattr(workbench, "ToricValuation", refuse)
        screens = [screen_projective_space(fan, radius) for fan, radius in cases]
    # P2 and P3 in all 22 copies, and P(1,2,3) with its singular witness (-1, 0)
    assert sum(bool(screen.witnesses) for screen in screens) == 23
    for (fan, radius), screen in zip(cases, screens):
        expected = reference_screen_result(fan, radius, reference_screen_witnesses(fan, radius))
        assert screen == expected, (fan.name, radius)


def _patch_row(monkeypatch, at, change):
    original = RationalPolytope.vertex_values

    def values(self, w):
        row = original(self, w)
        return change(row) if tuple(w) == at else row

    monkeypatch.setattr(RationalPolytope, "vertex_values", values)


def test_screen_checks_positivity_on_every_battery_vector(monkeypatch, p123):
    """A vertex row with min >= 0 raises the positivity error in the box scan,
    also for a vector that does not meet the bound (the last of the radius-2
    battery), so the check runs before the bound decides anything."""
    last = battery_vectors(p123, 2)[-1]
    assert last == (2, 1) and not meets_equality_bound(ToricValuation(p123, last))
    assert equality_bound_rays(p123) is None
    _patch_row(monkeypatch, last, lambda row: [abs(s) for s in row])
    with pytest.raises(AssertionError, match=r"^log discrepancy of \(2, 1\) not positive$"):
        screen_projective_space(p123, 2)


def test_screen_checks_each_cone_generator_on_its_own_row(monkeypatch, p2):
    """On the cone path each generator's vertex row is read again: a row with
    min >= 0 raises the positivity error, and a row, or a generator from a
    wrong elimination, that fails the bound raises."""
    import toricstab.workbench as workbench

    assert (1, 1) in equality_bound_rays(p2)
    with monkeypatch.context() as m:
        _patch_row(m, (1, 1), lambda row: [abs(s) for s in row])
        with pytest.raises(AssertionError, match=r"^log discrepancy of \(1, 1\) not positive$"):
            screen_projective_space(p2, 2)
    with monkeypatch.context() as m:
        _patch_row(m, (1, 1), lambda row: [-1] + [1] * (len(row) - 1))
        with pytest.raises(AssertionError, match=r"^cone generator \(1, 1\) does not meet the equality-case bound$"):
            screen_projective_space(p2, 2)
    monkeypatch.setattr(workbench, "equality_bound_rays", lambda fan: [(-1, 0), (0, -1), (1, 0), (1, 1)])
    with pytest.raises(AssertionError, match=r"^cone generator \(1, 0\) does not meet the equality-case bound$"):
        screen_projective_space(p2, 2)


def test_screen_skip_keeps_the_radius_guards(monkeypatch, tmp_path, capsys):
    """The radius and budget guards run before the pre-test skips the battery."""
    path = write_spec(tmp_path, builtin_fan_specs()["P1xP1"])
    assert main(["screen", path, "--radius", "0"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: battery radius must be at least 1\n"
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "100")
    assert main(["screen", path, "--radius", "5"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: oracle budget exceeded: radius-5 battery scans 121 points\n"


def test_report_determinism(tmp_path, p123):
    path = write_spec(tmp_path, P123_SPEC)
    first = report_json(analyze(load_fan(path), radius=2))
    second = report_json(analyze(load_fan(path), radius=2))
    assert first == second
    parsed = json.loads(first)
    assert parsed["verdicts"]["toric_divisorial_semistable"] is False
    assert parsed["degree"] == "6/1"
    assert parsed["alpha"]["alpha"] == "1/6"
    assert any("dreaminess" in a for a in parsed["assumptions"])


def test_report_json_equals_the_reference(corpus_fans):
    """The written report equals `json.dumps(report_dict(r), indent=2)` on every
    corpus fan at radius 2 and on P4 at radius 4 (a 7.95 MB report), and the
    screen text of the `screen` command equals its `json.dumps` too."""
    cases = [(fan, 2) for fan in corpus_fans] + [(load_builtin_fan("P4"), 4)]
    for fan, radius in cases:
        report = analyze(fan, radius)
        assert report_json(report) == reference_json(report), (fan.name, radius)
        screen = report.projective_space_screen
        assert screen_json(screen) == reference_screen_json(screen), (fan.name, radius)


@pytest.mark.parametrize("name", [
    "@@VALUATIONS@@",
    '"valuations"',
    '\n  "valuations": []',
    'quote " backslash \\ newline \n end',
    "é☃",
], ids=["sentinel", "key-name", "key-line", "escapes", "non-ascii"])
def test_report_json_adversarial_fan_names(name):
    """Names that mimic the valuations key or need escapes change nothing but
    the encoded name, in the report and in its screen block: each member is
    written in its place, with the name encoded by `json.dumps`."""
    report = analyze(parse_fan_spec({**P123_SPEC, "name": name}), 1)
    text = report_json(report)
    assert text == reference_json(report)
    assert screen_json(report.projective_space_screen) == reference_screen_json(report.projective_space_screen)
    assert json.loads(text)["fan"] == name


def test_report_json_refuses_inexact_rationals(p2):
    """A float rational raises at the top level and inside a profile, also in
    an orbit copy whose other members were rendered already."""
    report = analyze(p2, 1)
    with pytest.raises(InvariantViolation, match="not an exact rational"):
        report_json(replace(report, degree=0.5))
    profiles = list(report.profiles)
    last = profiles[-1]
    assert any(p.volume_fn is last.volume_fn for p in profiles[:-1])
    profiles[-1] = replace(last, nef_threshold=0.5)
    with pytest.raises(InvariantViolation, match="not an exact rational"):
        report_json(replace(report, profiles=tuple(profiles)))


def test_report_json_renders_each_changed_member(p123):
    """An entry's text after "w" is reused only when every member is the
    object the entry rendered last with that vol had.  After the source
    profile comes a `replace` of it with another center_codim, then copies
    that change one member each and share every other one, each after the
    source again: every entry still equals `reference_json`'s."""
    report = analyze(p123, 2)
    source = report.profiles[0]
    other_q = next(p.restricted_volume_fn for p in report.profiles if p.volume_fn._grid != source.volume_fn._grid)
    added = [source, replace(source, center_codim=source.center_codim + 1)]
    for name, value in (
        ("log_discrepancy", source.log_discrepancy + 1),
        ("pseff_threshold", source.pseff_threshold + 1),
        ("nef_threshold", source.nef_threshold / 2),
        ("integrated_volume", source.integrated_volume + 1),
        ("beta", source.beta + 1),
        ("center_codim", source.center_codim - 1),
        ("is_primitive", not source.is_primitive),
        ("restricted_volume_fn", other_q),
    ):
        changed = copy.copy(source)
        object.__setattr__(changed, name, value)
        added += [source, changed]
    assert all(p.volume_fn is source.volume_fn for p in added)
    tampered = replace(report, profiles=report.profiles + tuple(added))
    assert report_json(tampered) == reference_json(tampered)


# SHA-256 of whole reports, recorded from the slice-and-interpolate volume
# function; any change to a report byte is a change of behaviour
REPORT_DIGESTS = {
    ("P(1,2,3)", 4): "3c1d8920ef02f2cd139cc20dcd6702bfa122d3359d1e4763a0b64d71542ede8e",
    ("dP6", 2): "211ba1e50fdcbf569aef6bff8582b3add7d9ddf28e36fec56ffd1ee618d4e958",
    ("P3", 1): "fe41b848bf03bd91b00507e8d1ee9e7725b266e66ae29f5655fe0c1a8d71b086",
    ("P1xP1xP1", 1): "9ff83f8c82713fc6b8d0096a2e506bd27f1b2234c04be2ec769cc453b938d960",
}
VOLFN_DIGEST = "abd3974c4f1fbaaff7203bd2d3840d8dfac8a555cfcde8eed11504a1c782400e"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_report_bytes_pinned(tmp_path, capsys):
    for (name, radius), digest in REPORT_DIGESTS.items():
        text = report_json(analyze(load_builtin_fan(name), radius))
        assert sha256(text) == digest, (name, radius)
    path = write_spec(tmp_path, P123_SPEC)
    assert main(["volfn", path, "--w", "-1,0"]) == 0
    assert sha256(capsys.readouterr().out) == VOLFN_DIGEST


# SHA-256 of `toricstab screen` stdout on every corpus fan (radius 4, radius 2
# above dimension 3), recorded before the screen skipped batteries whose fan
# has no vertex that can meet the bound
SCREEN_DIGESTS = {
    ("P1", 4): "7bfc2273223d0a13f29ffe9024a44d0b0292ebc05d9a7c90db3b29e61affb302",
    ("P2", 4): "91b2ff804c41f7818688e0819d2769f598eafdaf4de159d84ebd1a6f59f75811",
    ("P3", 4): "90607ebc26ca450d6cdf6337b742d7f50dced8746c57d1338ec4e220e769d05c",
    ("P4", 2): "8a77c2e2f03ae7a5954ec333e53306505cd6918eee11cd0446bc7830dc3b3a8d",
    ("P5", 2): "c28f17ca9529aeb30a12bcf5153dd89ab46e72c4cf957e4ff76fc82f285b0314",
    ("P1xP1", 4): "8f1c30d0668b7b2d96625d1a397e2d320b7923411424bfbc37bb2e03ab670d9a",
    ("P1xP1xP1", 4): "bec922b548629812b74b546374c29bf7ac7dc6f8cda292019d497c71b48a89c8",
    ("dP8", 4): "8420ce4cea1f7cd7e95874f8b29badb9c7c5c87efae2b9ff880dc23c2123271b",
    ("dP7", 4): "6fe1036c4f986cd46341c94001006be9d6118fa2e8c0fddfd50805c98c82475f",
    ("dP6", 4): "028b885444f9a92f3a0d11ca75f15843ef0a478166fed2ce32813bd7544b6bfa",
    ("P(1,2,3)", 4): "461fba37fcd8187a2b6455009148d3b7c902c3cece1b74fd1af545fbfaa40f68",
    ("P(1,1,2)", 4): "d4bdc35e9187d5c29e01d24e7e8a88d9905de67bd39cfd5df787acd70e3ab1c9",
    ("Y(1,2,3)", 4): "aa9e50e6bdb4ce532423a705f8a056a7f95318c6b1e2fa491b29dd91aca68fd4",
}


def test_screen_bytes_pinned(tmp_path, capsys):
    specs = builtin_fan_specs()
    assert {name for name, _ in SCREEN_DIGESTS} == set(specs)
    for (name, radius), digest in SCREEN_DIGESTS.items():
        path = write_spec(tmp_path, specs[name])
        assert main(["screen", path, "--radius", str(radius)]) == 0
        assert sha256(capsys.readouterr().out) == digest, (name, radius)


# SHA-256 of `toricstab screen` stdout at the screen-smooth bench radii and on
# P(1,2,3), which scans the box, recorded before the screen read the extreme
# rays of the bound-meeting cones
BENCH_SCREEN_DIGESTS = {
    ("P2", 10): "85b191056d5399a8bc1fdbda9a4019834f38da2571101d1359ffaaeacd9ff26f",
    ("dP8", 10): "ce52b45e642d2ee7395aee54d262088be3669edd6e557c969d83955ca72ffe56",
    ("dP7", 10): "b89be08bd12b264cdad9d8f032b02c724754125b56254b577ac3aad189d705db",
    ("P3", 3): "30029b30837e3661855e14541a24149d57e0e58ec1d7ba8cbc388fc6f0928b2f",
    ("P(1,2,3)", 4): "461fba37fcd8187a2b6455009148d3b7c902c3cece1b74fd1af545fbfaa40f68",
}


def test_screen_bytes_pinned_at_the_bench_radii(tmp_path, capsys):
    specs = builtin_fan_specs()
    for (name, radius), digest in BENCH_SCREEN_DIGESTS.items():
        path = write_spec(tmp_path, specs[name])
        assert main(["screen", path, "--radius", str(radius)]) == 0
        assert sha256(capsys.readouterr().out) == digest, (name, radius)


# SHA-256 of `toricstab alpha` and of `toricstab beta --w 1,...,1` stdout on
# every corpus fan, recorded before the alpha gate and the one-caller solve
# layers of `lattice` were deleted
ALPHA_DIGESTS = {
    "P1": "7690cd177b03b78798e21e25cca0bbfd1b00fc1bef87dc16a66c3e68c0c9de3a",
    "P2": "6b7aae1ec03ed27956c2c7659c8e9f323d19b8fa07c53cc043f0db09f907a51b",
    "P3": "c01afa695b0ac82e3c8b98c0b56ca2d672e705375ef9ea99d4d928a3449be6f1",
    "P4": "88d66116579714cfa7225b0311e8eb261a656f6e0965e329cc84ff3bef0c5a9e",
    "P5": "709053cdb43a07edbe9a245fcdcfc45c9418c48dd2200e50dfb98a2013c83ae8",
    "P1xP1": "f662891e037f56a5475e6aadfd58cfcec8b3bf90735f7e1c43ed557254e9b916",
    "P1xP1xP1": "9ef43229084692071b329d60e0eae004a5a6df3c24cac80e8050a52989af2e37",
    "dP8": "541b905f8173e27c2bf6e728b0e11934cdbd8e61a31bd82846d12281da8d48ef",
    "dP7": "f613c53c802b22c29650c99032900361a67aa97ff837f79129cf90c227f033b2",
    "dP6": "db92bc1734004c9507875f63c486d3c2f57ecd6e79b1ec1f60eb3fd3e6edd2d6",
    "P(1,2,3)": "fc6a47ccecb340ec85a7b814a003a1e78caa60d6195840a33d51184db4d07182",
    "P(1,1,2)": "bf277f464db6c7d4c1bc061c44ee48c8bb35d98e96afbeb8592cf52425a8176c",
    "Y(1,2,3)": "0bf11d0d431d6e3f008f5decb44220e09953d604a99c9a1080c2d33b2ddc1e03",
}
BETA_DIGESTS = {
    "P1": "ce0a6b09d272b1365766de8e78c93f80d56e71f96b4f47829f4d20784f0ababc",
    "P2": "1c2fadfa6984b90c04b09bdbdd49165e5ce956dd7844727ad0b38c8ec81047d9",
    "P3": "96a41954a96e60fee6f62dd10aa7d5d9fedd2b7bf6218b40cac6320cfaa09ae0",
    "P4": "9ff391483b5ebbf41bf45922c2c6b7b45f0f397c332fe676d9bdae090b3093de",
    "P5": "2dd7f5aae24ed28c9460475b2d97d04c13a1d75ecfa049bc903e0f248c1b945c",
    "P1xP1": "7805de1e17d4297179d950c1f9986f95ae47dd541caaaa46b980eef8f58fc91c",
    "P1xP1xP1": "dadf1224d7bbefdf9e4ee48e2c45e22c55bb4bdadf898c07d45cc108880aee14",
    "dP8": "26917889c0b412660fba931a33cf9d463dfa5a971d13205bae0480cf77aaac26",
    "dP7": "23c6e2e40667d9e08fbfd21012a811bd061df14254a217305b4108269754e4e5",
    "dP6": "0752d71397b839fd24889b3dd14336302e37c155086ab1d7272a639334f5db0a",
    "P(1,2,3)": "9e2e462883f67dedc73046c906cbda4aa58da10fd46bfe34b52ec337fb4ccb80",
    "P(1,1,2)": "7805de1e17d4297179d950c1f9986f95ae47dd541caaaa46b980eef8f58fc91c",
    "Y(1,2,3)": "59e593e1a9719df7fcd4bb004cad8d1a09dd9d944c142cff2e19c568cc01dd50",
}


def test_alpha_and_beta_bytes_pinned(tmp_path, capsys):
    specs = builtin_fan_specs()
    assert set(ALPHA_DIGESTS) == set(BETA_DIGESTS) == set(specs)
    for name, spec in specs.items():
        path = write_spec(tmp_path, spec)
        assert main(["alpha", path]) == 0
        assert sha256(capsys.readouterr().out) == ALPHA_DIGESTS[name], name
        assert main(["beta", path, "--w", ",".join(["1"] * spec["dim"])]) == 0
        assert sha256(capsys.readouterr().out) == BETA_DIGESTS[name], name


def test_rat_str_renders_ints_and_fractions():
    assert [rat_str(x) for x in (0, 7, -3, F(6), F(-2, 3), F(4, 6))] == [
        "0/1", "7/1", "-3/1", "6/1", "-2/3", "2/3"
    ]


@pytest.mark.parametrize("value", [0.5, 2.0, "1/2", True])
def test_rat_str_refuses_inexact_types(value):
    with pytest.raises(InvariantViolation, match="not an exact rational"):
        rat_str(value)


def test_report_rats_in_lowest_terms(p123):
    report = json.loads(report_json(analyze(p123, radius=1)))

    def walk(node):
        if isinstance(node, str) and "/" in node:
            num, den = node.split("/")
            yield int(num), int(den)
        elif isinstance(node, list):
            for item in node:
                yield from walk(item)
        elif isinstance(node, dict):
            for item in node.values():
                yield from walk(item)

    import math

    for num, den in walk(report):
        assert den > 0 and math.gcd(abs(num), den) == 1


# -- CSV -----------------------------------------------------------------------


GOLDEN_CSV = """x,vol,Q,x_exact,vol_exact,Q_exact
0,6,0,0/1,6/1,0/1
1,5.33333333333,0.666666666667,1/1,16/3,2/3
2,3.33333333333,1.33333333333,2/1,10/3,4/3
3,0,2,3/1,0/1,2/1
"""


def test_export_volume_csv_golden(p123):
    buf = io.StringIO()
    export_volume_csv(p123, (-1, 0), 4, buf)
    assert buf.getvalue() == GOLDEN_CSV


def test_export_volume_csv_two_samples(p123):
    buf = io.StringIO()
    export_volume_csv(p123, (-1, 0), 2, buf)
    lines = buf.getvalue().splitlines()
    assert lines[1].startswith("0,6,0")
    assert lines[2].startswith("3,0,2")
    with pytest.raises(InvariantViolation, match="samples"):
        export_volume_csv(p123, (-1, 0), 1, io.StringIO())


# -- CLI ---------------------------------------------------------------------------


def test_cli_analyze_and_exit_codes(tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--radius", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fan"] == "P(1,2,3)"

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["analyze", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    nonfano = write_spec(
        tmp_path, dict(P123_SPEC, cones=[[0, 1], [1, 2]]), "gap.json"
    )
    assert main(["analyze", nonfano]) == 3


def test_cli_module_exits_with_the_command_code(tmp_path, monkeypatch, capsys):
    """`python -m toricstab.cli` runs `main` on sys.argv and exits with its code."""
    monkeypatch.setattr(sys, "argv", ["toricstab", "alpha", str(tmp_path / "missing.json")])
    monkeypatch.delitem(sys.modules, "toricstab.cli")  # run the module afresh, as -m does
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("toricstab.cli", run_name="__main__")
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("error: cannot read fan spec")



def test_json_booleans_rejected(tmp_path, capsys):
    # bool is an int subclass; true/false must not pass as integers
    for spec in (
        {"dim": True, "rays": [[1], [-1]], "cones": [[0], [1]]},
        {"dim": 1, "rays": [[True], [-1]], "cones": [[0], [1]]},
        {"dim": 1, "rays": [[1], [-1]], "cones": [[False], [1]]},
    ):
        with pytest.raises(ParseError):
            parse_fan_spec(spec)
    path = write_spec(tmp_path, {"dim": True, "rays": [[True], [-1]], "cones": [[0], [1]]})
    assert main(["analyze", path, "--radius", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_non_fano_hirzebruch(tmp_path, capsys):
    # F_a has rays (1,0), (0,1), (-1,a), (0,-1); only F_0 and F_1 are Fano
    for a in (2, 3):
        spec = {"name": f"F{a}", "dim": 2, "rays": [[1, 0], [0, 1], [-1, a], [0, -1]],
                "cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}
        path = write_spec(tmp_path, spec, f"F{a}.json")
        assert main(["beta", path, "--w", "-1,0"]) == 3
        assert "not Q-Fano" in capsys.readouterr().err
        assert main(["analyze", path, "--radius", "1"]) == 3
        capsys.readouterr()
        assert main(["screen", path, "--radius", "1"]) == 3
        assert "not Q-Fano" in capsys.readouterr().err

def test_cli_beta_output(tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    assert main(["beta", path, "--w", "-1,0"]) == 0
    out = capsys.readouterr().out
    assert "A = 2/1" in out and "beta = 0/1" in out and "eps = 3/1" in out


def test_cli_beta_bad_vector(tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    assert main(["beta", path, "--w", "one,two"]) == 2


def test_cli_volfn_csv(tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    out = tmp_path / "vol.csv"
    assert main(["volfn", path, "--w", "-1,0", "--samples", "4", "--csv", str(out)]) == 0
    assert out.read_text() == GOLDEN_CSV


def test_cli_volfn_samples_checked_before_output(monkeypatch, tmp_path, capsys):
    """A bad --samples count fails before any line is printed or the CSV is created."""
    path = write_spec(tmp_path, P123_SPEC)
    out = tmp_path / "vol.csv"
    assert main(["volfn", path, "--w", "-1,0", "--samples", "1", "--csv", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: samples must be at least 2\n"
    assert not out.exists()
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "5")
    assert main(["volfn", path, "--w", "-1,0", "--samples", "6", "--csv", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: oracle budget exceeded")
    assert not out.exists()
    assert main(["volfn", path, "--w", "-1,0", "--samples", "5", "--csv", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote 5 samples to {out}\n")
    assert len(out.read_text().splitlines()) == 6


def test_cli_volfn_without_csv_ignores_samples(capsys, tmp_path):
    path = write_spec(tmp_path, P123_SPEC)
    assert main(["volfn", path, "--w", "-1,0", "--samples", "1"]) == 0
    assert sha256(capsys.readouterr().out) == VOLFN_DIGEST


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"dim": 0, "rays": [], "cones": []}, "dimension must be at least 1"),
        (dict(P123_SPEC, cones=[[0, 1, 2], [1, 2], [2, 0]]), "has 3 rays, expected 2"),
        (dict(P123_SPEC, cones=[[0, 1], [1, 3], [2, 0]]), "references a missing ray"),
    ],
)
def test_cli_fan_rejections_exit_3(tmp_path, capsys, spec, message):
    path = write_spec(tmp_path, spec)
    assert main(["analyze", path, "--radius", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err and captured.err.count("\n") == 1


def test_cli_spec_must_be_an_object(tmp_path, capsys):
    path = write_spec(tmp_path, [P123_SPEC])
    assert main(["analyze", path, "--radius", "1"]) == 2
    assert capsys.readouterr().err == "error: fan spec must be a JSON object\n"


def test_unknown_builtin_fan():
    with pytest.raises(ParseError, match="unknown builtin fan 'nope'"):
        load_builtin_fan("nope")


def test_cli_bad_budget_value(monkeypatch, tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "abc")
    assert main(["analyze", path, "--radius", "1"]) == 3
    assert capsys.readouterr().err == "error: bad TKS_ORACLE_BUDGET value: 'abc'\n"


def test_cli_alpha_output(tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    assert main(["alpha", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "alpha = 1/6"


def test_cli_analyze_to_stdout(tmp_path, capsys, p123):
    path = write_spec(tmp_path, P123_SPEC)
    assert main(["analyze", path, "--radius", "1"]) == 0
    assert capsys.readouterr().out == report_json(analyze(p123, radius=1))


def test_cli_beta_non_primitive_note(tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    assert main(["beta", path, "--w", "-2,0"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "note: w is not primitive; invariants scale with its multiplicity"
    assert main(["beta", path, "--w", "-1,0"]) == 0
    assert "note:" not in capsys.readouterr().out


def test_cli_screen(tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    assert main(["screen", path, "--radius", "2"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["verdict"].startswith("singular counterexample")


def test_cli_unwritable_output_exit_code(tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    missing = tmp_path / "no-such-dir" / "out"
    assert main(["analyze", path, "--radius", "1", "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert main(["volfn", path, "--w", "-1,0", "--csv", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_cli_non_utf8_spec_exit_code(tmp_path, capsys):
    """A spec file that is not UTF-8 is unreadable input (exit 2), not an internal error."""
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "caf\xe9", "dim": 1}')
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fan spec ") and "not UTF-8" in err and err.count("\n") == 1


def test_cli_internal_error_exit_code(monkeypatch, tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)

    def failed_check(val):
        raise AssertionError("nef threshold is unbounded, fan cannot be complete")

    monkeypatch.setattr("toricstab.valuations.nef_threshold", failed_check)
    assert main(["beta", path, "--w", "-1,0"]) == 5
    err = capsys.readouterr().err
    assert err == "internal error: nef threshold is unbounded, fan cannot be complete\n"

    def bare_assert(val):
        raise AssertionError

    monkeypatch.setattr("toricstab.valuations.nef_threshold", bare_assert)
    assert main(["beta", path, "--w", "-1,0"]) == 5
    assert capsys.readouterr().err == "internal error: assertion failed\n"


def test_cli_piecewise_errors_exit_code(monkeypatch, tmp_path, capsys):
    """Exact computations that cannot proceed end in one line and exit 5."""
    from toricstab.piecewise import PiecewisePolynomial

    path = write_spec(tmp_path, P123_SPEC)

    def discontinuous(val):
        return PiecewisePolynomial((F(0), F(1), F(2)), ((F(0),), (F(5),)))

    monkeypatch.setattr("toricstab.valuations.volume_function", discontinuous)
    assert main(["beta", path, "--w", "-1,0"]) == 5
    assert capsys.readouterr().err == "internal error: discontinuity at breakpoint 1: 0 != 5\n"


def test_cli_root_concavity_errors_exit_code(monkeypatch, capsys):
    """A negative Q and inseparable m-th roots in criterion 6 both exit 5; the
    latter arise only where the root-concavity certificate does not conclude,
    so it is refused here."""
    import toricstab.verification as verification
    from toricstab.piecewise import PiecewisePolynomial

    monkeypatch.setattr(verification, "ALL_CHECKS", (("6", verification.check_concavity),))
    monkeypatch.setattr(
        verification,
        "restricted_volume",
        lambda val: PiecewisePolynomial((F(0), F(1)), ((F(-1), F(1)),)),
    )
    assert main(["verify"]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "internal error: root concavity needs nonnegative values\n"

    monkeypatch.undo()
    monkeypatch.setattr(verification, "ALL_CHECKS", (("6", verification.check_concavity),))
    monkeypatch.setattr("toricstab.piecewise.root_floor", lambda num, den, m, scale: 0)
    monkeypatch.setattr("toricstab.piecewise.root_concave_certificate", lambda fn, m: False)
    # each Q is kept on its cached vol with its verdicts: start fresh, and leave no refused one
    valuations.volume_function.cache_clear()
    assert main(["verify"]) == 5
    valuations.volume_function.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal error: m-th roots of ") and err.count("\n") == 1
    assert err.endswith(" not separable at width 1e-96\n")


def test_cli_budget_exit_code(monkeypatch, tmp_path):
    path = write_spec(tmp_path, P123_SPEC)

    def boom(*args, **kwargs):
        raise BudgetExceeded("oracle budget exceeded")

    monkeypatch.setattr("toricstab.cli.analyze", boom)
    assert main(["analyze", path]) == 4


def test_cli_screen_radius_over_budget_exit_code(monkeypatch, tmp_path, capsys):
    path = write_spec(tmp_path, P123_SPEC)
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "100")
    assert main(["screen", path, "--radius", "5"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: oracle budget exceeded: radius-5 battery scans 121 points\n"
