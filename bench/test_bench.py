"""Tests of the benchmark's own inputs, oracles, statistics and tracer.

Run from the repository root:  python3 -m pytest bench -q
"""

import math
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles
import run
import workloads
from speed import REFERENCE_UNIT_S, Speedometer
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent


def _fan_key(spec):
    rays = [tuple(r) for r in spec["rays"]]
    return spec["dim"], frozenset(rays), frozenset(frozenset(rays[i] for i in c) for c in spec["cones"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", range(5))
def test_every_generated_fan_is_ample(name, seed):
    for spec in workloads.build(name, seed).specs:
        assert oracles.check_ample(spec) > 0


@pytest.mark.parametrize("top", [2, 3])
def test_weak_fano_and_non_fano_hirzebruch_surfaces_are_rejected(top):
    spec = workloads._plane(f"F{top}", [[1, 0], [0, 1], [-1, top], [0, -1]])
    with pytest.raises(oracles.NotAmple):
        oracles.check_ample(spec)


def test_catalog_copies_the_package_corpus():
    from toricstab.corpus import builtin_fan_specs

    catalog = workloads.fan_catalog()
    for name, spec in builtin_fan_specs().items():
        assert _fan_key(catalog[name]) == _fan_key(spec), name


def test_oracles_agree_with_the_package():
    from toricstab.alpha import alpha_invariant
    from toricstab.workbench import parse_fan_spec

    for spec in workloads.fan_catalog().values():
        oracle = oracles.fan_oracle(spec)
        fan = parse_fan_spec(spec)
        assert oracle.degree == fan.degree()
        assert oracle.barycenter == fan.anticanonical_polytope().barycenter()
        assert oracle.alpha == alpha_invariant(fan).alpha
        assert oracle.smooth == fan.is_smooth()


def test_pinned_oracle_values():
    catalog = workloads.fan_catalog()
    assert oracles.fan_oracle(catalog["P(1,2,3)"]).degree == 6
    assert oracles.fan_oracle(catalog["P(1,2,3)"]).beta((-1, 0)) == 0
    for n in range(1, 6):
        oracle = oracles.fan_oracle(catalog[f"P{n}"])
        assert oracle.degree == (n + 1) ** n
        assert oracle.barycenter == (0,) * n


def test_relabelling_keeps_the_fan():
    rng = random.Random(7)
    for spec in workloads.fan_catalog().values():
        shuffled = workloads.relabel(spec, rng)
        assert _fan_key(shuffled) == _fan_key(spec)
        assert oracles.fan_oracle(shuffled) == oracles.fan_oracle(spec)


def test_product_degree_is_binomial_times_factors():
    catalog = workloads.fan_catalog()
    for a, b in [("P1", "P2"), ("P2", "P2"), ("P1", "P(1,2,3)"), ("P1", "dP6")]:
        product = oracles.fan_oracle(workloads.product_spec(catalog[a], catalog[b]))
        da, db = catalog[a]["dim"], catalog[b]["dim"]
        factors = oracles.fan_oracle(catalog[a]).degree * oracles.fan_oracle(catalog[b]).degree
        assert product.degree == math.comb(da + db, da) * factors


@pytest.mark.parametrize("name,order,orbits", [
    ("P4", 120, 10), ("P5", 720, 15), ("P2xP2", 72, 9), ("P1xP3", 48, 13),
])
def test_automorphism_groups_and_cube_orbits(name, order, orbits):
    catalog = workloads.fan_catalog()
    catalog["P2xP2"] = workloads.product_spec(catalog["P2"], catalog["P2"])
    catalog["P1xP3"] = workloads.product_spec(catalog["P1"], catalog["P3"])
    group = workloads.automorphisms(catalog[name])
    assert len(group) == order
    n = catalog[name]["dim"]
    found = workloads.cube_orbits(n, group)
    assert len(found) == orbits
    points = [w for orbit in found for w in orbit]
    assert len(points) == len(set(points)) == 3 ** n - 1  # a partition of the cube minus 0
    for orbit in found:
        assert all(workloads.cube_orbit(w, group) == orbit for w in orbit)


def test_rounds_follow_the_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 3), workloads.build(name, 3)
        assert a.specs == b.specs and a.round(1) == b.round(1)
        assert a.round(0) != workloads.build(name, 4).round(0)
        assert len(a.round(0)) == len(a.classes)


def test_profile_rounds_include_the_equality_cases():
    workload = workloads.build("profile-highdim", 0)
    equality = {(workload.specs[j.spec]["name"], j.param) for j in workload.round(5) if j.equality}
    assert equality == {("P4", (1,) * 4), ("P5", (1,) * 5)}
    per_fan = Counter(workload.specs[j.spec]["name"] for j in workload.round(0))
    assert per_fan == {"P4": 11, "P5": 1, "P2xP2": 9, "P1xP3": 13}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90, 10)
    value, percentile, beyond = run.tail([float(i) for i in range(26)])
    assert (percentile, beyond) == (61, 10) and value == 15.0
    assert run.tail([1.0, 2.0, 3.0])[1] == 50


def test_tracer_wraps_directly_imported_names_and_restores_them():
    import toricstab.lattice as lattice
    import toricstab.polytopes as polytopes
    from toricstab.fans import Fan

    originals = (lattice.det_int, polytopes.det_int, Fan.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert polytopes.det_int is lattice.det_int is not originals[0]
        tracer.run_job(polytopes.det_int, [[1, 2], [3, 4]])
        Fan(1, [[1], [-1]], [[0], [1]])
    finally:
        tracer.uninstall()
    assert (lattice.det_int, polytopes.det_int, Fan.__init__) == originals
    table = tracer.layer_table()
    assert table["lattice.det_int"]["calls"] == 1 and table["fans.Fan"]["calls"] == 1
    assert table["job"]["inclusive_s"] >= table["lattice.det_int"]["inclusive_s"]
    assert list(tracer.span_parent[:2]) == [-1, 0]


def test_calibration_scales_each_interval_by_its_own_samples():
    slow, fast = 2 * REFERENCE_UNIT_S, REFERENCE_UNIT_S / 2
    k = 10**6  # samples per long interval, so the prior hardly matters
    intervals = [
        (1.0, (0, 0.0), (k, k * slow)),  # long, on a machine twice as slow
        (1.0, (k, k * slow), (2 * k, k * (slow + fast))),
        (0.1, (2 * k, 0.0), (2 * k, 0.0)),  # no samples: the pooled speed
    ]
    long_slow, long_fast, short = Speedometer.calibrate(intervals)
    assert long_slow == pytest.approx(0.5, rel=1e-3)
    assert long_fast == pytest.approx(2.0, rel=1e-3)
    assert short == pytest.approx(0.1 * REFERENCE_UNIT_S / ((slow + fast) / 2))


def test_speedometer_samples_while_running_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with Speedometer() as meter:
        start = meter.mark()
        end_time = time.perf_counter() + 0.3
        while time.perf_counter() < end_time:
            pass
    assert meter.units >= 3 and meter.handler_seconds > 0
    assert Speedometer.factor(start, meter.mark()) > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "screen-smooth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_probe_check_reports_every_phase(capsys):
    import probe_check

    assert probe_check.main(["--workload", "screen-smooth", "--cycles", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["spin", "text", "package", "ballast"]
