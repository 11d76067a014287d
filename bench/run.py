"""toricstab benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage (from the repository root):

    python3 bench/run.py --workload analyze-lowdim --seed 1 --seconds 10 --trace 0

Load model: one closed-loop client in one process and one thread; a job
starts only after the previous one returns.  Every job builds a fresh Fan
from its spec, so the package's lru caches (keyed through Fan identity) start
cold for each job and keep growing through the run, as in a long-lived
process; they are never cleared.

A run measures whole rounds (workloads.py) until at least --seconds have
passed and at least MIN_ROUNDS rounds are done.  Every job's results are
checked against exact oracles after its timer stops.  Every reported time is
scaled to reference machine speed (speed.py); the raw figures and the scale
factor are in the line before the result.  With --trace 0 the last line of
stdout carries the end-to-end metrics; with --trace 1 the run replays the
workload's first rounds untraced and then traced, and reports per-layer
metrics and the tracing overhead.  The line before the result also holds
provenance, check counts and the per-(dimension, radius) battery costs.
Exit code 0 on a completed run (failed jobs are reported, not fatal), 2 when
the package sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_ROUNDS = 2
SETUP_REPS = 7
TAIL_SAMPLES_BEYOND = 10


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- set-up -----------------------------------------------------------------------


def import_fresh():
    """Import toricstab from scratch, dropping any modules of an earlier import."""
    from jobs import Program

    for name in [m for m in sys.modules if m == "toricstab" or m.startswith("toricstab.")]:
        del sys.modules[name]
    return Program()


def setup(specs, speedometer) -> tuple[list[tuple], object]:
    """SETUP_REPS times: import toricstab and validate every distinct fan spec.

    Returns one (seconds, start mark, end mark) interval per repetition.
    """
    intervals = []
    program = None
    for _ in range(SETUP_REPS):
        start, t0 = speedometer.mark(), speedometer.clock()
        program = import_fresh()
        for spec in specs:
            program.workbench.parse_fan_spec(spec)
        intervals.append((speedometer.clock() - t0, start, speedometer.mark()))
    return intervals, program


# -- measured loop ------------------------------------------------------------------


@dataclass
class Bench:
    """Everything a loop needs: inputs, oracles, the imported package, the speed probe."""

    workload: object
    program: object
    oracles: list
    batteries: dict   # (spec index, radius) -> battery size
    speedometer: object


class Loop:
    """Runs jobs in a closed loop, timing each and checking its results."""

    def __init__(self, bench: Bench, call=None):
        from jobs import Checks

        self.bench = bench
        self.call = call or (lambda fn, *args: fn(*args))
        self.checks = Checks()
        self.intervals: list[tuple] = []  # (seconds, start mark, end mark) per job
        self.per_job: list[tuple] = []  # (kind, dim, radius, job index, valuations)
        self.attempted = 0
        self.failed = 0
        self.valuations = 0
        self.errors: list[str] = []

    def run_round(self, jobs) -> None:
        import jobs as runners

        bench = self.bench
        for job in jobs:
            spec = bench.workload.specs[job.spec]
            ctx = f"{spec['name']} {job.kind} {job.param}"
            fn = {"analyze": runners.run_analyze, "profile": runners.run_profile,
                  "screen": runners.run_screen}[job.kind]
            self.attempted += 1
            start, t0 = bench.speedometer.mark(), bench.speedometer.clock()
            try:
                result = self.call(fn, bench.program, spec, job.param)
            except Exception as exc:  # a failing job is counted, the run goes on
                result = exc
            self.intervals.append((bench.speedometer.clock() - t0, start, bench.speedometer.mark()))
            if isinstance(result, Exception):
                self.failed += 1
                self.errors.append(f"{ctx}: {type(result).__name__}: {result}")
                continue
            try:
                ok, radius, count = self._check(job, spec, result)
            except Exception as exc:  # malformed results fail the job, not the run
                ok = False
                self.errors.append(f"{ctx}: check raised {type(exc).__name__}: {exc}")
            if not ok:
                self.failed += 1
                continue
            self.valuations += count
            self.per_job.append((job.kind, spec["dim"], radius, len(self.intervals) - 1, count))

    def _check(self, job, spec, result) -> tuple[bool, int | None, int]:
        """Check one job's results; returns (ok, battery radius, valuations processed)."""
        bench = self.bench
        oracle = bench.oracles[job.spec]
        projective = bench.workload.projective[job.spec]
        ctx = f"{spec['name']} {job.kind} {job.param}"
        if job.kind == "analyze":
            ok = self.checks.analyze(ctx, result, oracle, projective, spec["name"],
                                     bench.batteries[job.spec, job.param])
            return ok, job.param, len(result.profiles)
        if job.kind == "profile":
            return self.checks.profile(ctx, result, oracle, job.param, job.equality), None, 1
        ok = self.checks.screen(ctx, result, oracle, projective, spec["name"])
        return ok, job.param, bench.batteries[job.spec, job.param]

    def absorb(self, other: "Loop") -> None:
        """Add another loop's job counts, check counts and errors to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.valuations += other.valuations
        self.checks.counts.update(other.checks.counts)
        self.checks.failures += other.checks.failures
        self.errors += other.errors


def tail(durations: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples above its nearest-rank value.

    Returns (value, percentile, samples beyond).  Below 11 samples no
    percentile qualifies and the median is returned with its count.
    """
    ordered = sorted(durations)
    n = len(ordered)
    best = 50
    for p in range(50, 100):
        rank = -(-p * n // 100)  # ceil(p n / 100)
        if n - rank >= TAIL_SAMPLES_BEYOND:
            best = p
    rank = max(1, -(-best * n // 100))
    return ordered[rank - 1], best, n - rank


def battery_costs(per_job, job_seconds: list[float]) -> list[dict]:
    """Battery size and cost per valuation for each (dimension, radius) pair."""
    groups = defaultdict(list)
    for kind, dim, radius, index, count in per_job:
        if radius is not None:
            groups[kind, dim, radius].append((job_seconds[index], count))
    out = []
    for (kind, dim, radius), rows in sorted(groups.items()):
        seconds = sum(s for s, _ in rows)
        valuations = sum(c for _, c in rows)
        out.append({
            "job": kind, "dim": dim, "radius": radius, "jobs": len(rows),
            "battery_size": valuations // len(rows),
            "cost_per_valuation_s": seconds / valuations,
        })
    return out


# -- provenance ----------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the relative paths and bytes of every file under src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, loop: Loop, rounds: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "jobs_attempted": loop.attempted,
        "jobs_failed": loop.failed,
        "valuations": loop.valuations,
    }


# -- runs ---------------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, bench: Bench, setup_intervals):
    """End-to-end run: whole rounds until --seconds and MIN_ROUNDS are both reached."""
    speedometer = bench.speedometer
    loop = Loop(bench)
    gc.collect()
    loop_start = speedometer.mark()
    start = time.perf_counter()
    deadline = start + args.seconds
    rounds = 0
    peak_rss_kb = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        loop.run_round(bench.workload.round(rounds))
        rounds += 1
        if rounds == 1:
            # peak RSS through set-up and one round: independent of run length
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibrated = speedometer.calibrate(setup_intervals + loop.intervals)
    setup_s, job_s = calibrated[:len(setup_intervals)], calibrated[len(setup_intervals):]
    raw_s = [seconds for seconds, _, _ in loop.intervals]
    tail_value, tail_p, beyond = tail(job_s)
    completed = loop.attempted - loop.failed
    metrics = {
        "jobs_per_s": metric(completed / sum(job_s), "1/s"),
        "valuations_per_s": metric(loop.valuations / sum(job_s), "1/s"),
        "job_p50_s": metric(statistics.median(job_s), "s"),
        "job_tail_s": metric(tail_value, "s"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MiB"),
    }
    extra = {
        "provenance": provenance(args, loop, rounds),
        "wall_s": time.perf_counter() - start,
        "speed_factor": speedometer.factor(loop_start, speedometer.mark()),
        "raw": {
            "jobs_per_s": completed / sum(raw_s),
            "job_p50_s": statistics.median(raw_s),
            "job_tail_s": tail(raw_s)[0],
            "setup_s": statistics.median(seconds for seconds, _, _ in setup_intervals),
        },
        "job_tail": {"percentile": tail_p, "samples": len(job_s), "samples_beyond": beyond},
        "failed_ratio": loop.failed / loop.attempted,
        "battery": battery_costs(loop.per_job, job_s),
    }
    return loop, metrics, extra


def measure_traced(args, bench: Bench):
    """Replay the first rounds untraced, then traced; report per-layer metrics."""
    from tracing import Tracer

    speedometer = bench.speedometer
    rounds = [bench.workload.round(k) for k in range(bench.workload.trace_rounds)]
    plain = Loop(bench)
    gc.collect()
    plain_start = speedometer.mark()
    for jobs in rounds:
        plain.run_round(jobs)
    plain_factor = speedometer.factor(plain_start, speedometer.mark())
    # the tracer's clock skips the speed sampler's handler, as the job clock does
    tracer = Tracer(clock=speedometer.clock)
    traced = Loop(bench, call=tracer.run_job)
    gc.collect()
    traced_start = speedometer.mark()
    tracer.install()
    try:
        for jobs in rounds:
            traced.run_round(jobs)
    finally:
        tracer.uninstall()
    factor = speedometer.factor(traced_start, speedometer.mark())
    # each pass is scaled by its own speed, taken over all of its samples
    plain_s = [seconds * plain_factor for seconds, _, _ in plain.intervals]
    traced_s = [seconds * factor for seconds, _, _ in traced.intervals]
    overhead = sum(traced_s) - sum(plain_s)
    layers = tracer.layer_table()
    job_s = layers["job"]["inclusive_s"]

    def calls(name):
        return metric(layers[name]["calls"], "count")

    def self_s(name):
        return metric(layers[name]["self_s"] * factor, "s")

    def share(name):
        return metric(layers[name]["inclusive_s"] / job_s, "ratio")

    def count(name):
        return metric(tracer.counters[name], "count")

    vol_hits, vol_size = tracer.cache_stats("valuations.volume_function")
    nef_hits, nef_size = tracer.cache_stats("valuations.nef_threshold")
    screened = tracer.counters["screen.valuations"]
    metrics = {
        "valuations.volume_function.calls": calls("valuations.volume_function"),
        "valuations.volume_function.self_s": self_s("valuations.volume_function"),
        "valuations.volume_function.share": share("valuations.volume_function"),
        "valuations.volume_function.cache_hit_ratio": metric(vol_hits, "ratio"),
        "valuations.volume_function.cache_size": metric(vol_size, "count"),
        "polytopes.sliced.calls": calls("polytopes.sliced"),
        "polytopes.triangulate.self_s": self_s("polytopes.triangulate"),
        "polytopes.simplices": count("polytopes.simplices"),
        "piecewise.lagrange_interpolate.calls": calls("piecewise.lagrange_interpolate"),
        "piecewise.lagrange_interpolate.self_s": self_s("piecewise.lagrange_interpolate"),
        "polytopes.RationalPolytope.calls": calls("polytopes.RationalPolytope"),
        "polytopes.RationalPolytope.self_s": self_s("polytopes.RationalPolytope"),
        "polytopes.vertex_subsets": count("polytopes.vertex_subsets"),
        "polytopes.volume.calls": calls("polytopes.volume"),
        "polytopes.volume.self_s": self_s("polytopes.volume"),
        "lattice.det_int.calls": calls("lattice.det_int"),
        "lattice.det_int.self_s": self_s("lattice.det_int"),
        "lattice.matrix_rank.calls": calls("lattice.matrix_rank"),
        "lattice.matrix_rank.self_s": self_s("lattice.matrix_rank"),
        "valuations.nef_threshold.calls": calls("valuations.nef_threshold"),
        "valuations.nef_threshold.cache_hit_ratio": metric(nef_hits, "ratio"),
        "valuations.nef_threshold.cache_size": metric(nef_size, "count"),
        "fans.star_subdivision.calls": calls("fans.star_subdivision"),
        "lattice.solve_linear.calls": calls("lattice.solve_linear"),
        "fans.Fan.calls": calls("fans.Fan"),
        "fans.Fan.self_s": self_s("fans.Fan"),
        "fans.Fan.share": share("fans.Fan"),
        "workbench.parse_fan_spec.self_s": self_s("workbench.parse_fan_spec"),
        "lattice.matrix_inverse.calls": calls("lattice.matrix_inverse"),
        "lattice.matrix_inverse.self_s": self_s("lattice.matrix_inverse"),
        "lattice.det.calls": calls("lattice.det"),
        "valuations.log_discrepancy.calls": calls("valuations.log_discrepancy"),
        "valuations.pseff_threshold.calls": calls("valuations.pseff_threshold"),
        "workbench.valuation_battery.size": count("workbench.valuation_battery.size"),
        "workbench.screen.beta_ratio": metric(
            tracer.counters["screen.betas"] / screened if screened else 0.0, "ratio"),
        "alpha.alpha_invariant.calls": calls("alpha.alpha_invariant"),
        "piecewise.midpoint_root_concave.calls": calls("piecewise.midpoint_root_concave"),
        "piecewise.nth_root_bounds.calls": calls("piecewise.nth_root_bounds"),
        "workbench.analyze.calls": calls("workbench.analyze"),
        "workbench.report_json.calls": calls("workbench.report_json"),
        "trace.overhead_s": metric(overhead, "s"),
        "trace.overhead_ratio": metric(overhead / sum(plain_s), "ratio"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    spans = tracer.write(path, {"workload": args.workload, "seed": args.seed})
    total = Loop(bench)
    total.absorb(plain)
    total.absorb(traced)
    extra = {
        "provenance": provenance(args, total, len(rounds)),
        "speed_factor": factor,
        "untraced_job_s": sum(plain_s),
        "traced_job_s": sum(traced_s),
        "spans": spans,
        "span_file": str(path.relative_to(ROOT)),
        "layers": layers,
        "counters": dict(tracer.counters),
        "battery": battery_costs(plain.per_job, plain_s),
    }
    return total, metrics, extra


def main(argv=None) -> int:
    if not (SRC / "toricstab" / "__init__.py").is_file():
        print(f"toricstab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    from oracles import battery_size, fan_oracle
    from speed import Speedometer

    args = parse_args(argv)
    workload = workloads.build(args.workload, args.seed)
    fan_oracles = [fan_oracle(spec) for spec in workload.specs]
    batteries = {
        (job.spec, job.param): battery_size(fan_oracles[job.spec].dim, job.param)
        for job in workload.round(0) if job.kind != "profile"
    }
    with Speedometer() as speedometer:
        setup_intervals, program = setup(workload.specs, speedometer)
        bench = Bench(workload, program, fan_oracles, batteries, speedometer)
        if args.trace:
            loop, metrics, extra = measure_traced(args, bench)
        else:
            loop, metrics, extra = measure(args, bench, setup_intervals)
    extra["checks"] = dict(loop.checks.counts)
    extra["check_failures"] = loop.checks.failures[:20]
    extra["errors"] = loop.errors[:20]
    for line in extra["errors"] + extra["check_failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(extra))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
