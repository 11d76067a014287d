"""Record benchmark runs of one or more checkouts as BENCH_<workload>-<label>.json files.

Usage, from any directory:

    python3 tools/bench_record.py --workload profile-highdim --seeds 1-10 \
        parent=../toricstab-parent change=.

Each LABEL=CHECKOUT names a source tree that holds `bench/run.py`.  For
every seed the script runs `python3 bench/run.py --workload W --seed S`
once in each checkout, with the working directory set to that checkout, so
run length and tracing are the benchmark's own defaults (10 s, untraced).
With several checkouts the runs alternate, and the order is rotated by one
from each seed to the next (AB, BA, AB, ...) so that a slow drift of the
host's speed falls on both sides alike.

After every run it rewrites `BENCH_<workload>-<label>.json` in the current
directory, so records of several workloads with the same labels sit side by
side.  The file holds the workload, the command, the host and one entry per run:
the seed, the position of the run in the alternation, UTC start time, the
provenance that `bench/run.py` prints on the line before its result (git
SHA, SHA-256 of `src/`, Python, nproc), its speed factor and the result
line itself.  `summary` gives each metric's median and quartiles over the
runs, with `failed` and `attempted` summed.

With exactly two checkouts it also rewrites
`BENCH_<workload>-<second>_vs_<workload>-<first>.json`: for every end-to-end metric of `BENCHMARK.json`, the per-seed ratio
second/first, both medians, the first side's interquartile range and the
seeds the second side wins, in the direction that `better` names (ties
count for neither side).  `gain_rule` records whether the second side wins
at least 9 of every 10 seeds, over at least 10, and its median beats the
first's by more than that range.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(raw: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_checkout(raw: str) -> tuple[str, Path]:
    label, sep, path = raw.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=CHECKOUT, got {raw!r}")
    checkout = Path(path).resolve()
    if not (checkout / "bench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{path!r} holds no bench/run.py")
    return label, checkout


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"bench/run.py exited {proc.returncode}: {proc.stderr.strip()}")
    extra, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "started_utc": started,
        "provenance": extra.get("provenance"),
        "speed_factor": extra.get("speed_factor"),
        "result": result,
    }


def quartiles(xs: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, q3


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of every metric, plus summed job counts."""
    values: dict[str, list[float]] = {}
    units = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    metrics = {}
    for name, xs in values.items():
        q1, q3 = quartiles(xs)
        metrics[name] = {
            "median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs), "unit": units[name],
        }
    return {
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": metrics,
    }


def write(label: str, workload: str, runs: list[dict]) -> None:
    document = {
        "label": label,
        "workload": workload,
        "command": f"python3 bench/run.py --workload {workload} --seed S",
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor() or None,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        },
        "runs": runs,
        "summary": summarize(runs),
    }
    Path(f"BENCH_{workload}-{label}.json").write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def end_to_end_directions() -> dict[str, str]:
    """Each end-to-end metric of the repository's BENCHMARK.json -> its `better`."""
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    return {m["name"]: m["better"] for m in json.loads(path.read_text())["end_to_end"]}


def paired_summary(first: list[dict], second: list[dict], better: dict[str, str]) -> dict:
    """The second side's runs against the first's, seed by seed (module docstring)."""
    first_by_seed = {run["seed"]: run["result"]["metrics"] for run in first}
    metrics = {}
    for name, direction in better.items():
        pairs = [
            (run["seed"], first_by_seed[run["seed"]][name]["value"], m[name]["value"])
            for run in second
            if name in (m := run["result"]["metrics"]) and name in first_by_seed.get(run["seed"], {})
        ]
        if not pairs:
            continue
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (b - a) > 0 for _, a, b in pairs)
        first_median = statistics.median(a for _, a, _ in pairs)
        second_median = statistics.median(b for _, _, b in pairs)
        q1, q3 = quartiles([a for _, a, _ in pairs])
        metrics[name] = {
            "better": direction,
            "seeds": [
                {"seed": seed, "first": a, "second": b, "ratio": b / a if a else None}
                for seed, a, b in pairs
            ],
            "first_median": first_median,
            "second_median": second_median,
            "first_iqr": q3 - q1,
            "pairs": len(pairs),
            "second_wins": wins,
            "gain_rule": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
            and sign * (second_median - first_median) > q3 - q1,
        }
    return metrics


def write_paired(labels: list[str], workload: str, runs: dict[str, list[dict]]) -> None:
    first, second = labels
    document = {
        "first": first,
        "second": second,
        "workload": workload,
        "metrics": paired_summary(runs[first], runs[second], end_to_end_directions()),
    }
    path = Path(f"BENCH_{workload}-{second}_vs_{workload}-{first}.json")
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,2,5")
    parser.add_argument("checkouts", nargs="+", type=parse_checkout, metavar="LABEL=CHECKOUT")
    args = parser.parse_args(argv)
    labels = [label for label, _ in args.checkouts]
    if len(set(labels)) != len(labels):
        parser.error("labels must be distinct")
    runs: dict[str, list[dict]] = {label: [] for label in labels}
    for k, seed in enumerate(args.seeds):
        shift = k % len(args.checkouts)
        order = args.checkouts[shift:] + args.checkouts[:shift]
        for position, (label, checkout) in enumerate(order):
            run = run_once(checkout, args.workload, seed)
            run["position"] = position
            runs[label].append(run)
            write(label, args.workload, runs[label])
            if len(labels) == 2:
                write_paired(labels, args.workload, runs)
            metrics = run["result"]["metrics"]
            print(
                f"{label} seed {seed}: "
                + ", ".join(f"{name}={m['value']:.4g}" for name, m in metrics.items()),
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
