"""tools/bench_record.py: seed lists, alternation, the recorded files and the paired summary."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

# a stand-in for bench/run.py: the provenance line, then a result whose
# jobs_per_s is the seed times a per-checkout factor read from factor.txt
STUB = """\
import json, pathlib, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
factor = float(pathlib.Path("factor.txt").read_text())
print(json.dumps({"provenance": {"seed": seed}, "speed_factor": 1.0}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"jobs_per_s": {"value": seed * factor, "unit": "1/s"}}}))
"""


def stub_checkout(root: Path, factor: float) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB)
    (root / "factor.txt").write_text(str(factor))
    return root


def test_parse_seeds():
    assert bench_record.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_record.parse_seeds("5") == [5]


def test_parse_checkout_rejects_bad_arguments(tmp_path):
    with pytest.raises(Exception, match="LABEL=CHECKOUT"):
        bench_record.parse_checkout("no-label")
    with pytest.raises(Exception, match="bench/run.py"):
        bench_record.parse_checkout(f"x={tmp_path}")


def test_record_alternates_and_summarizes(tmp_path, monkeypatch, capsys):
    a = stub_checkout(tmp_path / "a", 1.0)
    b = stub_checkout(tmp_path / "b", 10.0)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    argv = ["--workload", "w", "--seeds", "1-4", f"pa={a}", f"ch={b}"]
    assert bench_record.main(argv) == 0
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == ["pa", "ch", "ch", "pa", "pa", "ch", "ch", "pa"]
    doc = json.loads((out / "BENCH_w-ch.json").read_text())
    assert doc["label"] == "ch" and doc["workload"] == "w"
    assert doc["command"] == "python3 bench/run.py --workload w --seed S"
    assert [r["seed"] for r in doc["runs"]] == [1, 2, 3, 4]
    assert [r["position"] for r in doc["runs"]] == [1, 0, 1, 0]
    assert doc["runs"][0]["provenance"] == {"seed": 1}
    summary = doc["summary"]
    assert summary["attempted"] == 12 and summary["failed"] == 0
    assert summary["metrics"]["jobs_per_s"]["median"] == 25.0
    assert summary["metrics"]["jobs_per_s"]["n"] == 4
    parent = json.loads((out / "BENCH_w-pa.json").read_text())
    assert parent["summary"]["metrics"]["jobs_per_s"]["median"] == 2.5
    paired = json.loads((out / "BENCH_w-ch_vs_w-pa.json").read_text())
    assert paired["first"] == "pa" and paired["second"] == "ch" and paired["workload"] == "w"
    jobs = paired["metrics"]["jobs_per_s"]
    assert jobs["pairs"] == 4 and jobs["second_wins"] == 4
    assert [r["ratio"] for r in jobs["seeds"]] == [10.0] * 4
    assert jobs["gain_rule"] is False  # fewer than 10 pairs


def test_workloads_recorded_with_the_same_labels_keep_their_own_files(tmp_path, monkeypatch):
    """Two workloads under the same labels in one directory: four per-label
    files and two paired files, each holding its own workload's runs."""
    a = stub_checkout(tmp_path / "a", 1.0)
    b = stub_checkout(tmp_path / "b", 10.0)
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    for workload, seeds in (("w1", "1-2"), ("w2", "3-5")):
        assert bench_record.main(["--workload", workload, "--seeds", seeds, f"pa={a}", f"ch={b}"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "BENCH_w1-ch.json", "BENCH_w1-ch_vs_w1-pa.json", "BENCH_w1-pa.json",
        "BENCH_w2-ch.json", "BENCH_w2-ch_vs_w2-pa.json", "BENCH_w2-pa.json",
    ]
    for workload, seeds in (("w1", [1, 2]), ("w2", [3, 4, 5])):
        for label in ("pa", "ch"):
            doc = json.loads((out / f"BENCH_{workload}-{label}.json").read_text())
            assert (doc["label"], doc["workload"]) == (label, workload)
            assert [r["seed"] for r in doc["runs"]] == seeds
        paired = json.loads((out / f"BENCH_{workload}-ch_vs_{workload}-pa.json").read_text())
        assert paired["workload"] == workload and paired["metrics"]["jobs_per_s"]["pairs"] == len(seeds)


def synthetic(values: dict[int, dict[str, float]]) -> list[dict]:
    """Runs as `run_once` records them, one per seed, with only metric values."""
    return [
        {"seed": seed, "result": {"metrics": {k: {"value": v, "unit": "u"} for k, v in ms.items()}}}
        for seed, ms in values.items()
    ]


def test_end_to_end_directions_read_the_benchmark():
    better = bench_record.end_to_end_directions()
    assert better["jobs_per_s"] == "higher" and better["job_p50_s"] == "lower"
    assert set(better) == {
        "jobs_per_s", "valuations_per_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb"
    }


def test_paired_summary_counts_wins_in_the_better_direction():
    seeds = range(1, 11)
    parent = synthetic({s: {"jobs_per_s": 100 + s, "job_p50_s": 0.010, "x.calls": 5} for s in seeds})
    change = synthetic({
        s: {
            "jobs_per_s": 100 + s if s == 3 else 120 + s,  # seed 3 ties
            "job_p50_s": 0.012 if s <= 2 else 0.008,  # lower is better: seeds 1, 2 lose
            "x.calls": 1,
        }
        for s in seeds
    })
    summary = bench_record.paired_summary(parent, change, bench_record.end_to_end_directions())
    assert set(summary) == {"jobs_per_s", "job_p50_s"}  # per-layer and absent metrics skipped
    jobs = summary["jobs_per_s"]
    assert jobs["better"] == "higher" and jobs["pairs"] == 10 and jobs["second_wins"] == 9
    assert jobs["seeds"][0] == {"seed": 1, "first": 101, "second": 121, "ratio": 121 / 101}
    assert jobs["seeds"][2]["ratio"] == 1.0
    assert jobs["first_median"] == 105.5 and jobs["second_median"] == 125.5
    q1, _, q3 = statistics.quantiles(range(101, 111), n=4)
    assert jobs["first_iqr"] == q3 - q1
    assert jobs["gain_rule"] is True
    p50 = summary["job_p50_s"]
    assert p50["second_wins"] == 8 and p50["gain_rule"] is False
    assert p50["second_median"] == 0.008 and p50["first_iqr"] == 0.0


def test_gain_rule_needs_the_median_beyond_the_parent_spread_and_ten_pairs():
    better = {"jobs_per_s": "higher"}
    parent = synthetic({s: {"jobs_per_s": 10.0 * s} for s in range(1, 11)})
    slightly = synthetic({s: {"jobs_per_s": 10.0 * s + 1} for s in range(1, 11)})
    summary = bench_record.paired_summary(parent, slightly, better)["jobs_per_s"]
    assert summary["second_wins"] == 10 and summary["gain_rule"] is False
    # nine seeds matched, each a large win: too few pairs
    nine = synthetic({s: {"jobs_per_s": 1000.0} for s in range(2, 11)})
    summary = bench_record.paired_summary(parent, nine, better)["jobs_per_s"]
    assert summary["pairs"] == 9 and summary["second_wins"] == 9 and summary["gain_rule"] is False
    assert [r["seed"] for r in summary["seeds"]] == list(range(2, 11))
