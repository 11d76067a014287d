"""tools/bench_record.py: seed lists, alternation and the recorded file."""

import importlib.util
import json
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
    doc = json.loads((out / "BENCH_ch.json").read_text())
    assert doc["label"] == "ch" and doc["workload"] == "w"
    assert doc["command"] == "python3 bench/run.py --workload w --seed S"
    assert [r["seed"] for r in doc["runs"]] == [1, 2, 3, 4]
    assert [r["position"] for r in doc["runs"]] == [1, 0, 1, 0]
    assert doc["runs"][0]["provenance"] == {"seed": 1}
    summary = doc["summary"]
    assert summary["attempted"] == 12 and summary["failed"] == 0
    assert summary["metrics"]["jobs_per_s"]["median"] == 25.0
    assert summary["metrics"]["jobs_per_s"]["n"] == 4
    parent = json.loads((out / "BENCH_pa.json").read_text())
    assert parent["summary"]["metrics"]["jobs_per_s"]["median"] == 2.5
