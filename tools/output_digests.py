"""Print a digest of every command-line output of one checkout on the corpus.

Usage, from any directory:

    python3 tools/output_digests.py CHECKOUT > digests.txt

For each built-in corpus fan the script writes the fan's spec into a
temporary directory and runs `python -m toricstab.cli` there, with
CHECKOUT/src on PYTHONPATH: `analyze` and `screen` at radius 4 in dimension
<= 2 and radius 1 above, `screen` also at radius 1 in dimension <= 2 and at
the screen-smooth benchmark radii (10 in dimension 2, 3 in dimension 3),
`alpha`, `beta --w 1,...,1` and `volfn --w -1,...,-1 --csv volfn.csv`;
then `analyze --radius 1` on the product fans of the benchmark workloads
and on the cube fans P1^4, P1^5 and P1^6 (P1xP1xP1 times P1, P1xP1 and
P1xP1xP1, with automorphism groups of order 384, 3,840 and 46,080), built
from the corpus specs with rays (v, 0), (0, v') and cones sigma x sigma',
with `screen --radius 3` on the 3-folds (P1xP2, P1xP(1,2,3), P1xdP6,
P1xdP8) and `beta --w 1,1,1,1` on the 4-folds (P2xP2, P1xP3, P1xP1xP1xP1);
then `verify` once.  Last come runs that end in each documented
failure exit code, so that the error paths are compared too: `analyze` on
three unreadable documents and a missing file (exit 2: `{not json`, an
array nested 100,000 deep, a P(1,2,3) spec whose last ray has a 5,000-digit
entry), on five fans that fail validation (exit 3: cone 0 singular, so the
walk starts from another cone; the same in dimension 3, where cone 0's
middle ray is minus its first, so the seed's elimination skips that column
and goes on to the third; a gap; a pentagram, whose cones overlap; a fan
that is not Q-Fano), `analyze --radius 0` on P2 (exit 3) and
`analyze --radius 4` on P2 with TKS_ORACLE_BUDGET=10 (exit 4).  Each run
prints one line: the command, the SHA-256 of its stdout and of its stderr
and its exit code, and for `volfn` the SHA-256 of the CSV.  Every path is
relative to the temporary directory, so two checkouts print the same lines
exactly when their outputs are byte-identical: diff the files of two
checkouts.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# failing fan documents, by file name: not JSON, nested past the decoder's
# recursion limit, a ray entry longer than int() converts, and five fans that
# fail validation: cone 0 singular (in dimensions 2 and 3, the second with a
# dependent ray in the middle of cone 0 followed by the eight octants), a gap,
# overlapping cones, not Q-Fano
OCTANTS = [[x, y, z] for x in (0, 1) for y in (3, 4) for z in (2, 5)]
FAILURE_DOCUMENTS = {
    "not-json.json": "{not json",
    "deep-array.json": "[" * 100000 + "]" * 100000,
    "long-integer.json": '{"name": "P(1,2,3)", "dim": 2, "rays": [[1, 0], [0, 1], [-2, -%s]], '
    '"cones": [[0, 1], [1, 2], [2, 0]]}' % ("3" * 5000),
    **{
        f"{name}.json": json.dumps({"name": name, "dim": len(rays[0]), "rays": rays, "cones": cones})
        for name, rays, cones in (
            ("singular-cone", [[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 2], [1, 2], [2, 3], [3, 0]]),
            (
                "singular-seed-3d",
                [[1, 0, 0], [-1, 0, 0], [0, 0, 1], [0, 1, 0], [0, -1, 0], [0, 0, -1]],
                [[0, 1, 2], *OCTANTS],
            ),
            ("gap", [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2]]),
            ("pentagram", [[1, 0], [1, 2], [-1, 1], [-1, -1], [1, -2]], [[0, 2], [2, 4], [4, 1], [1, 3], [3, 0]]),
            ("not-q-fano", [[1, 0], [0, 1], [-1, 2], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]),
        )
    },
}

LIST_SPECS = "import json; from toricstab.corpus import builtin_fan_specs; print(json.dumps(builtin_fan_specs()))"


# the product fans of the benchmark workloads, then the cube fans P1^4, P1^5 and P1^6, whose
# automorphism groups (orders 384, 3,840 and 46,080) put the orbit closure to the test,
# as (first, second) corpus names
PRODUCTS = (
    ("P1", "P2"), ("P1", "P(1,2,3)"), ("P1", "dP6"), ("P1", "dP8"), ("P2", "P2"), ("P1", "P3"),
    ("P1xP1xP1", "P1"), ("P1xP1xP1", "P1xP1"), ("P1xP1xP1", "P1xP1xP1"),
)


def product_spec(a: dict, b: dict) -> dict:
    """FanSpec of the product fan: rays (v, 0), (0, v'), cones sigma x sigma'."""
    rays = [list(r) + [0] * b["dim"] for r in a["rays"]] + [[0] * a["dim"] + list(r) for r in b["rays"]]
    cones = [list(c) + [len(a["rays"]) + i for i in c2] for c in a["cones"] for c2 in b["cones"]]
    return {"name": f"{a['name']}x{b['name']}", "dim": a["dim"] + b["dim"], "rays": rays, "cones": cones}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(env: dict, cwd: str, args: list[str]) -> str:
    """One CLI run, as 'command  stdout=... stderr=... exit=...'."""
    proc = subprocess.run([sys.executable, "-m", "toricstab.cli", *args], cwd=cwd, env=env, capture_output=True)
    return f"{' '.join(args)}  stdout={sha(proc.stdout)} stderr={sha(proc.stderr)} exit={proc.returncode}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0], "src").resolve()))
    specs = json.loads(subprocess.run(
        [sys.executable, "-c", LIST_SPECS], env=env, capture_output=True, check=True
    ).stdout)
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in specs.items():
            path, n = f"{name}.json", spec["dim"]
            Path(tmp, path).write_text(json.dumps(spec), encoding="utf-8")
            radius = "4" if n <= 2 else "1"
            bench_radius = {2: "10", 3: "3"}.get(n)
            for args in (
                ["analyze", path, "--radius", radius],
                ["screen", path, "--radius", radius],
                *([["screen", path, "--radius", "1"]] if n <= 2 else []),
                *([["screen", path, "--radius", bench_radius]] if bench_radius else []),
                ["alpha", path],
                ["beta", path, "--w", ",".join(["1"] * n)],
                ["volfn", path, "--w", ",".join(["-1"] * n), "--csv", "volfn.csv"],
            ):
                line = run(env, tmp, args)
                if args[0] == "volfn":
                    csv = Path(tmp, "volfn.csv")
                    line += f" csv={sha(csv.read_bytes()) if csv.exists() else '-'}"
                    csv.unlink(missing_ok=True)
                print(line, flush=True)
        for first, second in PRODUCTS:
            spec = product_spec(specs[first], specs[second])
            path = f"{spec['name']}.json"
            Path(tmp, path).write_text(json.dumps(spec), encoding="utf-8")
            for args in (
                ["analyze", path, "--radius", "1"],
                *([["screen", path, "--radius", "3"]] if spec["dim"] == 3 else []),
                *([["beta", path, "--w", "1,1,1,1"]] if spec["dim"] == 4 else []),
            ):
                print(run(env, tmp, args), flush=True)
        print(run(env, tmp, ["verify"]), flush=True)
        for path, text in FAILURE_DOCUMENTS.items():
            Path(tmp, path).write_text(text, encoding="utf-8")
            print(run(env, tmp, ["analyze", path]), flush=True)
        print(run(env, tmp, ["analyze", "missing.json"]), flush=True)
        print(run(env, tmp, ["analyze", "P2.json", "--radius", "0"]), flush=True)
        budget = dict(env, TKS_ORACLE_BUDGET="10")
        print("TKS_ORACLE_BUDGET=10 " + run(budget, tmp, ["analyze", "P2.json", "--radius", "4"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
