"""Record the benchmark's expected outputs into golden/.

Run from the repository root, on a commit whose answers are trusted:

    PYTHONPATH=src python3 perfbench/make_golden.py

Scan goldens hold the CLI's total and non-minimal list plus, in sorted gap
order, every semigroup's Pa and minimum partition size from ``solve``.
families.json holds the CLI's ``analyze --json`` answer for every family
semigroup.  The benchmark compares the program's outputs against these.
"""

from __future__ import annotations

import contextlib
import io
import json

from antiatom import NumericalSemigroup, cli, solve
from antiatom.enumerate import semigroups_by_frobenius, semigroups_by_genus

from workloads import FULL, GOLDEN, SMOKE, family_cases, gaps_digest

SCANS = sorted({("genus", s.genus) for s in (FULL, SMOKE)}
               | {("frobenius", b) for s in (FULL, SMOKE)
                  for b in (s.frobenius, s.families_probe)})


def cli_json(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return json.loads(buf.getvalue())


def write(name: str, doc: dict) -> None:
    with open(GOLDEN / name, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for mode, bound in SCANS:
        argv = ["scan", f"--{mode}", str(bound), "--only", str(bound), "--json"]
        scan = cli_json(argv)
        gen = semigroups_by_genus if mode == "genus" else semigroups_by_frobenius
        pool = sorted(s.gaps for s in gen(bound))
        solutions = [solve(NumericalSemigroup(gaps)) for gaps in pool]
        write(f"{mode}-{bound}.json", {
            "command": "antiatom " + " ".join(argv),
            "total": scan["total"],
            "non_minimal": scan["non_minimal"],
            "gaps_sha256": gaps_digest(pool),
            "pa": [sol.pa for sol in solutions],
            "min_size": [sol.min_size for sol in solutions],
        })
    cases = []
    for label, gaps in family_cases(FULL):
        doc = cli_json(["analyze", "--gaps", ",".join(map(str, gaps)), "--json"])
        cases.append({"label": label, "gaps": list(gaps), "pa": doc["pa"],
                      "min_size": doc["min_size"],
                      "witness_ideal": doc["witness_ideal"],
                      "lambda_minimal": doc["lambda_minimal"]})
    write("families.json", {"command": "antiatom analyze --gaps <gaps> --json",
                            "cases": cases})


if __name__ == "__main__":
    main()
