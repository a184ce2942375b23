#!/usr/bin/env python3
"""Produce the full acceptance artifacts under reports/.

Runs the lemma suites at acceptance scale (7-edge catalogue, 50 completeness
instances) and two deterministic sweeps, then prints where everything landed.
``REPORTS`` is the one table of the committed reports: each file name under
reports/ with the CLI arguments that write it (less ``--out``).
"""

import pathlib
import sys

from medcover.cli import main as cli

REPORTS = (
    ("lemmas.json", ["verify-lemmas", "--max-edges", "7", "--trials", "50"]),
    ("sweep_n8_d3.csv", ["sweep", "--n", "8", "--d", "3", "--trials", "20", "--seed", "0"]),
    ("sweep_n10_d2.csv", ["sweep", "--n", "10", "--d", "2", "--trials", "20", "--seed", "0"]),
)


def main() -> int:
    reports = pathlib.Path(__file__).resolve().parent.parent / "reports"
    reports.mkdir(exist_ok=True)

    for name, argv in REPORTS:
        rc = cli([*argv, "--out", str(reports / name)])
        if rc != 0:
            print(f"{argv[0]} FAILED; see reports/{name}", file=sys.stderr)
            return rc

    for p in sorted(reports.iterdir()):
        print(f"wrote {p} ({p.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
