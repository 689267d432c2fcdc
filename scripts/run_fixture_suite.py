#!/usr/bin/env python3
"""Run every bundled fixture through the report pipeline and summarize.

Exit code follows the worst fixture outcome (0 pass, 1 fail, 2 error).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from l0limits.config import DEFAULT_TOLERANCE, tolerance_override
from l0limits.harness import load_document, render_structured, render_text, run_checks

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    args = parser.parse_args()
    worst = 0
    render = render_structured if args.format == "structured" else render_text
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(str(path))
        with tolerance_override(args.tol):
            report = run_checks(doc, seed=args.seed, document_name=path.name)
        sys.stdout.write(render(report))
        sys.stdout.write("\n")
        worst = max(worst, report.exit_code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
