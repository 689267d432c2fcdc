"""Command line interface.

Each subcommand is a selection of checks, run as one report:

* ``validate DOC``              a validate-system check per system;
* ``limit --kind direct DOC``   a limit check per system of one kind
  (``--system`` picks one);
* ``check --name KIND DOC``     the document's checks of one kind;
* ``report DOC``                every check in the document.

Each check's parameters are bound by its kind's contract: a missing,
unknown (or misspelt) or mistyped parameter, an id that names nothing, or
a system of the wrong direction for one of the eight directed kinds is an
error verdict at ``$.checks[k].<param>``.

Global flags: ``--tol`` (absolute tolerance, finite and positive, default
1e-9), ``--seed`` (default 0, recorded in the report) and ``--format
text|structured``.  Exit code 0 on all-pass, 1 on any fail, 2 on error,
a malformed document or a bad ``--tol`` included.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..config import DEFAULT_TOLERANCE, tolerance_override
from ..errors import L0LimitsError
from .checks import CHECK_KINDS, render_structured, render_text, run_checks
from .document import CheckSpec, load_document


def _add_common(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # subcommand copies default to SUPPRESS so they only override when
    # given explicitly.
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--tol", type=float,
        default=DEFAULT_TOLERANCE if top_level else suppress,
        help="absolute comparison tolerance",
    )
    parser.add_argument(
        "--seed", type=int, default=0 if top_level else suppress,
        help="seed recorded in the report; no check is randomized",
    )
    parser.add_argument(
        "--format", choices=("text", "structured"),
        default="text" if top_level else suppress, help="report format",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l0limits",
        description="validate, compute and check limits of normed modules "
        "over finite atomic measure spaces",
    )
    _add_common(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate all systems")
    p_limit = sub.add_parser("limit", help="compute limits of systems")
    p_limit.add_argument("--kind", choices=("direct", "inverse"), required=True)
    p_limit.add_argument("--system", help="restrict to one system id")
    p_check = sub.add_parser("check", help="run document checks of one kind")
    p_check.add_argument("--name", required=True, choices=CHECK_KINDS)
    p_report = sub.add_parser("report", help="run every check in the document")
    for p in (p_validate, p_limit, p_check, p_report):
        p.add_argument("document")
        _add_common(p, top_level=False)
    return parser


def _selection(doc, args) -> List[CheckSpec]:
    """The checks a subcommand runs: every system's validation, the limits
    of the systems of one kind (or of one such system), the document's
    checks of one kind, or all of them."""
    if args.command == "validate":
        return [CheckSpec(f"validate-{sid}", "validate-system", {"system": sid})
                for sid in sorted(doc.systems)]
    if args.command == "limit":
        names = sorted(sid for sid, s in doc.systems.items() if s.limit_kind == args.kind)
        if args.system is not None:
            if args.system not in names:
                raise L0LimitsError(f"no {args.kind} system named {args.system!r}")
            names = [args.system]
        return [CheckSpec(f"limit-{sid}", f"{args.kind}-limit", {"system": sid})
                for sid in names]
    if args.command == "check":
        return [c for c in doc.checks if c.kind == args.name]
    return doc.checks


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = load_document(args.document)
        with tolerance_override(args.tol):
            report = run_checks(doc, _selection(doc, args), args.seed, args.document)
    except (L0LimitsError, OSError, ValueError) as exc:  # ValueError: a bad --tol
        sys.stderr.write(f"error: {exc}\n")
        return 2
    render = render_structured if args.format == "structured" else render_text
    sys.stdout.write(render(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
