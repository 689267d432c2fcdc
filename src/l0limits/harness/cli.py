"""Command line interface.

Subcommands:

* ``validate DOC``              validate every system in the document;
* ``limit --kind direct DOC``   compute limits of the systems of one kind;
* ``check --name KIND DOC``     run the document checks of one kind;
* ``report DOC``                run every check in the document.

Global flags: ``--tol`` (absolute tolerance, default 1e-9), ``--seed``
(default 0, recorded in the report) and ``--format text|structured``.  Exit code 0 on all-pass,
1 on any fail, 2 on error.
"""

from __future__ import annotations

import argparse
import sys

from ..config import DEFAULT_TOLERANCE, tolerance_override
from ..direct import DirectSystem, direct_limit
from ..errors import DocumentError, L0LimitsError
from ..inverse import InverseSystem, inverse_limit
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
    p_validate.add_argument("document")
    _add_common(p_validate, top_level=False)

    p_limit = sub.add_parser("limit", help="compute limits of systems")
    p_limit.add_argument("--kind", choices=("direct", "inverse"), required=True)
    p_limit.add_argument("--system", help="restrict to one system id")
    p_limit.add_argument("document")
    _add_common(p_limit, top_level=False)

    p_check = sub.add_parser("check", help="run document checks of one kind")
    p_check.add_argument("--name", required=True, choices=CHECK_KINDS)
    p_check.add_argument("document")
    _add_common(p_check, top_level=False)

    p_report = sub.add_parser("report", help="run every check in the document")
    p_report.add_argument("document")
    _add_common(p_report, top_level=False)
    return parser


def _emit(report, fmt: str) -> None:
    if fmt == "structured":
        sys.stdout.write(render_structured(report))
    else:
        sys.stdout.write(render_text(report))


def _cmd_validate(doc, args) -> int:
    checks = [
        CheckSpec(name=f"validate-{sid}", kind="validate-system", params={"system": sid})
        for sid in sorted(doc.systems)
    ]
    report = run_checks(doc, checks, seed=args.seed, document_name=args.document)
    _emit(report, args.format)
    return report.exit_code


def _cmd_limit(doc, args) -> int:
    wanted = DirectSystem if args.kind == "direct" else InverseSystem
    names = sorted(
        sid for sid, s in doc.systems.items() if isinstance(s, wanted)
    )
    if args.system is not None:
        if args.system not in names:
            sys.stderr.write(f"no {args.kind} system named {args.system!r}\n")
            return 2
        names = [args.system]
    kind = "direct-limit" if args.kind == "direct" else "inverse-limit"
    checks = [
        CheckSpec(name=f"limit-{sid}", kind=kind, params={"system": sid})
        for sid in names
    ]
    report = run_checks(doc, checks, seed=args.seed, document_name=args.document)
    _emit(report, args.format)
    return report.exit_code


def _cmd_check(doc, args) -> int:
    selected = [c for c in doc.checks if c.kind == args.name]
    report = run_checks(doc, selected, seed=args.seed, document_name=args.document)
    _emit(report, args.format)
    return report.exit_code


def _cmd_report(doc, args) -> int:
    report = run_checks(doc, seed=args.seed, document_name=args.document)
    _emit(report, args.format)
    return report.exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = load_document(args.document)
    except (DocumentError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    handler = {
        "validate": _cmd_validate,
        "limit": _cmd_limit,
        "check": _cmd_check,
        "report": _cmd_report,
    }[args.command]
    try:
        with tolerance_override(args.tol):
            return handler(doc, args)
    except L0LimitsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
