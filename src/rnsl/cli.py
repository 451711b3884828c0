"""Command line front end.

``rnsl run scenario.json`` executes the scenario's suites and writes the
report directory; ``rnsl plot report.json --kind ... --out ...`` extracts
plot-ready CSV columns from an existing report.  Exit codes: 0 all suites
passed, 1 at least one suite failed, 2 configuration or schema problems.
``rnsl diff OLD NEW`` names the first record whose verdict, name or
direction differs and the first whose measured value or bound moved beyond
rtol 1e-9 / atol 1e-12; it exits 0 when the reports agree and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import RnslError
from .reporting import diff_reports
from .scenario import load_scenario
from .suites import PLOT_KINDS, emit_plot_data, run_scenario


def _seed(text: str) -> int:
    """A non-negative integer, as the scenario's own ``seed`` field must be."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{seed} is not a non-negative integer")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnsl",
        description="Scenario-driven checks for transform and semigroup claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario's suites and write reports")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default=None, help="output directory for reports")
    run_p.add_argument(
        "--suite",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this suite (repeatable)",
    )
    run_p.add_argument(
        "--seed", type=_seed, default=None, help="override the scenario seed"
    )

    plot_p = sub.add_parser("plot", help="extract plot data from a report")
    plot_p.add_argument("report", help="path to a report.json")
    plot_p.add_argument("--kind", required=True, choices=PLOT_KINDS)
    plot_p.add_argument("--out", required=True, help="output CSV path")

    diff_p = sub.add_parser("diff", help="compare two report.json files")
    diff_p.add_argument("old", help="path to the reference report.json")
    diff_p.add_argument("new", help="path to the report.json to check")
    return parser


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    payload, passed, target = run_scenario(
        scn, out_dir=args.out, suites=args.suite, seed=args.seed
    )
    for suite in payload["suites"]:
        verdict = "PASS" if suite["passed"] else "FAIL"
        print(f"{suite['suite']}: {verdict} ({len(suite['records'])} checks)")
    print(f"report: {os.path.join(target, 'report.json')}")
    print(f"result: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_plot(args) -> int:
    emit_plot_data(_load_report(args.report), args.kind, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_diff(args) -> int:
    try:
        lines = diff_reports(_load_report(args.old), _load_report(args.new))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a report.json: malformed field {exc}") from None
    for line in lines:
        print(line)
    if not lines:
        print("reports agree")
    return 1 if lines else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "plot": _cmd_plot, "diff": _cmd_diff}
    try:
        return commands[args.command](args)
    except (RnslError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
