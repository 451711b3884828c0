"""Check that two source trees write byte-identical reports on the benchmark's scenarios.

Usage, from the root of a checkout:

    python3 tools/report_identity.py --tree parent=OLD/src --tree change=src

Each of the two ``--tree LABEL=DIR`` arguments names a directory that holds
the ``rnsl`` package; the first is the baseline.  Both trees make the same
36 runs: ``scenarios/reference.json`` with all 14 suites,
``scenarios/post_widder.json`` and ``scenarios/bad_certificate.json``, each
at its own seed, and every suite of ``perfbench/workloads.py``'s
``wide_semigroup_doc`` and ``transform_inversion_doc`` at seeds 0, 1 and 13,
each suite as its own ``rnsl run --suite NAME --seed SEED`` call, as the
benchmark makes them.  Each tree runs in a fresh worker process, since two
``rnsl`` packages cannot share one, and makes its runs in process through
``rnsl.cli.main``.

The result, written to stdout, is one JSON object: per run, both exit
codes, whether the two ``report.json`` files have equal bytes, and, where
they differ, the first line of the second tree's ``rnsl diff`` and how far
the values moved: the number of records whose ``measured`` or ``bound``
changed, the largest absolute and relative change among them, each record
whose ``passed`` or ``worst_atom`` changed, and each record that only one
report holds; records are matched by suite and name.  The exit code is 1
when any run differs in its bytes or its exit code, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 13)


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _argv(inv, seed: int | None) -> list[str]:
    """The ``rnsl run`` argv of one invocation, without ``--out``; no seed keeps the file's own."""
    argv = ["run", str(inv.scenario)] + (["--seed", str(seed)] if seed is not None else [])
    for suite in inv.suites:
        argv += ["--suite", suite]
    return argv


def plan(workdir: Path) -> list[dict]:
    """The 36 runs, each a name and its argv; the generated scenarios are written under ``workdir``."""
    workloads = _workloads()
    runs = [{"name": inv.scenario.stem, "argv": _argv(inv, None)} for inv in workloads.desk_reference(ROOT)]
    for name, doc in (
        ("wide_semigroup", workloads.wide_semigroup_doc),
        ("transform_inversion", workloads.transform_inversion_doc),
    ):
        for seed in SEEDS:
            folder = workdir / "scenarios" / name / str(seed)
            folder.mkdir(parents=True)
            runs += [
                {"name": f"{name}/{seed}/{inv.suites[0]}", "argv": _argv(inv, seed)}
                for inv in workloads.generated(doc(seed), folder)
            ]
    return runs


def serve(tree: str, plan_path: str, out_root: str) -> None:
    """Make every planned run with the ``rnsl`` of ``tree`` and print its exit codes as JSON."""
    sys.path.insert(0, os.path.abspath(tree))
    from rnsl import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(tree)):
        raise SystemExit(f"rnsl was imported from {cli.__file__}, not from {tree}")
    codes = {}
    for run in json.loads(Path(plan_path).read_text(encoding="utf-8")):
        out = os.path.join(out_root, run["name"])
        with contextlib.redirect_stdout(io.StringIO()):
            codes[run["name"]] = cli.main(run["argv"] + ["--out", out])
    print(json.dumps(codes))


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def _first_diff(tree: str, old: Path, new: Path) -> str | None:
    """The first line of ``rnsl diff OLD NEW`` from ``tree``; None when it finds the reports agree."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    proc = subprocess.run(
        [sys.executable, "-m", "rnsl", "diff", str(old), str(new)],
        capture_output=True, text=True, env=env, check=False,
    )
    lines = (proc.stdout + proc.stderr).splitlines()
    return lines[0] if proc.returncode != 0 and lines else None


def _change(a: float, b: float) -> tuple[float, float] | None:
    """Absolute and relative change from ``a`` to ``b``; None when they are equal."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return None
    gap = abs(b - a)
    if math.isnan(gap):  # infinities of one sign, or NaN against a number
        gap = math.inf
    return gap, (gap / abs(a) if a and math.isfinite(a) else math.inf)


def _records(report: dict) -> dict:
    """The records of a report by ``suite/name``, in report order."""
    return {f"{suite['suite']}/{r['name']}": r for suite in report["suites"] for r in suite["records"]}


def moves(old: dict, new: dict) -> dict:
    """How far the records of two reports moved, each record matched by its suite and name.

    A record that only one report holds is named in ``verdicts``.
    """
    changed, largest_abs, largest_rel, verdicts = 0, 0.0, 0.0, []
    before, after = _records(old), _records(new)
    verdicts += [f"{where}: only in the old report" for where in before if where not in after]
    for where, rn in after.items():
        ro = before.get(where)
        if ro is None:
            verdicts.append(f"{where}: only in the new report")
            continue
        gaps = [g for g in (_change(ro[key], rn[key]) for key in ("measured", "bound")) if g]
        if gaps:
            changed += 1
            largest_abs = max([largest_abs] + [g[0] for g in gaps])
            largest_rel = max([largest_rel] + [g[1] for g in gaps])
        verdicts += [
            f"{where}: {key} {ro.get(key)!r} -> {rn.get(key)!r}"
            for key in ("passed", "worst_atom")
            if ro.get(key) != rn.get(key)
        ]
    return {"records": changed, "max_abs": largest_abs, "max_rel": largest_rel, "verdicts": verdicts}


def identity(trees: dict[str, str]) -> dict:
    base, change = labels = list(trees)
    with tempfile.TemporaryDirectory(prefix="report-identity-") as tmp:
        work = Path(tmp)
        runs = plan(work)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(runs), encoding="utf-8")
        codes = {}
        for label in labels:
            proc = subprocess.run(
                [sys.executable, __file__, "--serve", trees[label], str(plan_path), str(work / label)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            if proc.returncode != 0:
                raise SystemExit(f"the {label} worker stopped with code {proc.returncode}")
            codes[label] = json.loads(proc.stdout)
        rows = []
        for run in runs:
            name = run["name"]
            old, new = (work / label / name / "report.json" for label in labels)
            identical = _read(old) == _read(new)
            exits = {label: codes[label][name] for label in labels}
            first = moved = None
            if not identical and old.is_file() and new.is_file():
                first = _first_diff(trees[change], old, new)
                moved = moves(*(json.loads(p.read_text(encoding="utf-8")) for p in (old, new)))
            rows.append({
                "run": name, "exit": exits, "identical": identical, "first_diff": first, "moved": moved,
            })
    differing = [r["run"] for r in rows if not r["identical"] or r["exit"][base] != r["exit"][change]]
    return {"trees": trees, "runs": rows, "differing": differing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR")
    parser.add_argument("--serve", nargs=3, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(*args.serve)
        return 0
    trees = dict(spec.split("=", 1) for spec in args.tree if "=" in spec)
    if len(args.tree) != 2 or len(trees) != 2:
        parser.error("give exactly two trees, the baseline first, as --tree LABEL=DIR")
    result = identity(trees)
    sys.stdout.write(json.dumps(result, indent=1) + "\n")
    return 1 if result["differing"] else 0


if __name__ == "__main__":
    sys.exit(main())
