"""End-to-end and per-layer benchmark for rnsl.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the CLI entry point
``rnsl.cli.main(["run", ...])`` is called in-process, one scenario after
another, each call starting after the previous report has been written.
One pass runs the workload's whole list once.  After one warm-up pass the
benchmark repeats passes for ``--seconds`` and reports medians.

``--trace 0`` reports the end-to-end metrics (untraced): ``run_rel`` (the
wall time of a typical pass, the sum of each invocation's median time,
divided by the median time of a fixed reference loop run before every
invocation), ``setup_s`` (median of fresh interpreters running ``import rnsl``
plus ``load_scenario``), ``peak_rss_mb`` and ``ops_ok_ratio``.
``--trace 1`` spends half the time on untraced passes and half on passes
traced from outside (see ``tracer.py``) and reports the per-layer metrics.

Every suite run is checked: its verdict must match the expected one, the
scenario's exit code must match, and report.json must be byte-identical to
the warm-up pass at the same seed.  A mismatch or an exception counts as a
failed operation and stays in the timing.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the environment, goes to
``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import rnsl; "
    "[rnsl.load_scenario(p) for p in sys.argv[2:]]"
)

END_TO_END = {"run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_ratio": "ratio"}

# Fixed inputs of reference_loop(), so its work never changes.
REF_BLOCKS = np.random.default_rng(7).standard_normal((64, 4, 4)) * 0.5
REF_NODES = 20_000
REF_REPEATS = 8

_COUNTS_AND_SELF = (
    "rn.matrix_exp.calls", "rn.matrix_exp.blocks", "rn.matrix_exp.self_s",
    "rn.op_norm.calls", "rn.op_norm.blocks", "rn.op_norm.self_s",
    "rn.op_apply.calls", "rn.l0_norm.calls", "rn.RnVector.of.calls",
    "calculus.damped_weighted_integral.calls",
    "calculus.damped_weighted_integral.panels",
    "calculus.damped_weighted_integral.self_s",
    "calculus.riemann_integral.calls", "calculus.riemann_integral.panels",
    "calculus.riemann_integral.self_s", "calculus.curve_evals",
    "laplace.post_widder.calls", "laplace.post_widder.self_s",
    "laplace.laplace_derivative_scaled.calls",
    "semigroup.make_matrix_semigroup.calls", "semigroup.make_matrix_semigroup.self_s",
    "semigroup.hille_yosida_report.self_s", "semigroup.evaluate.calls",
    "acp.rk4_oracle.calls", "acp.rk4_oracle.self_s",
    "acp.solve_acp.calls", "acp.solve_acp.self_s",
    "instances.random_commuting_pair.calls", "instances.random_commuting_pair.self_s",
    "l0.L0Scalar.of.calls",
    "scenario.load_scenario.s", "reporting.write.s", "reporting.bytes",
)


def _unit(name: str) -> str:
    if name == "reporting.bytes":
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith((".s", "self_s", "run_s")):
        return "s"
    return "count"


PER_LAYER = {
    **{f"suites.{s}.s": "s" for s in workloads.DESK_SUITES},
    **{name: _unit(name) for name in _COUNTS_AND_SELF},
    "run_s": "s",
    "ref_s": "s",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
    "ops_failed_ratio": "ratio",
}


@dataclass
class Pass:
    """One pass over a workload's invocations."""

    seconds: float = 0.0
    call_s: list = field(default_factory=list)  # wall seconds per invocation
    ref_s: list = field(default_factory=list)  # reference loop, once before each invocation
    attempted: int = 0
    failed: int = 0
    suite_s: Counter = field(default_factory=Counter)
    reports: list = field(default_factory=list)  # report.json bytes per invocation
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # tracer summary, traced passes only


def judge(inv: workloads.Invocation, code, blob, reference) -> tuple[set, str]:
    """Return the suites of one invocation that went wrong, and why."""
    every = set(inv.expected)
    if code != inv.expected_exit:
        return every, f"exit code {code}, expected {inv.expected_exit}"
    if blob is None:
        return every, "no report.json written"
    if reference is not None and blob != reference:
        return every, "report.json differs from the warm-up pass at the same seed"
    verdicts = {s["suite"]: s["passed"] for s in json.loads(blob)["suites"]}
    wrong = {s for s, want in inv.expected.items() if verdicts.get(s) is not want}
    return wrong, f"unexpected verdict on {sorted(wrong)}" if wrong else ""


def run_pass(main, invocations, out_dir: Path, seed: int, reference=None) -> Pass:
    result = Pass()
    report, meta = out_dir / "report.json", out_dir / "meta.json"
    for index, inv in enumerate(invocations):
        result.ref_s.append(reference_loop())
        report.unlink(missing_ok=True)
        meta.unlink(missing_ok=True)
        sink = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(inv.argv(out_dir, seed))
        except Exception:
            code = None
            sink.write(traceback.format_exc(limit=4))
        result.call_s.append(time.perf_counter() - started)
        result.seconds += result.call_s[-1]

        blob = report.read_bytes() if report.exists() else None
        result.reports.append(blob)
        wrong, why = judge(inv, code, blob, None if reference is None else reference[index])
        result.attempted += len(inv.expected)
        result.failed += len(wrong)
        if wrong:
            result.problems.append(f"{inv.scenario.name}: {why}; {sink.getvalue()[-300:]}")
        if meta.exists():
            result.suite_s.update(json.loads(meta.read_text(encoding="utf-8"))["wall_times"])
    return result


def reference_loop() -> float:
    """Wall seconds of one run of the fixed reference work.

    The work has the shape of rnsl's two hot paths: per-block 4x4 Pade
    products, a solve and a power iteration (``rnsl.rn``), then a scalar
    float loop (``rnsl.calculus``).  It uses numpy alone, so no change to
    rnsl changes it.  Timed before every call, it measures how fast the
    machine is just then; dividing by it removes most of the drift that load
    from other machines puts into wall times over tens of seconds.
    """
    ident = np.eye(4)
    started = time.perf_counter()
    for _ in range(REF_REPEATS):
        for m in REF_BLOCKS:
            b2 = m @ m
            b4 = b2 @ b2
            b6 = b2 @ b4
            u = m @ (b6 @ (0.1 * b6 + 0.2 * b4) + 0.3 * b2 + ident)
            v = b6 @ (0.1 * b6 + 0.2 * b4) + 0.4 * b2 + ident
            gram = np.linalg.solve(v - u, v + u)
            gram = gram.T @ gram
            w = gram[0] / np.abs(gram).max()
            for _ in range(6):
                w = gram @ w
                w = w / np.linalg.norm(w)
        total = 0.0
        for i in range(REF_NODES):
            x = 0.5 + i * 1e-5
            total += math.exp(-x) * math.cos(x) / (1.0 + x * x)
    return time.perf_counter() - started


def measure_setup(paths) -> float:
    """Median wall time of a fresh interpreter importing rnsl and loading the scenarios."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), *map(str, paths)]
    quiet = dict(check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    subprocess.run(cmd, **quiet)  # fills the bytecode cache in a fresh checkout
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(cmd, **quiet)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _openblas_threads():
    """Thread count of the OpenBLAS loaded into this process, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "platform": platform.platform(),
    }


def typical_pass(passes) -> float:
    """Sum over the workload's invocations of each one's median wall time.

    A burst of load from elsewhere on the machine then spoils one sample of
    one invocation rather than a whole pass.
    """
    return sum(statistics.median(calls) for calls in zip(*(p.call_s for p in passes)))


def _repeat(run, seconds: float, started: float) -> list:
    """Run once, then again while another run fits before ``seconds`` after ``started``."""
    out = [run()]
    while time.perf_counter() - started + statistics.median(p.seconds for p in out) <= seconds:
        out.append(run())
    return out


def measure(invocations, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Warm up, run passes for ``seconds`` and return the result record."""
    from rnsl import cli, suites

    out_dir = workdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_s = None if trace else measure_setup(dict.fromkeys(i.scenario for i in invocations))

    warm = run_pass(cli.main, invocations, out_dir, seed)
    reference = warm.reports

    def plain() -> Pass:
        gc.collect()
        return run_pass(cli.main, invocations, out_dir, seed, reference)

    last = tracer.Tracer()

    def traced() -> Pass:
        nonlocal last
        gc.collect()
        last = tracer.Tracer()
        suite_spans = [(suites.SUITES, name, f"suite:{name}") for name in suites.SUITES]
        with tracer.instrument(last, suite_spans):
            main = last.span("cli.run", cli.main)
            done = run_pass(main, invocations, out_dir, seed, reference)
        done.layers = last.summary()
        return done

    started = time.perf_counter()
    passes = _repeat(plain, seconds / 2 if trace else seconds, started)
    traced_passes = _repeat(traced, seconds, started) if trace else []
    if trace:
        last.dump(workdir / "spans.json")

    every = [warm, *passes, *traced_passes]
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    run_s = typical_pass(passes)
    ref_s = statistics.median(r for p in passes for r in p.ref_s)
    if trace:
        traced_s = typical_pass(traced_passes)
        values = {
            **{
                name: statistics.median(p.suite_s.get(name.split(".")[1], 0.0) for p in passes)
                for name in PER_LAYER
                if name.startswith("suites.")
            },
            **{
                name: statistics.median(p.layers.get(name, 0) for p in traced_passes)
                for name in _COUNTS_AND_SELF
            },
            "run_s": run_s,
            "ref_s": ref_s,
            "trace.run_s": traced_s,
            "trace.overhead_ratio": traced_s / run_s,
            "ops_failed_ratio": failed / attempted,
        }
        units = PER_LAYER
    else:
        values = {
            "run_rel": run_s / ref_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        "passes": len(passes),
        "run_s": run_s,
        "ref_s": ref_s,
        "pass_seconds": [p.seconds for p in passes],
        "traced_pass_seconds": [p.seconds for p in traced_passes],
        "problems": sorted({msg for p in every for msg in p.problems}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    for needed in (ROOT / "src" / "rnsl" / "cli.py", ROOT / "scenarios"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full rnsl checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    invocations = workloads.build(args.workload, args.seed, ROOT, workdir)
    record = measure(invocations, args.seed, args.seconds, bool(args.trace), workdir)
    env = environment()

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, **record}
    (results / name).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {record['passes']}: " + " ".join(f"{s:.3f}" for s in record["pass_seconds"]))
    for metric, entry in record["metrics"].items():
        print(f"{metric:45s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
