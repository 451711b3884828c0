"""Time rnsl's small-block kernels, its semigroup constructor and its scenario reader on two source trees.

Usage, from the root of a checkout:

    python3 tools/kernel_sweep.py --tree parent=OLD/src --tree change=src > BENCH.json

Each of the two ``--tree LABEL=DIR`` arguments names a directory that holds
the ``rnsl`` package; the first is the baseline.
The cases are ``rn.matrix_exp_times`` at T in {1, 15, 32} times over
n in {4, 64, 1024} atoms and dimension d in {1, 2, 4, 16};
``rn.op_norm`` over the same n and d on a stack of 32 x n blocks, the
growth check's shape; ``semigroup.make_matrix_semigroup`` (injectivity,
commutation and the 32-time growth check) at d = 4 over the same atom
counts; ``instances.random_commuting_pair`` at d = 4 over the same atom
counts; and ``scenario.scenario_from_dict`` over the same n and d, on a
document shaped like the benchmark's ``wide_semigroup`` scenario
(per-atom A and C matrices and a per-atom certificate).  The blocks are
normal, A = Q diag(a) Q^T with a in [-2, 0.5] and C = Q diag(c) Q^T with
c in [0.5, 2], as in the benchmark's generated scenarios.  The
exponential's times are spread evenly over (0, 2]; the norm's blocks are
exp(tA) C = Q diag(c exp(t a)) Q^T at 32 times spread evenly over [0, 10].

Each of five rounds starts one worker process per tree, alternating which
tree goes first, and a worker times every case on its own tree: the best
of five samples, each sample at least 20 ms of repeated calls.  A case's
figure is the median over rounds of those best times, in seconds per call.
The result, written to stdout, is one JSON object with a column per tree
label and the ratio of the second to the first; numpy is the only
dependency.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

ATOMS = (4, 64, 1024)
DIMS = (1, 2, 4, 16)
TIMES = (1, 15, 32)
SEMIGROUP_DIM = 4
NORM_TIMES = 32
SAMPLES = 5
ROUNDS = 5
SAMPLE_SECONDS = 0.02
WIDE_SUITES = ("semigroup_law", "eq_5", "acp_5_1", "hille_yosida_4_11", "yosida_convergence", "lemma_4_10")


def cases() -> list[dict]:
    out = [
        {"kernel": "matrix_exp_times", "atoms": n, "dim": d, "times": t}
        for n in ATOMS
        for d in DIMS
        for t in TIMES
    ]
    out += [{"kernel": "op_norm", "atoms": n, "dim": d} for n in ATOMS for d in DIMS]
    for kernel in ("make_matrix_semigroup", "random_commuting_pair"):
        out += [{"kernel": kernel, "atoms": n, "dim": SEMIGROUP_DIM} for n in ATOMS]
    out += [{"kernel": "scenario_from_dict", "atoms": n, "dim": d} for n in ATOMS for d in DIMS]
    return out


def spectra(n: int, d: int):
    """Per-atom orthogonal Q, generator spectrum a and C spectrum c."""
    rng = np.random.default_rng([n, d])
    a = rng.uniform(-2.0, 0.5, (n, d))
    c = rng.uniform(0.5, 2.0, (n, d))
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    return q, a, c


def blocks(q: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Q diag(x) Q^T for every row x of ``diag``, shape (..., n, d)."""
    return (q * diag[..., None, :]) @ np.swapaxes(q, 1, 2)


def scenario_doc(q: np.ndarray, a: np.ndarray, c: np.ndarray) -> dict:
    """A JSON-shaped scenario with per-atom A, C and certificate, as the wide workload has."""
    n, d = a.shape
    return {
        "space": {"probs": np.full(n, 1.0 / n).tolist()},
        "dim": d,
        "operators": {"A": {"matrices": blocks(q, a).tolist()}, "C": {"matrices": blocks(q, c).tolist()}},
        "bound": {"M": c.max(axis=1).tolist(), "xi": a.max(axis=1).tolist()},
        "suites": list(WIDE_SUITES),
        "seed": 0,
        "instances": 4,
    }


def best_time(call) -> float:
    """Best of SAMPLES samples of seconds per call; a sample repeats the call for SAMPLE_SECONDS."""
    started = time.perf_counter()
    call()
    number = max(1, int(SAMPLE_SECONDS / max(time.perf_counter() - started, 1e-9)))
    best = float("inf")
    for _ in range(SAMPLES):
        started = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - started) / number)
    return best


def worker(tree: str) -> list[float]:
    """Time every case with the rnsl package found in ``tree``."""
    sys.path.insert(0, os.path.abspath(tree))
    import rnsl
    from rnsl.instances import random_commuting_pair

    if not os.path.abspath(rnsl.__file__).startswith(os.path.abspath(tree)):
        raise SystemExit(f"rnsl was imported from {rnsl.__file__}, not from {tree}")
    out = []
    for case in cases():
        n, d = case["atoms"], case["dim"]
        q, a, c = spectra(n, d)
        space = rnsl.make_space(np.full(n, 1.0 / n))
        gen = rnsl.L0Operator.of(space, blocks(q, a))
        if case["kernel"] == "matrix_exp_times":
            ts = 2.0 * np.arange(1, case["times"] + 1) / case["times"]
            out.append(best_time(lambda: rnsl.matrix_exp_times(gen, ts)))
        elif case["kernel"] == "op_norm":
            # W(t) = exp(tA) C = Q diag(c exp(t a)) Q^T at the growth check's times
            ts = np.linspace(0.0, 10.0, NORM_TIMES)[:, None, None]
            stack = blocks(q, c * np.exp(ts * a)).reshape(-1, d, d)
            family = rnsl.L0Operator.of(rnsl.make_space(np.full(len(stack), 1.0 / len(stack))), stack)
            out.append(best_time(lambda: rnsl.op_norm(family)))
        elif case["kernel"] == "scenario_from_dict":
            doc = scenario_doc(q, a, c)
            out.append(best_time(lambda: rnsl.scenario_from_dict(doc)))
        elif case["kernel"] == "random_commuting_pair":
            rng = np.random.default_rng(n)
            out.append(best_time(lambda: random_commuting_pair(rng, space, d)))
        else:
            c_op = rnsl.L0Operator.of(space, blocks(q, c))
            bound = rnsl.ExponentialBound(
                rnsl.L0Scalar.of(space, c.max(axis=1)), rnsl.L0Scalar.of(space, a.max(axis=1))
            )
            out.append(best_time(lambda: rnsl.make_matrix_semigroup(gen, c_op, bound)))
    return out


def sweep(trees: dict[str, str]) -> dict:
    runs = {label: [] for label in trees}
    base, change = labels = list(trees)
    for r in range(ROUNDS):
        for label in labels if r % 2 == 0 else labels[::-1]:
            done = subprocess.run(
                [sys.executable, __file__, "--worker", trees[label]],
                check=True, capture_output=True, text=True,
            )
            runs[label].append(json.loads(done.stdout))
    rows = []
    for i, case in enumerate(cases()):
        row = dict(case, unit="s")
        for label in labels:
            row[label] = statistics.median(run[i] for run in runs[label])
        row[f"{change}_over_{base}"] = row[change] / row[base]
        rows.append(row)
    return {
        "what": "seconds per call, median over rounds of each worker's best of "
        f"{SAMPLES} samples; times spread evenly over (0, 2]",
        "columns": labels,
        "rounds": ROUNDS,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "cases": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return 0
    trees = dict(spec.split("=", 1) for spec in args.tree if "=" in spec)
    if len(args.tree) != 2 or len(trees) != 2:
        parser.error("give exactly two trees, the baseline first, as --tree LABEL=DIR")
    sys.stdout.write(json.dumps(sweep(trees), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
