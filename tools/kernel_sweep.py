"""Time rnsl's small-block kernels, family routines, scenario reader and transform suites' kernels on two source trees.

Usage, from the root of a checkout:

    python3 tools/kernel_sweep.py --tree parent=OLD/src --tree change=src > BENCH.json

Each of the two ``--tree LABEL=DIR`` arguments names a directory that holds
the ``rnsl`` package; the first is the baseline.
The cases are ``rn.matrix_exp_times`` at T in {1, 15, 32} times over
n in {4, 64, 1024} atoms and dimension d in {1, 2, 4, 16};
``rn.op_norm`` over the same n and d on a stack of 32 x n blocks, the
growth check's shape; ``semigroup.make_matrix_semigroup`` (injectivity,
commutation and the 32-time growth check) at d = 4 over the same atom
counts, on the normal pairs below and on a non-normal pair whose
logarithmic norm exceeds its certificate's rate, so that no atom settles
before the exponentials (A = -I/2 + N with N the nilpotent shift,
C = I + A/2, xi = 0 and M 1% above the largest norm of exp(tA) C over
[0, 10]); ``instances.random_commuting_pair`` at d = 4 over the same atom
counts; ``semigroup.hille_yosida_report`` at d = 4 over the same atom
counts, on the ``hille_yosida_4_11`` suite's default damping grid
{2, 4, 8, 16} and ladder depth 8; ``semigroup.abel_limit_check`` at
d = 4 over the same atom counts, on the ``lemma_4_10`` suite's default
damping sequence {10, 20, 40, 80, 160} and its probe vector; three calls on a validated family at
d = 4 over the same atom counts, each on a fresh copy of the family, as a
suite's instance makes one: ``semigroup.c_resolvent_integral`` at
eta = xi + 2 to 1e-8 (``lemma_4_6``), ``acp.solve_acp`` on the time grid
of 21 points over [0, 1] and ``acp.rk4_oracle`` on that grid at step 2e-3
(``acp_5_1``); ``calculus.damped_weighted_integral`` of the family's orbit
at eta = xi + 2 and k in {64, 512}, to 1e-8 of the largest scaled
certificate integral on every atom, on the damped orbit
exp(s(A - xi)) C x at gamma = 2 that the resolvent routes integrate; and
``scenario.scenario_from_dict`` over the same n and d, on a document
shaped like the benchmark's ``wide_semigroup`` scenario (per-atom A and C
matrices and a per-atom certificate).  Three cases time
the transform suites' units of work at d = 2 over the same atom counts:
the certificate check of ``laplace.LaplaceSpec``'s construction on the
20 curves of ``oscillating_decay_stack``, as ``laplace_bound`` builds them;
``laplace.laplace_transform`` (k = 0) of those curves at eta = xi + 2 to
2.5e-9, as ``laplace_bound`` makes it; and ``laplace.post_widder`` at
t = 1 and k in {64, 512} of the three quadrature members of
``inversion_test_family``, each family as one stacked curve
(``oscillating_decay_stack`` and ``stack_specs``).  The ``post_widder``
case also runs at one atom, the ``post_widder`` suite's own unit of work,
since that suite integrates the atom-constant inversion family on one
atom.  The ``post_widder_ladder`` case times that suite's 12 quadrature
points, t in {0.5, 1, 2} and k in {8, 64, 512, 1024}, as its one
``laplace.post_widder_points`` call, at 1 and 64 atoms and d = 2.  The
``transforms_equal`` case times ``laplace.transforms_equal`` of the
family's ``decay_1`` and ``modulated`` members on the ``uniqueness_3_6``
suite's damping grid {1, 2, 4, 8} at its tolerance 1e-6, at 1 and 64
atoms and d = 2.  One case
times ``calculus.riemann_integral`` over [0, 2] to 1e-8, the
``calculus_ftc`` suite's quadrature tolerance, of the derivative of one
``smooth_curve_family`` member, over the same n and d.  One case times
``semigroup.yosida_approximant`` at t = 1 over the same n and d, on the
``yosida_convergence`` suite's default damping sequence, as five calls
and as the suite's one call on ``stacked_space(space, 5)`` with A, C and
x tiled and eta constant per copy, the tiling included.  The ``solve_acp``
case times the states alone where the tree forms a trajectory's
residuals and graph norms on first read, since nothing in it reads them.
The blocks are
normal, A = Q diag(a) Q^T with a in [-2, 0.5] and C = Q diag(c) Q^T with
c in [0.5, 2], as in the benchmark's generated scenarios.  The
exponential's times are spread evenly over (0, 2]; the norm's blocks are
exp(tA) C = Q diag(c exp(t a)) Q^T at 32 times spread evenly over [0, 10].

One long-lived worker process per tree takes the cases over a pipe,
and the two trees are timed case by case: each case runs five rounds
back to back, one worker and then the other, alternating which tree goes
first from round to round, so a drift in the machine's speed reaches both
trees alike.  A worker's time for a round is the best of five samples,
each sample at least 20 ms of repeated calls.  A case's figure is the
median over rounds of those best times, in seconds per call, and
``round_ratios`` is the least and the greatest ratio of the second tree
to the first within one round: the spread against which a move is read.
The result, written to stdout, is one JSON object with a column per tree
label and the ratio of the second to the first; numpy is the only
dependency.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
# the hille_yosida_4_11 suite's default damping grid and its ladder depth
ETA_GRID = (2.0, 4.0, 8.0, 16.0)
LADDER_DEPTH = 8
# the lemma_4_10 and yosida_convergence suites' default damping sequence, and the Yosida time
ETA_SEQUENCE = (10.0, 20.0, 40.0, 80.0, 160.0)
YOSIDA_TIME = 1.0
SAMPLES = 5
ROUNDS = 5
SAMPLE_SECONDS = 0.02
# the transform suites' dimension, damping margin, tolerance and orders
TRANSFORM_DIM = 2
TRANSFORM_CURVES = 20
TRANSFORM_GAMMA = 2.0
TRANSFORM_TOL = 2.5e-9
INVERSION_ORDERS = (64, 512)
# the post_widder suite's inversion times and the transform_inversion workload's k ladder
LADDER_TIMES = (0.5, 1.0, 2.0)
LADDER_ORDERS = (8, 64, 512, 1024)
LADDER_ATOMS = (1, 64)
# the uniqueness_3_6 suite's damping grid and default tolerance
UNIQUENESS_GRID = (1.0, 2.0, 4.0, 8.0)
UNIQUENESS_TOL = 1e-6
ORBIT_ORDERS = (64, 512)
# the calculus_ftc suite's quadrature tolerance
FTC_TOL = 1e-8
# the orbit transform's damping margin and tolerance, and the ACP grid and oracle step
ORBIT_GAMMA = 2.0
ORBIT_TOL = 1e-8
ACP_TIMES = tuple(np.linspace(0.0, 1.0, 21))
RK4_STEP = 2e-3
FAMILY_CALLS = ("c_resolvent_integral", "solve_acp", "rk4_oracle")
WIDE_SUITES = ("semigroup_law", "eq_5", "acp_5_1", "hille_yosida_4_11", "yosida_convergence", "lemma_4_10")


def cases() -> list[dict]:
    out = [
        {"kernel": "matrix_exp_times", "atoms": n, "dim": d, "times": t}
        for n in ATOMS
        for d in DIMS
        for t in TIMES
    ]
    out += [{"kernel": "op_norm", "atoms": n, "dim": d} for n in ATOMS for d in DIMS]
    for kernel in (
        "make_matrix_semigroup", "random_commuting_pair", "hille_yosida_report", "abel_limit_check", *FAMILY_CALLS
    ):
        out += [{"kernel": kernel, "atoms": n, "dim": SEMIGROUP_DIM} for n in ATOMS]
    out += [
        {"kernel": "make_matrix_semigroup", "atoms": n, "dim": SEMIGROUP_DIM, "pair": "jordan"}
        for n in ATOMS
    ]
    out += [
        {"kernel": "damped_weighted_integral", "atoms": n, "dim": SEMIGROUP_DIM, "k": k}
        for n in ATOMS
        for k in ORBIT_ORDERS
    ]
    out += [{"kernel": "scenario_from_dict", "atoms": n, "dim": d} for n in ATOMS for d in DIMS]
    out += [{"kernel": "LaplaceSpec", "atoms": n, "dim": TRANSFORM_DIM} for n in ATOMS]
    out += [{"kernel": "laplace_transform", "atoms": n, "dim": TRANSFORM_DIM, "k": 0} for n in ATOMS]
    out += [
        {"kernel": "post_widder", "atoms": n, "dim": TRANSFORM_DIM, "k": k}
        for n in (1, *ATOMS)
        for k in INVERSION_ORDERS
    ]
    out += [{"kernel": "post_widder_ladder", "atoms": n, "dim": TRANSFORM_DIM} for n in LADDER_ATOMS]
    out += [{"kernel": "transforms_equal", "atoms": n, "dim": TRANSFORM_DIM} for n in LADDER_ATOMS]
    out += [{"kernel": "riemann_integral", "atoms": n, "dim": d} for n in ATOMS for d in DIMS]
    out += [
        {"kernel": "yosida_approximant", "atoms": n, "dim": d, "stacked": stacked}
        for n in ATOMS
        for d in DIMS
        for stacked in (False, True)
    ]
    return out


def yosida_call(rnsl, A, C, stacked: bool):
    """The damping sequence's approximants: one call per damping, or one call on stacked copies of the space."""
    x = rnsl.RnVector.constant(A.space, np.full(A.dim, 1.0 / np.sqrt(A.dim)))
    if not stacked:
        return lambda: [rnsl.yosida_approximant(A, C, eta, YOSIDA_TIME, x) for eta in ETA_SEQUENCE]

    def call():
        m = len(ETA_SEQUENCE)
        stack = rnsl.stacked_space(A.space, m)
        tiled = [rnsl.L0Operator.of(stack, np.tile(op.matrices, (m, 1, 1))) for op in (A, C)]
        etas = rnsl.L0Scalar.of(stack, np.repeat(ETA_SEQUENCE, A.space.n_atoms))
        return rnsl.yosida_approximant(*tiled, etas, YOSIDA_TIME, rnsl.RnVector.constant(stack, x.values[0]))

    return call


def transform_call(rnsl, space, case):
    """One transform-suite unit of work, on one stacked curve."""
    from rnsl.instances import inversion_test_family, oscillating_decay_stack

    d = case["dim"]
    if case["kernel"] in ("LaplaceSpec", "laplace_transform"):
        spec = oscillating_decay_stack(np.random.default_rng(0), space, d, n=TRANSFORM_CURVES)
        if case["kernel"] == "LaplaceSpec":
            return lambda: rnsl.LaplaceSpec(spec.curve)
        eta = rnsl.L0Scalar.of(spec.space, spec.bound.xi.values + TRANSFORM_GAMMA)
        return lambda: rnsl.laplace_transform(spec, eta, TRANSFORM_TOL)
    if case["kernel"] == "transforms_equal":
        family = dict(inversion_test_family(space, d))
        return lambda: rnsl.transforms_equal(family["decay_1"], family["modulated"], UNIQUENESS_GRID, UNIQUENESS_TOL)
    specs = [spec for name, spec in inversion_test_family(space, d) if name != "constant"]
    provider = rnsl.provider_from_curve(rnsl.stack_specs(specs), 1e-11)
    if case["kernel"] == "post_widder":
        return lambda: rnsl.post_widder(provider, 1.0, case["k"])
    points = [(t, k) for k in LADDER_ORDERS for t in LADDER_TIMES]
    return lambda: rnsl.post_widder_points(provider, points)


def family_call(rnsl, W, case):
    """One call of ``case``'s routine on a fresh copy of the family W, so nothing W keeps is reused."""
    x = rnsl.RnVector.constant(W.space, np.full(W.dim, 1.0 / np.sqrt(W.dim)))
    if case["kernel"] == "c_resolvent_integral":
        eta = rnsl.L0Scalar.of(W.space, W.bound.xi.values + ORBIT_GAMMA)
        return lambda: rnsl.c_resolvent_integral(dataclasses.replace(W), eta, x, ORBIT_TOL)
    if case["kernel"] == "solve_acp":
        return lambda: rnsl.solve_acp(rnsl.direct_value_problem(dataclasses.replace(W), x, ACP_TIMES))
    return lambda: rnsl.rk4_oracle(W.generator, x, W.C, ACP_TIMES, RK4_STEP)


def orbit_call(rnsl, W, case):
    """The orbit's weighted transform at order k, as a resolvent route integrates it, on the family W."""
    from rnsl import semigroup

    x = rnsl.RnVector.constant(W.space, np.full(W.dim, 1.0 / np.sqrt(W.dim)))
    k = case["k"]
    curve, eta = semigroup._damped_orbit(W, x), rnsl.L0Scalar.constant(W.space, ORBIT_GAMMA)
    # one tolerance for every atom, ORBIT_TOL of the largest certificate integral
    # M k! / gamma^(k+1) in the tree's scaled form
    log_whole = math.lgamma(k + 1.0) - (k + 1.0) * math.log(ORBIT_GAMMA) - rnsl.calculus._weight_log_scale(k, eta.values)
    tol = ORBIT_TOL * float((curve.bound.M.values * np.exp(log_whole)).max())
    return lambda: rnsl.damped_weighted_integral(curve, eta, k, tol)


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


def jordan_pair(d: int):
    """A = -I/2 + N, C = I + A/2 and the least M, within 1%, with ||exp(tA) C|| <= M on [0, 10]."""
    shift = np.eye(d, k=1)
    a = -0.5 * np.eye(d) + shift
    c = np.eye(d) + 0.5 * a
    ts = np.linspace(0.0, 10.0, 2001)
    # exp(tA) = exp(-t/2) sum_k (tN)^k / k!, a finite sum since N^d = 0
    powers = [np.linalg.matrix_power(shift, k) / np.prod(np.arange(1, k + 1)) for k in range(d)]
    exps = np.exp(-0.5 * ts)[:, None, None] * sum(ts[:, None, None] ** k * p for k, p in enumerate(powers))
    return a, c, 1.01 * np.linalg.norm(exps @ c, 2, axis=(1, 2)).max()


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


def load(tree: str):
    """The rnsl package found in ``tree``."""
    sys.path.insert(0, os.path.abspath(tree))
    import rnsl

    if not os.path.abspath(rnsl.__file__).startswith(os.path.abspath(tree)):
        raise SystemExit(f"rnsl was imported from {rnsl.__file__}, not from {tree}")
    return rnsl


def case_call(rnsl, case):
    """One call of the case's unit of work, with its inputs built."""
    from rnsl.instances import random_commuting_pair, smooth_curve_family

    n, d = case["atoms"], case["dim"]
    q, a, c = spectra(n, d)
    space = rnsl.make_space(np.full(n, 1.0 / n))
    gen = rnsl.L0Operator.of(space, blocks(q, a))
    if case["kernel"] == "matrix_exp_times":
        ts = 2.0 * np.arange(1, case["times"] + 1) / case["times"]
        return lambda: rnsl.matrix_exp_times(gen, ts)
    if case["kernel"] == "op_norm":
        # W(t) = exp(tA) C = Q diag(c exp(t a)) Q^T at the growth check's times
        ts = np.linspace(0.0, 10.0, NORM_TIMES)[:, None, None]
        stack = blocks(q, c * np.exp(ts * a)).reshape(-1, d, d)
        family = rnsl.L0Operator.of(rnsl.make_space(np.full(len(stack), 1.0 / len(stack))), stack)
        return lambda: rnsl.op_norm(family)
    if case["kernel"] == "scenario_from_dict":
        doc = scenario_doc(q, a, c)
        return lambda: rnsl.scenario_from_dict(doc)
    if case["kernel"] in ("LaplaceSpec", "laplace_transform", "post_widder", "post_widder_ladder", "transforms_equal"):
        return transform_call(rnsl, space, case)
    if case["kernel"] == "riemann_integral":
        _, small_g = smooth_curve_family(np.random.default_rng(n), space, d, n=1)[0]
        return lambda: rnsl.riemann_integral(small_g, 0.0, 2.0, FTC_TOL)
    if case["kernel"] == "random_commuting_pair":
        rng = np.random.default_rng(n)
        return lambda: random_commuting_pair(rng, space, d)
    if case.get("pair") == "jordan":
        a_j, c_j, big_m = jordan_pair(d)
        gen_j, c_op = (rnsl.L0Operator.from_matrix(space, m) for m in (a_j, c_j))
        bound = rnsl.ExponentialBound.constant(space, big_m, 0.0)
        return lambda: rnsl.make_matrix_semigroup(gen_j, c_op, bound)
    c_op = rnsl.L0Operator.of(space, blocks(q, c))
    bound = rnsl.ExponentialBound(
        rnsl.L0Scalar.of(space, c.max(axis=1)), rnsl.L0Scalar.of(space, a.max(axis=1))
    )
    if case["kernel"] == "hille_yosida_report":
        return lambda: rnsl.hille_yosida_report(gen, c_op, bound, ETA_GRID, LADDER_DEPTH)
    if case["kernel"] == "yosida_approximant":
        return yosida_call(rnsl, gen, c_op, case["stacked"])
    if case["kernel"] == "abel_limit_check":
        x = rnsl.RnVector.constant(space, np.full(d, 1.0 / np.sqrt(d)))
        return lambda: rnsl.abel_limit_check(gen, c_op, bound, x, ETA_SEQUENCE)
    if case["kernel"] in FAMILY_CALLS:
        return family_call(rnsl, rnsl.make_matrix_semigroup(gen, c_op, bound), case)
    if case["kernel"] == "damped_weighted_integral":
        return orbit_call(rnsl, rnsl.make_matrix_semigroup(gen, c_op, bound), case)
    return lambda: rnsl.make_matrix_semigroup(gen, c_op, bound)


def serve(tree: str) -> None:
    """Time each case read from stdin, one JSON object a line, and write its seconds per call to stdout."""
    rnsl = load(tree)
    for line in sys.stdin:
        print(repr(best_time(case_call(rnsl, json.loads(line)))), flush=True)


def sweep(trees: dict[str, str]) -> dict:
    base, change = labels = list(trees)
    workers = {
        label: subprocess.Popen(
            [sys.executable, __file__, "--serve", trees[label]],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for label in labels
    }

    def timed(label: str, case: dict) -> float:
        proc = workers[label]
        proc.stdin.write(json.dumps(case) + "\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"the {label} worker stopped with code {proc.wait()}")
        return float(line)

    rows = []
    try:
        for i, case in enumerate(cases()):
            seconds = {label: [] for label in labels}
            for r in range(ROUNDS):
                for label in labels if (i + r) % 2 == 0 else labels[::-1]:
                    seconds[label].append(timed(label, case))
            row = dict(case, unit="s")
            for label in labels:
                row[label] = statistics.median(seconds[label])
            ratios = [new / old for old, new in zip(seconds[base], seconds[change])]
            row[f"{change}_over_{base}"] = row[change] / row[base]
            row["round_ratios"] = [min(ratios), max(ratios)]
            rows.append(row)
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()
    return {
        "what": "seconds per call, median over rounds of each worker's best of "
        f"{SAMPLES} samples; times spread evenly over (0, 2]; round_ratios is the "
        f"least and greatest {change}/{base} ratio of one round",
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
    parser.add_argument("--serve", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve)
        return 0
    trees = dict(spec.split("=", 1) for spec in args.tree if "=" in spec)
    if len(args.tree) != 2 or len(trees) != 2:
        parser.error("give exactly two trees, the baseline first, as --tree LABEL=DIR")
    sys.stdout.write(json.dumps(sweep(trees), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
