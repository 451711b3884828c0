"""Benchmark workloads: which scenarios run, with which suites, and what they must say.

A workload is a list of CLI invocations that one client runs back to back,
each starting after the previous report is written (a closed loop with one
client).  Every input is built here from the workload seed with numpy alone;
nothing is taken from ``rnsl.instances``, so a change to that module cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# All fourteen suites, named here rather than read from rnsl, so that adding
# a suite to the program does not change the desk workload.
DESK_SUITES = (
    "rn_axioms",
    "calculus_ftc",
    "laplace_bound",
    "lemma_3_4",
    "post_widder",
    "uniqueness_3_6",
    "semigroup_law",
    "lemma_4_6",
    "eq_5",
    "prop_4_3",
    "hille_yosida_4_11",
    "yosida_convergence",
    "lemma_4_10",
    "acp_5_1",
)
WIDE_SUITES = (
    "semigroup_law",
    "eq_5",
    "acp_5_1",
    "hille_yosida_4_11",
    "yosida_convergence",
    "lemma_4_10",
)
TRANSFORM_SUITES = (
    "laplace_bound",
    "lemma_3_4",
    "post_widder",
    "uniqueness_3_6",
    "calculus_ftc",
)

# Keeps the generated streams of the two workloads apart at equal seeds.
_WIDE_STREAM = 1
_TRANSFORM_STREAM = 2


@dataclass(frozen=True)
class Invocation:
    """One ``rnsl run`` call and the verdict each of its suites must reach."""

    scenario: Path
    suites: tuple[str, ...]  # passed as repeated --suite; empty runs the file's list
    expected: dict[str, bool]  # suite -> True when it must PASS

    @property
    def expected_exit(self) -> int:
        return 0 if all(self.expected.values()) else 1

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        args = ["run", str(self.scenario), "--out", str(out_dir), "--seed", str(seed)]
        for suite in self.suites:
            args += ["--suite", suite]
        return args


def certified_commuting_pairs(rng: np.random.Generator, atoms: int, dim: int):
    """Per-atom A = Q diag(a) Q^T and C = Q diag(c) Q^T with an exact certificate.

    Both blocks are normal and share the eigenbasis Q, so
    ||exp(tA) C|| = max_i c_i exp(t a_i) <= max(c) exp(t max(a)) for t >= 0:
    M = max(c) and xi = max(a) hold by construction, whatever the seed.
    """
    a = rng.uniform(-2.0, 0.5, (atoms, dim))
    c = rng.uniform(0.5, 2.0, (atoms, dim))
    q, r = np.linalg.qr(rng.standard_normal((atoms, dim, dim)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    qt = np.swapaxes(q, 1, 2)
    return (q * a[:, None, :]) @ qt, (q * c[:, None, :]) @ qt, c.max(axis=1), a.max(axis=1)


def _scenario_doc(rng, atoms, dim, suites, seed, **extra) -> dict:
    weights = rng.uniform(0.5, 1.5, atoms)
    A, C, big_m, xi = certified_commuting_pairs(rng, atoms, dim)
    return {
        "space": {"probs": (weights / weights.sum()).tolist()},
        "dim": dim,
        "operators": {"A": {"matrices": A.tolist()}, "C": {"matrices": C.tolist()}},
        "bound": {"M": big_m.tolist(), "xi": xi.tolist()},
        "suites": list(suites),
        "seed": int(seed),
        **extra,
    }


def wide_semigroup_doc(seed: int, atoms=64, dim=4, instances=4, suites=WIDE_SUITES) -> dict:
    rng = np.random.default_rng([int(seed), _WIDE_STREAM])
    return _scenario_doc(rng, atoms, dim, suites, seed, instances=instances)


def transform_inversion_doc(seed: int, atoms=64, dim=2, suites=TRANSFORM_SUITES) -> dict:
    rng = np.random.default_rng([int(seed), _TRANSFORM_STREAM])
    return _scenario_doc(rng, atoms, dim, suites, seed, k_ladder=[8, 64, 512, 1024])


def generated(doc: dict, workdir: Path) -> list[Invocation]:
    """Write a generated scenario and expect every one of its suites to pass.

    Each suite is its own ``rnsl run --suite`` call.  A suite that raises
    then ends only its own call: the others still run, so a pass does the
    same work whether or not one suite fails, and its time stays comparable.
    The suites draw from per-suite random streams, so a suite computes the
    same on its own as within the whole scenario.
    """
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return [Invocation(path, (suite,), {suite: True}) for suite in doc["suites"]]


def desk_reference(root: Path, suites=DESK_SUITES) -> list[Invocation]:
    """The shipped scenarios at the acceptance gate's 4-atom, d = 2 configuration."""
    scenarios = root / "scenarios"
    post_widder = scenarios / "post_widder.json"
    shipped = json.loads(post_widder.read_text(encoding="utf-8"))["suites"]
    return [
        Invocation(scenarios / "reference.json", tuple(suites), {s: True for s in suites}),
        Invocation(post_widder, (), {s: True for s in shipped}),
        # its certificate overstates the family's growth: the ladder must FAIL
        Invocation(scenarios / "bad_certificate.json", (), {"hille_yosida_4_11": False}),
    ]


def build(name: str, seed: int, root: Path, workdir: Path) -> list[Invocation]:
    if name == "desk_reference":
        return desk_reference(root)
    if name == "wide_semigroup":
        return generated(wide_semigroup_doc(seed), workdir)
    if name == "transform_inversion":
        return generated(transform_inversion_doc(seed), workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("desk_reference", "wide_semigroup", "transform_inversion")
