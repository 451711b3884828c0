"""Outside-in tracing of rnsl: wrap public functions from the benchmark's side.

rnsl modules import names directly (``from .rn import matrix_exp``), so a
wrapper placed on ``rnsl.rn.matrix_exp`` alone would miss most calls.
``instrument`` therefore rebinds each wrapper in every loaded ``rnsl``
module that holds the original object, and restores every binding on exit.

Spans (name, start, end, parent) stay in memory until ``dump``.  A span's
self time is its duration minus the time its child spans cover; calls run
on one thread, so children never overlap and that is a plain subtraction.
High-frequency entry points (vector construction, curve evaluation) are
only counted, which keeps the tracing overhead low.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _atoms(args, kwargs) -> int:
    return args[0].space.n_atoms


def _panels(result) -> int:
    return result.panels


def _blob_bytes(args, kwargs) -> int:
    return len(args[1])


# (module, function, span name, per-call amount from arguments, amount from result)
SPANS = (
    ("rnsl.rn", "matrix_exp", "rn.matrix_exp", ("blocks", _atoms), None),
    ("rnsl.rn", "op_norm", "rn.op_norm", ("blocks", _atoms), None),
    ("rnsl.calculus", "damped_weighted_integral", "calculus.damped_weighted_integral",
     None, ("panels", _panels)),
    ("rnsl.calculus", "riemann_integral", "calculus.riemann_integral",
     None, ("panels", _panels)),
    ("rnsl.laplace", "post_widder", "laplace.post_widder", None, None),
    ("rnsl.semigroup", "make_matrix_semigroup", "semigroup.make_matrix_semigroup", None, None),
    ("rnsl.semigroup", "hille_yosida_report", "semigroup.hille_yosida_report", None, None),
    ("rnsl.acp", "rk4_oracle", "acp.rk4_oracle", None, None),
    ("rnsl.acp", "solve_acp", "acp.solve_acp", None, None),
    ("rnsl.instances", "random_commuting_pair", "instances.random_commuting_pair", None, None),
    ("rnsl.scenario", "load_scenario", "scenario.load_scenario", None, None),
    ("rnsl.reporting", "write_json", "reporting.write", None, None),
    ("rnsl.reporting", "write_csv", "reporting.write", None, None),
)

# (module, function, counter name, amount per call from arguments)
COUNTERS = (
    ("rnsl.rn", "op_apply", "rn.op_apply.calls", None),
    ("rnsl.rn", "l0_norm", "rn.l0_norm.calls", None),
    ("rnsl.laplace", "laplace_derivative_scaled", "laplace.laplace_derivative_scaled.calls", None),
    ("rnsl.semigroup", "evaluate", "semigroup.evaluate.calls", None),
    ("rnsl.reporting", "_atomic_write_bytes", "reporting.bytes", _blob_bytes),
)

# (module, class, attribute, counter name); callers reach these through the class
METHOD_COUNTERS = (
    ("rnsl.rn", "RnVector", "of", "rn.RnVector.of.calls"),
    ("rnsl.l0", "L0Scalar", "of", "l0.L0Scalar.of.calls"),
    ("rnsl.calculus", "CurveSampler", "__call__", "calculus.curve_evals"),
)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name, fn, from_args=None, from_result=None):
        spans, opened, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, opened[-1] if opened else -1]
            opened.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                opened.pop()
            if from_args is not None:
                counts[f"{name}.{from_args[0]}"] += from_args[1](args, kwargs)
            if from_result is not None:
                counts[f"{name}.{from_result[0]}"] += from_result[1](result)
            return result

        return wrapper

    def counter(self, name, fn, amount=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus every counter."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = dict(self.counts)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - covered[index])
        return out

    def dump(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _rnsl_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "rnsl" or k.startswith("rnsl.")]


@contextlib.contextmanager
def instrument(tracer: Tracer, extra_spans=()):
    """Install the tracer's wrappers for the duration of the block.

    ``extra_spans`` holds (mapping, key, span name) triples, such as the
    suite table, whose entries are wrapped in place.
    """
    restore: list = []
    modules = _rnsl_modules()

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    restore.append((vars(module), attr, value))
                    setattr(module, attr, wrapper)

    try:
        for module_name, attr, name, from_args, from_result in SPANS:
            original = getattr(sys.modules[module_name], attr)
            rebind(original, tracer.span(name, original, from_args, from_result))
        for module_name, attr, name, amount in COUNTERS:
            original = getattr(sys.modules[module_name], attr)
            rebind(original, tracer.counter(name, original, amount))
        for module_name, cls_name, attr, name in METHOD_COUNTERS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = vars(cls)[attr]
            restore.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.counter(name, raw.__func__)))
            else:
                setattr(cls, attr, tracer.counter(name, raw))
        for mapping, key, name in extra_spans:
            restore.append((mapping, key, mapping[key]))
            mapping[key] = tracer.span(name, mapping[key])
        yield tracer
    finally:
        for target, attr, value in reversed(restore):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
