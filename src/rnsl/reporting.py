"""Check records, suite reports, and deterministic artifact writers.

Reports must be byte-identical across runs with the same scenario and seed,
so report.json holds no timestamps or timings; those live in meta.json.
JSON uses sorted keys and two-space indentation; CSV follows RFC 4180 with
CRLF line endings and floats printed with 17 significant digits, which is
enough to round-trip any double exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Sequence


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


@dataclass(frozen=True)
class CheckRecord:
    """One measured quantity compared against one bound."""

    name: str
    measured: float
    bound: float
    tolerance: float
    direction: str  # "le": measured <= bound + tol; "ge": measured >= bound - tol
    passed: bool
    worst_atom: int | None = None

    @classmethod
    def le(cls, name, measured, bound, tolerance, worst_atom=None) -> "CheckRecord":
        ok = float(measured) <= float(bound) + float(tolerance)
        return cls(name, float(measured), float(bound), float(tolerance), "le", ok, worst_atom)

    @classmethod
    def ge(cls, name, measured, bound, tolerance, worst_atom=None) -> "CheckRecord":
        ok = float(measured) >= float(bound) - float(tolerance)
        return cls(name, float(measured), float(bound), float(tolerance), "ge", ok, worst_atom)

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "direction": self.direction,
            "passed": self.passed,
        }
        if self.worst_atom is not None:
            out["worst_atom"] = int(self.worst_atom)
        return out


@dataclass
class SuiteReport:
    """Outcome of one suite: its records plus raw arrays for plots."""

    suite: str
    records: list[CheckRecord]
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "records": [r.to_json_dict() for r in self.records],
            "data": self.data,
        }


def report_payload(digest: str, seed: int, suites: Sequence[SuiteReport]) -> dict:
    return {
        "scenario_digest": digest,
        "seed": int(seed),
        "passed": all(s.passed for s in suites),
        "suites": [s.to_json_dict() for s in suites],
    }


def _atomic_write_bytes(path: str, blob: bytes) -> None:
    # Write-and-rename so a crashed run never leaves a truncated artifact.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_encode_str = json.encoder.encode_basestring_ascii  # json's C string escaper


def _float_text(x: float) -> str:
    """A float as json writes it: repr, or NaN, Infinity and -Infinity."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0.0 else "-Infinity"
    return float.__repr__(x)


def _json_text(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it at the indent ``pad``.

    CPython's json skips its C encoder whenever indent is set, and a report
    holds long lists of floats, so this writes those bytes itself: a list
    of plain floats or of plain ints is one join of their reprs.  It knows
    the types a payload holds (str keys; str, int, float, bool, None, list,
    tuple and dict values) and raises TypeError on any other.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        text = None
        if kinds == {float}:
            text = sep.join(map(float.__repr__, value))
            if "n" in text:  # nan or inf, which json spells otherwise
                text = None
        elif kinds == {int}:
            text = sep.join(map(int.__repr__, value))
        if text is None:
            text = sep.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + text + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = sorted(value.items())
        return "{\n" + inner + sep.join(
            [_encode_str(k) + ": " + _json_text(v, inner) for k, v in items]
        ) + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path: str, payload: dict) -> int:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, byte for byte; return the byte count."""
    blob = (_json_text(payload, "") + "\n").encode("utf-8")
    _atomic_write_bytes(path, blob)
    return len(blob)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def records_csv_rows(records: Sequence[CheckRecord]):
    for r in records:
        yield (
            r.name,
            r.measured,
            r.bound,
            r.tolerance,
            r.direction,
            "" if r.worst_atom is None else r.worst_atom,
            r.passed,
        )


DIFF_RTOL = 1e-9
DIFF_ATOL = 1e-12


def _numbers_agree(a: float, b: float) -> bool:
    """Finite values within max(DIFF_RTOL * |a|, DIFF_ATOL); others exactly."""
    if math.isfinite(a) and math.isfinite(b):
        return abs(b - a) <= max(DIFF_RTOL * abs(a), DIFF_ATOL)
    return a == b or (math.isnan(a) and math.isnan(b))


def diff_reports(old: dict, new: dict) -> list[str]:
    """Where two report.json payloads disagree; empty when they agree.

    Returns at most two lines: the first difference in a verdict, suite or
    record names, or direction, and the first record whose ``measured`` or
    ``bound`` moved by more than max(DIFF_RTOL * |old|, DIFF_ATOL).  Suites
    pair by name, and records by name within a suite, so a record added,
    dropped or moved leaves the others paired with themselves.  An
    infinite or NaN value agrees only with the same value.  ``worst_atom``
    and suite data are not compared.
    """
    verdict: list[str] = []
    numeric: list[str] = []

    def note(found: list[str], line: str) -> None:
        if not found:
            found.append(line)

    names = [[s["suite"] for s in r["suites"]] for r in (old, new)]
    if names[0] != names[1]:
        note(verdict, f"report: suites {names[0]} -> {names[1]}")
    new_suites = {s["suite"]: s for s in new["suites"]}
    for so in old["suites"]:
        suite, sn = so["suite"], new_suites.get(so["suite"], so)  # a dropped suite is named above
        records = [[r["name"] for r in s["records"]] for s in (so, sn)]
        if records[0] != records[1]:
            note(verdict, f"{suite}: records {records[0]} -> {records[1]}")
        new_records = {r["name"]: r for r in sn["records"]}
        for ro in so["records"]:
            where, rn = f"{suite}/{ro['name']}", new_records.get(ro["name"], ro)  # likewise
            for key in ("direction", "passed"):
                if ro[key] != rn[key]:
                    note(verdict, f"{where}: {key} {ro[key]!r} -> {rn[key]!r}")
            for key in ("measured", "bound"):
                a, b = ro[key], rn[key]
                if not _numbers_agree(a, b):
                    note(numeric, f"{where}: {key} {a!r} -> {b!r}")
    if old["passed"] != new["passed"]:
        note(verdict, f"report: passed {old['passed']} -> {new['passed']}")
    return verdict + numeric


RECORDS_CSV_HEADER = (
    "name", "measured", "bound", "tolerance", "direction", "worst_atom", "passed",
)
