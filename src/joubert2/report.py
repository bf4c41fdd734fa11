"""Verification manifests: typed check results with JSON, text, and CSV
emitters plus a strict parser.

Manifests are deterministic by construction: checks are sorted by id, keys
are sorted, and run configuration that cannot change results (thread count,
output path) is kept out.  `strip_timing` normalizes the one legitimately
varying field so two runs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field as dc_field

from .errors import DomainError

OUTCOMES = ("pass", "fail", "skip")


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: an anchor sentence stating it, the parameters it
    ran with, and a re-checked witness for the outcome."""

    check_id: str
    anchor: str
    params: dict
    outcome: str
    witness: object = None  # any JSON-serializable payload
    elapsed_ms: float = 0.0

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise DomainError(f"outcome {self.outcome!r} not in {OUTCOMES}")


@dataclass
class Manifest:
    version: str
    config: dict
    checks: list[CheckResult] = dc_field(default_factory=list)

    @property
    def verdict(self) -> str:
        """fail if any check failed; skipped checks never count as passed."""
        return "fail" if any(c.outcome == "fail" for c in self.checks) else "pass"

    @property
    def tally(self) -> dict[str, int]:
        out = {k: 0 for k in OUTCOMES}
        for c in self.checks:
            out[c.outcome] += 1
        return out

    def sorted_checks(self) -> list[CheckResult]:
        ids = [c.check_id for c in self.checks]
        if len(set(ids)) != len(ids):
            raise DomainError("duplicate check ids in manifest")
        return sorted(self.checks, key=lambda c: c.check_id)


def emit_json(manifest: Manifest) -> str:
    doc = {
        "version": manifest.version,
        "config": manifest.config,
        "checks": [
            {
                "id": c.check_id,
                "anchor": c.anchor,
                "params": c.params,
                "outcome": c.outcome,
                "witness": c.witness,
                "elapsed_ms": round(c.elapsed_ms, 3),
            }
            for c in manifest.sorted_checks()
        ],
        "verdict": manifest.verdict,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fields(obj, what: str, keys: dict) -> list:
    """The values of `keys` in the JSON object `obj`, in order, each an
    instance of the type that `keys` maps it to (object: any value; a bool
    is never a number)."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} is not a JSON object")
    for key, kind in keys.items():
        if key not in obj:
            raise DomainError(f"{what} is missing {key!r}")
        if (kind is not object and isinstance(obj[key], bool)
                or not isinstance(obj[key], kind)):
            raise DomainError(f"{what} {key!r} has the wrong JSON type")
    return [obj[key] for key in keys]


def parse_json(text: str) -> Manifest:
    """Inverse of `emit_json`.  A document that is not an object, lacks a
    key, holds a value of the wrong type, repeats a check id or contradicts
    its verdict raises DomainError."""
    version, config, entries, verdict = _fields(
        json.loads(text), "manifest", {"version": str, "config": dict,
                                       "checks": list, "verdict": object})
    checks = [CheckResult(*_fields(c, "check", {
        "id": str, "anchor": str, "params": dict, "outcome": object,
        "witness": object, "elapsed_ms": (int, float)})) for c in entries]
    m = Manifest(version=version, config=config, checks=checks)
    m.sorted_checks()  # rejects duplicate ids, as emit_json does
    if verdict != m.verdict:
        raise DomainError("stored verdict contradicts check outcomes")
    return m


def emit_text(manifest: Manifest) -> str:
    lines = [f"verification manifest (engine {manifest.version})"]
    for key in sorted(manifest.config):
        lines.append(f"  config {key} = {manifest.config[key]}")
    for c in manifest.sorted_checks():
        lines.append(f"{c.outcome.upper():4s} {c.check_id} "
                     f"[{c.elapsed_ms:.1f} ms]")
        lines.append(f"     {c.anchor}")
    t = manifest.tally
    lines.append(f"verdict: {manifest.verdict} "
                 f"({t['pass']} passed, {t['fail']} failed, "
                 f"{t['skip']} skipped)")
    return "\n".join(lines) + "\n"


def emit_csv(manifest: Manifest) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "outcome", "elapsed_ms", "params", "anchor"])
    for c in manifest.sorted_checks():
        writer.writerow([c.check_id, c.outcome, round(c.elapsed_ms, 3),
                         json.dumps(c.params, sort_keys=True), c.anchor])
    return buf.getvalue()


_TIMING_RE = re.compile(r'("elapsed_ms": )[0-9.eE+-]+')


def strip_timing(json_text: str) -> str:
    """Zero every elapsed_ms so two emissions can be compared exactly."""
    return _TIMING_RE.sub(r"\g<1>0", json_text)


EMITTERS = {"json": emit_json, "text": emit_text, "csv": emit_csv}
