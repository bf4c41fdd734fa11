"""The three benchmark workloads: what each builds in set-up, what its timed
part runs, and the gate its outputs must pass.

A unit is one output compared against its gate: a check of the registry, or
one library call for `scan` and `enum`.  An exception raised by the program
inside a timed call fails that unit; it never ends the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import joubert2.cli  # noqa: F401  the CLI entry point loads every module
from joubert2 import ascurve, cli, cubic, jsearch, report
from joubert2.ffield import make_ext, make_field

# every (p, m) field and (p, k, n) extension the 23-check registry builds,
# and the q = 2^k whose vector scan tables it uses
REGISTRY_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 10),
                   (2, 12), (2, 15), (2, 18), (2, 24), (3, 5), (3, 10),
                   (5, 4), (5, 5), (5, 6), (7, 2)]
REGISTRY_EXTS = [(2, 1, 5), (2, 1, 6), (2, 1, 12), (2, 2, 5), (2, 2, 6),
                 (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 1, 5), (3, 2, 5),
                 (5, 1, 4), (5, 1, 5), (5, 1, 6), (7, 1, 2)]
REGISTRY_SCAN_DEGS = [1, 2, 3, 4]
# the strip_timing verify-all manifest every registry run must reproduce
REGISTRY_MANIFEST = os.path.join(os.path.dirname(__file__),
                                 "registry_manifest.json")


def setup(workload: str, params: dict) -> None:
    """Build every field, extension and table the workload uses."""
    if workload == "registry":
        for p, m in REGISTRY_FIELDS:
            make_field(p, m)
        for p, k, n in REGISTRY_EXTS:
            make_ext(p, k, n)
        make_field(2, 1).build_tables()
        for k in REGISTRY_SCAN_DEGS:
            jsearch._ext_scan(2, k, 6)
    elif workload == "scan":
        k = params["q"].bit_length() - 1
        make_ext(2, k, 6)
        jsearch._ext_scan(2, k, 6)
    else:
        for q in params["qs"]:
            p, k = jsearch._split_prime_power(q)
            make_field(p, k).build_tables()


def _call(fn, *args, **kwargs):
    """(result, error text) of one program call; the error fails its unit."""
    try:
        return fn(*args, **kwargs), None
    except Exception as e:  # boundary: any program error is a failed unit
        return None, f"{type(e).__name__}: {e}"


def run(workload: str, params: dict, threads: int, out_path: str):
    """Run the timed part once; returns (seconds, raw outputs)."""
    t0 = time.perf_counter()
    if workload == "registry":
        with contextlib.redirect_stdout(io.StringIO()):
            out = _call(cli.main, ["verify-all", "--format", "json",
                                   "--threads", str(threads),
                                   "--out", out_path])
    elif workload == "scan":
        q = params["q"]
        out = [_call(jsearch.count_joubert_generators, q, threads=threads),
               _call(ascurve.curve_census, q, threads=threads),
               _call(cubic.surface_census, q, threads=threads)]
    else:
        out = [_call(jsearch.enumerate_joubert_polys, q)
               for q in params["qs"]]
    return time.perf_counter() - t0, out


def gate(workload: str, params: dict, out, out_path: str, refs: dict):
    """Compare outputs with their gates: (attempted, failed, notes, facts).

    `facts` are figures read off the outputs: the per-check times of the
    manifest and the useful/attempted ratios.
    """
    if workload == "registry":
        return _gate_registry(out, out_path)
    if workload == "scan":
        return _gate_scan(params["q"], out, refs["scan"])
    return _gate_enum(params["qs"], out, refs["enum"])


def _gate_registry(out, out_path):
    rc, err = out
    notes = [] if err is None else [err]
    with open(REGISTRY_MANIFEST, encoding="utf-8") as fh:
        ref_text = fh.read()
    ref = {c["id"]: c for c in json.loads(ref_text)["checks"]}
    try:
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        got_doc = json.loads(text)
        stripped = report.strip_timing(text)
        got = {c["id"]: c for c in json.loads(stripped)["checks"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        notes.append(f"no readable manifest: {type(e).__name__}: {e}")
        return len(ref), len(ref), notes, {}
    elapsed = {f"checks.{c['id']}.s": c["elapsed_ms"] / 1000
               for c in got_doc["checks"]}
    bad = {cid for cid in ref.keys() | got.keys()
           if ref.get(cid) != got.get(cid)
           or got[cid]["outcome"] != "pass"}
    notes += [f"check {cid} differs from the reference" for cid in sorted(bad)]
    if stripped != ref_text and not bad:
        # the manifest differs outside its checks: no check can be trusted
        bad = set(got)
        notes.append("manifest header differs from the reference")
    if rc != 0:
        notes.append(f"verify-all exit code {rc}")
        bad = bad or set(got)
    return len(ref.keys() | got.keys()), len(bad), notes, elapsed


def _gate_scan(q, out, refs):
    (count_rep, e1), (curve, e2), (surface, e3) = out
    count = count_rep.count if count_rep is not None else None
    expected = refs.get(str(q))
    checks = [
        ("count_joubert_generators", e1,
         expected is not None and count == expected,
         f"count {count} != reference {expected}"),
        ("curve_census", e2,
         curve is not None and count is not None
         and curve.good_points == q * q * count,
         "good_points != q^2 * count"),
        ("surface_census", e3,
         surface is not None and count is not None
         and surface.generator_points * (q * q - q) == count,
         "generator_points * (q^2 - q) != count"),
    ]
    notes = [f"{name}: {err or why}" for name, err, ok, why in checks
             if not ok]
    facts = {}
    if count is not None:
        facts["jsearch.count.kept_ratio"] = count / q**6
    return len(checks), len(notes), notes, facts


def _gate_enum(qs, out, refs):
    notes = []
    total = kept = 0
    for q, (polys, err) in zip(qs, out):
        ref = refs.get(str(q), {})
        if err is not None:
            notes.append(f"enumerate_joubert_polys({q}): {err}")
            continue
        n = len(polys)
        total += q**4
        kept += n
        if n != ref.get("polys"):
            notes.append(f"q = {q}: {n} polys != reference {ref.get('polys')}")
        elif 6 * n % (q * q - q):
            notes.append(f"q = {q}: 6 * {n} is not divisible by q^2 - q")
        elif "joubert_generators" in ref and 6 * n != ref["joubert_generators"]:
            notes.append(f"q = {q}: 6 * {n} != count_joubert_generators = "
                         f"{ref['joubert_generators']}")
    facts = {"jsearch.enum.irreducible_ratio": kept / total} if total else {}
    return len(qs), len(notes), notes, facts
