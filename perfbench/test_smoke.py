"""Smoke test of the benchmark itself at reduced size (scan at q = 4).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((ROOT / "perfbench" / "reference.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def run(*args, python_flags=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *python_flags, "perfbench/run.py",
         "--workload", "scan", "--q", "4", "--seed", "3", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_end_to_end_metrics_named_with_units_and_counts():
    code, lines = run("--trace", "0")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 6
    assert units(result["metrics"]) == {m["name"]: m["unit"]
                                        for m in BENCH["end_to_end"]}
    assert json.loads(lines[-2])["detail"]["fail_ratio"] == 0
    for m in BENCH["end_to_end"]:
        row = next(ln for ln in lines if ln.split()[:1] == [m["name"]])
        assert f" {m['unit']} " in row and " n=" in row


def test_per_layer_metrics_named_with_units():
    code, lines = run("--trace", "1")
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"]
    assert units(result["metrics"]) == {m["name"]: m["unit"]
                                        for m in BENCH["per_layer"]}


def copy_bench(dest, with_sources=True):
    """Copy the benchmark, and the program unless told not to, to dest."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def test_planted_wrong_reference_trips_the_gate(tmp_path):
    copy_bench(tmp_path)
    refs = json.loads(json.dumps(REFS))
    refs["scan"]["4"] += 1
    (tmp_path / "perfbench" / "reference.json").write_text(json.dumps(refs))
    code, lines = run("--trace", "0", cwd=tmp_path)
    assert code == 1
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    assert json.loads(lines[-2])["detail"]["fail_ratio"] > 0


def test_refuses_python_O():
    code, lines = run("--trace", "0", python_flags=("-O",))
    assert code == 2 and not lines


def test_fails_without_program_sources(tmp_path):
    copy_bench(tmp_path, with_sources=False)
    code, lines = run("--trace", "0", cwd=tmp_path)
    assert code != 0 and not lines


def test_registry_gate_fails_each_mismatched_check(tmp_path):
    ref = Path(workloads.REGISTRY_MANIFEST).read_text()
    manifest = tmp_path / "manifest.json"

    def gate(text, rc=0):
        manifest.write_text(text)
        return workloads.gate("registry", {}, (rc, None), str(manifest),
                              REFS)[:2]

    assert gate(ref) == (23, 0)
    assert gate(ref, rc=1) == (23, 23)
    doc = json.loads(ref)
    doc["checks"][0]["witness"] = "planted"
    assert gate(json.dumps(doc, indent=2, sort_keys=True) + "\n") == (23, 1)
    assert gate("not json") == (23, 23)


def test_enum_gate_fails_each_mismatched_call():
    def gate(*outs):
        return workloads.gate("enum", {"qs": [8, 9]}, list(outs), "",
                              REFS)[:2]

    assert gate((range(672), None), (range(1080), None)) == (2, 0)
    assert gate((range(671), None), (None, "AssertionError")) == (2, 2)
