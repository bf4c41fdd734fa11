"""Benchmark of the joubert2 verification engine.

    python3 perfbench/run.py --workload {registry,scan,enum} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
`src/` and nothing is installed.  One generator process drives a closed
loop with one client: each repetition is a fresh child interpreter started
after the previous one exited.  With `--trace 0` it times set-up probes and
then whole repetitions until S seconds have passed (at least one), checks
every output against its gate and reports the end-to-end metrics.  With
`--trace 1` it runs the layer micro-benchmarks, one untraced and one traced
repetition, and reports the per-layer metrics and the tracing overhead (the
measured cost of one span times the number of spans).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric with its unit and sample count, the detail figures and the
machine.  The exit code is 0 when every output passed its gate, 1 when one
did not, and 2 when the benchmark could not run.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170

WORKLOADS = ("registry", "scan", "enum")
# each workload's timed parts and the thread count of each
PARTS = {"registry": {"wall_s": 1},
         "scan": {"wall_s": 2, "wall_t1_s": 1},
         "enum": {"wall_s": 1}}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("JOUBERT2_BUDGET", "PYTHONOPTIMIZE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy's own thread pools stay at one thread; run_chunked's workers
    # are the only parallelism, at most two threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['mode']} child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or (None, None) with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None, None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def calibration_ms() -> float:
    """Median ms of a fixed pure-Python loop, outside the program: a gauge
    of the host's speed at that moment, for comparing runs made apart."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def machine(seed: int, child: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": child["numpy"],
            "budget": child["budget"]}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            params: dict, refs: dict) -> tuple[dict, dict, dict]:
    """Run one benchmark; returns (result line, samples, detail)."""
    env = child_env()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    base = {"workload": workload, "params": params, "seed": seed,
            "refs": refs, "out_dir": str(out_dir), "trace": False}
    attempted = failed = 0
    notes: list[str] = []

    def probes():
        return [run_child(dict(base, mode="setup"), env)
                for _ in range(SETUP_PROBES // 2)]

    def repetition(parts, traced=False):
        nonlocal attempted, failed
        res = run_child(dict(base, mode="run", parts=parts, trace=traced),
                        env)
        attempted += res["attempted"]
        failed += res["failed"]
        notes.extend(res["notes"])
        return res

    calib = [calibration_ms()]
    # first import compiles the sources; users pay that once, not per run
    run_child(dict(base, mode="setup"), env)
    start = time.monotonic()
    # half the set-up probes run before the repetitions and half after, so
    # that their median spans the run rather than one moment of it
    before = probes()
    if not trace:
        reps = []
        while not reps or time.monotonic() - start < seconds:
            reps.append(repetition(PARTS[workload]))
        children = before + probes() + reps
        samples = {part: [r["parts"][part] for r in reps]
                   for part in PARTS[workload]}
        # registry and enum run at one thread: their wall_s is wall_t1_s
        samples.setdefault("wall_t1_s", samples["wall_s"])
        samples["setup_s"] = [c["setup_s"] for c in children]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in reps]
        units = metric_units("end_to_end")
        detail = {}
        for r in reps:
            for key, val in r["facts"].items():
                detail.setdefault(key, []).append(val)
        detail = {key: statistics.median(vals) for key, vals in detail.items()}
    else:
        micro = run_child(dict(base, mode="micro"), env)["micro"]
        parts = {"wall_s": PARTS[workload]["wall_s"]}
        plain = repetition(parts)
        traced = repetition(parts, traced=True)
        children = before + probes()
        summary = traced["trace"]
        samples = {name: [val] for name, val in micro.items()}
        samples["setup.import_s"] = [c["import_s"] for c in children]
        # one traced/untraced pair differs by host drift as much as by the
        # spans, so the overhead is the per-span cost times the span count
        samples["trace.overhead_s"] = [micro["trace.span_ns"] * 1e-9
                                       * summary["trace.spans"]]
        samples["trace.traced_wall_s"] = [traced["parts"]["wall_s"]]
        for name in ("jsearch.self_s", "fpoly.self_s", "trace.spans"):
            samples[name] = [summary[name]]
        units = metric_units("per_layer")
        detail = {**plain["facts"], **summary,
                  "trace.span_ns": micro["trace.span_ns"],
                  "trace.untraced_wall_s": plain["parts"]["wall_s"],
                  "trace.wall_diff_s": (traced["parts"]["wall_s"]
                                        - plain["parts"]["wall_s"])}
        notes += [f"traced name not found: {n}"
                  for n in traced["untraced_names"]]

    detail["fail_ratio"] = failed / attempted
    detail["machine"] = machine(seed, children[0])
    detail["machine"]["calibration_ms"] = calib + [calibration_ms()]
    detail["notes"] = notes
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": statistics.median(samples[name]),
                               "unit": unit}
                        for name, unit in units.items()}}
    return line, samples, detail


def report(workload: str, line: dict, samples: dict, detail: dict) -> None:
    print(f"perfbench {workload}: {line['attempted']} units attempted, "
          f"{line['failed']} failed, fail_ratio {detail['fail_ratio']:.4f} "
          f"(units: {'checks' if workload == 'registry' else 'calls'})")
    for note in detail["notes"]:
        print(f"  gate: {note}")
    for name, metric in line["metrics"].items():
        vals = samples[name]
        pct, hi = tail(vals)
        hi_text = (f"p{pct:.0f} {hi:.6g}" if pct is not None
                   else "tail n/a (< 11 samples)")
        print(f"  {name:40s} median {metric['value']:.6g} {metric['unit']}"
              f"  {hi_text}  n={len(vals)}")
    print(json.dumps({"detail": detail}, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--q", type=int, default=None,
                    help="scan field size; a smaller q gives the smoke-size "
                         "run (default 16)")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        # verification in src/ is assert-based: -O would time a program
        # with its checks stripped
        print("perfbench: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "joubert2" / "__init__.py").is_file():
        print(f"perfbench: no joubert2 sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    params = {"registry": {}, "scan": {"q": 16},
              "enum": {"qs": [8, 9]}}[args.workload]
    if args.q is not None:
        if args.workload != "scan":
            ap.error("--q applies to the scan workload only")
        params = {"q": args.q}
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    try:
        line, samples, detail = measure(args.workload, args.seed,
                                        args.seconds, bool(args.trace),
                                        params, refs)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    report(args.workload, line, samples, detail)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
