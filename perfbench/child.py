"""One benchmark repetition in a fresh interpreter.

    python3 child.py '<json spec>'

Set-up time is the CPU time (user + system) this process has used when the
workload's fields are built: interpreter start-up, imports and field
construction, as a command-line run pays them.  Set-up runs on one thread,
so this is its wall time less the time it waited for a CPU or for I/O.
The last line of standard output is one JSON object with the measurements.

Modes: `setup` builds the workload's fields and exits; `run` also times the
workload once per part and gates its outputs, optionally traced; `micro`
runs the layer micro-benchmarks.
"""

import json
import sys
import time


def main(spec: dict) -> dict:
    if sys.flags.optimize:
        sys.exit("perfbench child: refusing to run under python -O")
    import workloads  # imports the whole joubert2 package

    t_import = time.process_time()
    workload, params = spec["workload"], spec["params"]
    workloads.setup(workload, params)
    t_setup = time.process_time()

    import os
    import resource

    import numpy
    from joubert2 import ffield

    result = {"import_s": t_import, "setup_s": t_setup,
              "numpy": numpy.__version__, "budget": ffield.DEFAULT_LIMIT}
    if spec["mode"] == "micro":
        import micro
        result["micro"] = {**micro.scalar(spec["seed"]),
                           **micro.vector(spec["seed"]),
                           **micro.span_cost()}
    elif spec["mode"] == "run":
        tracer = None
        if spec["trace"]:
            import tracing
            tracer = tracing.Tracer()
            result["untraced_names"] = tracing.install(tracer)
        out_path = os.path.join(spec["out_dir"],
                                f"manifest-{os.getpid()}.json")
        parts, attempted, failed, notes, facts = {}, 0, 0, [], {}
        for part, threads in spec["parts"].items():
            seconds, out = workloads.run(workload, params, threads, out_path)
            a, f, n, x = workloads.gate(workload, params, out, out_path,
                                        spec["refs"])
            if os.path.exists(out_path):
                os.remove(out_path)
            parts[part] = seconds
            attempted, failed = attempted + a, failed + f
            notes += [f"{part}: {note}" for note in n]
            facts.update(x)
        result.update(parts=parts, attempted=attempted, failed=failed,
                      notes=notes, facts=facts)
        if tracer is not None:
            result["trace"] = tracer.summary()
            spans_path = os.path.join(
                spec["out_dir"], f"spans-{workload}-seed{spec['seed']}.json")
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "parent", "name", "start", "end"],
                           "spans": tracer.spans}, fh)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
