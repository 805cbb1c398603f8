"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SRC_DIR SPEC_JSON

Imports ``uncollapse.cli`` from SRC_DIR and notes the monotonic clock as soon
as the import returns (the parent subtracts its spawn time to get set-up
time).  Then it calls ``uncollapse.cli.main`` once per argv in
SPEC_JSON["commands"], optionally under the tracer, and prints one JSON line
with the results.
"""

import importlib
import sys
import time


def run(cli, spec):
    from tracer import Tracer

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    codes, errors, wall = [], [], 0.0
    try:
        for argv in spec["commands"]:
            start = time.perf_counter()
            try:
                # looked up on the module each time so the traced wrapper is used
                code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed invocation, not a crashed bench
                code, message = 1, f"{type(exc).__name__}: {exc}"
            else:
                message = ""
            wall += time.perf_counter() - start
            codes.append(int(code))
            errors.append(message)
    finally:
        unrestored = tracer.restore() if tracer is not None else 0
    return {
        "wall_s": wall,
        "codes": codes,
        "errors": errors,
        "trace": tracer.summary() if tracer is not None else None,
        "unrestored": unrestored,
    }


def main():
    sys.path.insert(0, sys.argv[1])
    cli = importlib.import_module("uncollapse.cli")
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json
    import resource

    result = run(cli, json.loads(sys.argv[2]))
    result["ready"] = ready
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
