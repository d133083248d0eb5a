"""One benchmark sample in a fresh interpreter.

    python3 sample.py SPAWNED_AT probe
    python3 sample.py SPAWNED_AT run   SCENARIO OUT
    python3 sample.py SPAWNED_AT trace SCENARIO OUT

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it started
this process, so `setup_s` covers interpreter start-up plus the import of
`optoutswarm.cli`. `probe` stops there and reports host facts; `run` then
makes the user's call, `cli.main(["run", SCENARIO, "--out", OUT])`; `trace`
makes the same call with every layer wrapped by `spans`. The last line of
standard output is one JSON object.
"""

import json
import os
import resource
import sys
import time


def _host_facts() -> dict:
    import cryptography

    import optoutswarm
    from optoutswarm import pow_backend

    try:
        import optoutswarm._powcore  # noqa: F401

        powcore = True
    except ImportError:
        powcore = False
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "cryptography": cryptography.__version__,
        "pow_backend": pow_backend.BACKEND,
        "powcore_imports": powcore,
        "optoutswarm_file": optoutswarm.__file__,
    }


def main(argv: list[str]) -> int:
    spawned_at, mode = float(argv[0]), argv[1]
    from optoutswarm import cli

    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at}
    if mode == "probe":
        result["host"] = _host_facts()
        print(json.dumps(result))
        return 0

    scenario, out = argv[2], argv[3]
    entry = cli.main
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        entry = spans.install(tracer)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result["exit"] = entry(["run", scenario, "--out", out])
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "trace":
        result["timings"], result["counts"] = spans.report(tracer, result["wall_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
