"""One ymspec CLI process, as the benchmark runs it.

    python3 bench/child.py RECORD TRACE RUN_ID COMMAND --config CFG --out DIR
    python3 bench/child.py --probe CFG

The first form runs ``ymspec.cli.main`` on the CLI arguments after
RUN_ID, with the command runner wrapped so that the CLOCK_MONOTONIC times
of entering and leaving it are known; the parent process stamped its spawn
on the same clock.  With TRACE 1 the layer functions are wrapped as well
(see spans.py).  Timestamps and spans go to the JSON file RECORD after
``main`` returns, and the process exits with main's code.

The second form imports the CLI, parses CFG and prints where ymspec was
imported from and the library versions, as one JSON line.  The benchmark
runs it before timing anything, which also fills the bytecode cache.
"""

import json
import sys
import time


def _probe(config_path: str) -> int:
    import platform

    from ymspec import cli

    with open(config_path) as fh:
        cli.parse_config(fh.read())
    print(json.dumps({
        "ymspec_file": cli.__file__,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }))
    return 0


def _run(record_path: str, trace: bool, run_id: str, argv: list) -> int:
    from ymspec import cli

    record = {"run_id": run_id}
    if trace:
        import spans

        tracer = spans.Tracer(run_id)
        tracer.install()
        runner = tracer.wrap(spans.RUNNER, cli._RUNNERS[argv[0]])
    else:
        runner = cli._RUNNERS[argv[0]]

    def timed(config, outdir):
        record["enter_ns"] = time.monotonic_ns()
        try:
            return runner(config, outdir)
        finally:
            record["exit_ns"] = time.monotonic_ns()

    cli._RUNNERS[argv[0]] = timed
    code = cli.main(argv)
    if trace:
        record["spans"] = tracer.spans
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        sys.exit(_probe(sys.argv[2]))
    sys.exit(_run(sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]))
