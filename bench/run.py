"""ymspec benchmark: one workload, run as a closed loop of CLI processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates the workload's JSON
config (see workloads.py).  One client runs one fresh CLI process at a
time, each starting after the previous one has exited, until S seconds
have been spent (at least three processes).  BLAS threads are pinned
through YMSPEC_THREADS to min(2, nproc) for every process.  Every
process's exit code and outputs are checked.

With --trace 0 the end-to-end metrics are the medians over the processes
of the run.  With --trace 1 traced and untraced processes alternate; the
per-layer metrics are medians over the traced ones (see spans.py), and
the untraced ones give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers by name with unit and sample count, the failure
rate, and the environment.  The benchmark exits with code 2, printing no
result, when the ymspec sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_run")

import spans
from workloads import WORKLOADS

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PROCESSES = 3
# the whole run, set-up included, has to end within 180 s
RUN_LIMIT_S = 165.0


@dataclass
class Sample:
    traced: bool
    setup_s: float
    solve_s: float
    wall_s: float
    peak_rss_mb: float
    problems: list
    spans: list | None


def _child_env(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["YMSPEC_THREADS"] = str(threads)
    env["PYTHONPATH"] = SRC
    return env


def _spawn(argv: list, env: dict, log_path: str, timeout: float):
    """Run argv to completion; (spawn_ns, end_ns, exit_code, rusage)."""
    with open(log_path, "w") as log:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return spawn_ns, end_ns, proc.returncode, usage


def _tail(path: str) -> str:
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def _probe(config_path: str, env: dict, workdir: str) -> dict | None:
    """Import the CLI from the checkout once, untimed; None if it fails."""
    log = os.path.join(workdir, "probe.log")
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--probe",
            config_path]
    _, _, code, _ = _spawn(argv, env, log, timeout=60)
    if code != 0:
        return None
    info = json.loads(_tail(log))
    if not os.path.abspath(info["ymspec_file"]).startswith(SRC + os.sep):
        return None
    return info


def _run_process(workload, config, config_path, workdir, index, traced,
                 env, timeout) -> Sample:
    outdir = os.path.join(workdir, f"out{index}")
    record_path = os.path.join(workdir, f"record{index}.json")
    log = os.path.join(workdir, f"log{index}.txt")
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), record_path,
            "1" if traced else "0", f"{workload.name}/{index}",
            workload.command, "--config", config_path, "--out", outdir]
    spawn_ns, end_ns, code, usage = _spawn(argv, env, log, timeout)
    sample = Sample(traced, 0.0, 0.0, (end_ns - spawn_ns) * 1e-9,
                    usage.ru_maxrss / 1024.0, [], None)
    if code != 0:
        sample.problems.append(f"exit code {code}: {_tail(log)}")
        return sample
    try:
        with open(record_path) as fh:
            record = json.load(fh)
        sample.setup_s = (record["enter_ns"] - spawn_ns) * 1e-9
        sample.solve_s = (record["exit_ns"] - record["enter_ns"]) * 1e-9
        sample.spans = record.get("spans")
        sample.problems += workload.check(config, outdir)
    except (OSError, KeyError, ValueError) as exc:
        sample.problems.append(f"unreadable output: {exc!r}")
    return sample


def _describe(name: str, values: list, unit: str) -> str:
    return (f"  {name:<13} {statistics.median(values):.6g} {unit}  "
            f"(median of {len(values)}; min {min(values):.6g}, "
            f"max {max(values):.6g})")


def _end_to_end(samples: list) -> tuple[dict, list]:
    metrics, lines = {}, []
    good = [s for s in samples if not s.problems]
    for name, unit in END_TO_END_UNITS.items():
        values = [getattr(s, name) for s in good]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(_describe(name, values, unit))
    return metrics, lines


def _per_layer(samples: list) -> tuple[dict, list]:
    traced = [s for s in samples if s.traced and not s.problems]
    plain = [s for s in samples if not s.traced and not s.problems]
    if not traced or not plain:
        return {}, []
    values = spans.median_metrics([spans.layer_metrics(s.spans) for s in traced])
    values["bench.trace_overhead_frac"] = (
        statistics.median(s.solve_s for s in traced)
        / statistics.median(s.solve_s for s in plain) - 1.0
    )
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spans.PER_LAYER_UNITS.items()}
    lines = [f"  {name:<44} {values[name]:.6g} {unit}"
             for name, unit in spans.PER_LAYER_UNITS.items()]
    lines.insert(0, f"  per-layer values are medians over {len(traced)} traced "
                    f"processes; {len(plain)} untraced for the overhead")
    return metrics, lines


def _write_trace(samples: list, path: str):
    with open(path, "w") as fh:
        json.dump([span for s in samples if s.spans for span in s.spans], fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps the CLI process it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "ymspec", "cli.py")):
        print(f"no ymspec sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc)
    env = _child_env(threads)

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        config = workload.config(args.seed % 2**32)
        config_path = os.path.join(workdir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh, indent=1)
        info = _probe(config_path, env, workdir)
        if info is None:
            print(f"ymspec does not import from {SRC}; see "
                  f"{os.path.join(workdir, 'probe.log')}", file=sys.stderr)
            return 2

        samples = []
        loop_start = time.monotonic()
        while True:
            n = len(samples)
            loop_s = time.monotonic() - loop_start
            mean_s = loop_s / n if n else 0.0
            if n >= MIN_PROCESSES and loop_s + 0.5 * mean_s >= args.seconds:
                break
            left = RUN_LIMIT_S - (time.monotonic() - start)
            if n and left < 1.5 * mean_s:
                break
            traced = bool(args.trace) and n % 2 == 0
            samples.append(_run_process(workload, config, config_path,
                                        workdir, n, traced, env, left))
        loop_s = time.monotonic() - loop_start
        if args.trace:
            _write_trace(samples, os.path.join(
                WORK_DIR, f"trace-{workload.name}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for s in samples if s.problems)
    metrics, lines = (_per_layer if args.trace else _end_to_end)(samples)
    print(f"workload {workload.name}: {workload.command}, {workload.size}; "
          f"seed {args.seed}, trace {args.trace}")
    print(f"closed loop: 1 client, {len(samples)} CLI processes one at a "
          f"time in {loop_s:.1f} s, YMSPEC_THREADS={threads}")
    for line in lines:
        print(line)
    print(f"  fail_rate     {failed / len(samples):.6g}  ({failed} of "
          f"{len(samples)} runs failed)")
    for s in samples:
        for problem in s.problems:
            print(f"  FAILED: {problem}")
    env_record = {"nproc": nproc, "threads": threads,
                  "python": info["python"], "numpy": info["numpy"],
                  "scipy": info["scipy"], "src_lines": _src_lines()}
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
