#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-small --seed 1 \\
        --seconds 45 --trace 0

``--trace 0`` measures and prints every end-to-end metric declared in
``BENCHMARK.json``; ``--trace 1`` is the separate traced run that
prints every per-layer metric (a layer the workload does not exercise
reads 0) and writes its spans to ``perfbench/out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
host fingerprint and the per-phase attempted / succeeded / failed
table.  The program is imported from ``src/`` of the same checkout;
without it the command exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: Fresh-process set-ups per run, besides the run's own.
SETUP_PROBES = 4
#: Reported in place of a percentile that falls on missed requests.
MISSED = 1e9
#: Seconds the resource tracker gets to exit before it is killed.
TRACKER_EXIT_S = 10.0


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path, or exit."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {SRC}/repro; run it "
                         "from the root of a full checkout")
    sys.path[:0] = [SRC, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {SRC}")


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def fingerprint() -> dict:
    import numpy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def setup_probe(workload: str) -> float:
    """Set-up seconds of one fresh process building ``workload``."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_probe(workload: str) -> None:
    from perfbench.workloads import make_target
    target = make_target(workload)
    try:
        setup_s = target.start()
    finally:
        target.stop()
    print(json.dumps({"setup_s": setup_s}))


def run(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench.tracing import SpanRecorder
    from perfbench.workloads import run_iss, run_serving
    samples = [] if trace else [setup_probe(workload)
                                for _ in range(SETUP_PROBES)]
    recorder = SpanRecorder() if trace else None
    if workload == "iss-suite":
        result = run_iss(seed, seconds, samples, trace, recorder)
    else:
        result = run_serving(seed, seconds, samples, trace, recorder)
    if recorder is not None:
        recorder.write(os.path.join(
            OUT, f"trace-{workload}-seed{seed}.json"))
    return result


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this run started one,
    and wait until it has ended.

    The cluster's spawned workers and shared memory start the tracker as
    a child of this process.  Left alone it ends only when it reads EOF
    on its pipe, which happens after this process has exited, so it
    would outlive the run.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + TRACKER_EXIT_S
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:
        pass


def phase_rows(phases) -> list:
    from perfbench.workloads import LIMIT_S
    return [p if isinstance(p, dict) else p.summary(LIMIT_S)
            for p in phases]


def report(spec: dict, trace: bool, metrics: dict, rows: list,
           failed: int, gates: dict) -> dict:
    section = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in section}
    extra = sorted(set(metrics) - set(names))
    if extra:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: "
                           f"{extra}")
    missing = sorted(set(names) - set(metrics))
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    out = {}
    for name, unit in names.items():
        value = float(metrics.get(name, 0.0))
        out[name] = {"value": value if math.isfinite(value) else MISSED,
                     "unit": unit}
    attempted = sum(row["attempted"] for row in rows)
    return {"correct": failed == 0 and all(gates.values()),
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    from perfbench.workloads import WORKLOAD_NAMES
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOAD_NAMES)}")
    if args.setup_probe:
        run_probe(args.workload)
        return 0
    spec = declared()
    trace = bool(args.trace)
    try:
        metrics, phases, failed, gates = run(args.workload, args.seed,
                                             args.seconds, trace)
    finally:
        gc.collect()
        stop_resource_tracker()
    rows = phase_rows(phases)
    host = fingerprint()
    result = report(spec, trace, metrics, rows, failed, gates)
    for row in rows:
        print("phase " + json.dumps(row))
    print("gates " + json.dumps(gates))
    print("host " + json.dumps(host))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "host": host, "gates": gates,
                   "phases": rows, "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
