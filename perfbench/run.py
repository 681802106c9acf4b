"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script generates the workload's model
files from the seed, starts ``worker.py`` in fresh processes to set up
and time the program, checks the program's outputs against
``reference.py``, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: with --trace 0 the
end-to-end metrics (setup_s, run_s, peak_rss_mb), with --trace 1 the
per-layer metrics of a traced run. Set-up and operation times are
scaled to the reference speed by the host speed probe (``probe.py``).
Generated inputs, outputs and traces go to perfbench/work/<workload>/.
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
import time

import checks
import gen
import tracer
from probe import probe, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170
SETUP_SAMPLES = 3   # fresh set-up-only processes before and again after the timed worker
BLAS_THREADS = "1"


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def spawn(args: list[str]) -> float:
    """Run the worker; return seconds from spawning it until it printed READY."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return ready


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ephist", "cli.py")):
        print(f"no ephist sources under {ROOT}/src; run from the repository root",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)

    workdir = os.path.join(HERE, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "models"))
    specs = gen.generate(args.workload, args.seed)
    for i, spec in enumerate(specs):
        with open(os.path.join(workdir, "models", f"m{i:04d}.model"), "w", encoding="utf-8") as fh:
            fh.write(spec.text)

    base = ["--workload", args.workload, "--workdir", workdir]
    setup_args = base + ["--mode", "setup"]
    setups = []

    def sample_setups():
        before = probe()
        for _ in range(SETUP_SAMPLES):
            ready = spawn(setup_args)
            after = probe()
            setups.append(scaled(ready, before, after))
            before = after

    if not args.trace:
        spawn(setup_args)   # untimed: compiles bytecode and warms the file cache
        sample_setups()
    spawn(base + ["--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if not args.trace:
        sample_setups()

    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    if not result["times"]:
        print("every timed operation failed", file=sys.stderr)
        return 1
    failures = checks.CHECKS[args.workload](specs, workdir)
    if len(set(result["digests"])) != 1:
        failures.append("reruns in one process gave different outputs")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        with open(os.path.join(workdir, "trace.json"), encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        values = tracer.per_layer(spans, result["traced_ops"])
        merges = 0
        if args.workload == "greedy-search":
            with open(os.path.join(workdir, "out", "greedy.json"), encoding="utf-8") as fh:
                merges = len(json.load(fh)["trace"])
        values["coarsegrain.merges"] = merges
        values["coarsegrain.s_per_merge"] = (
            values["coarsegrain.greedy_merge_functional_s"] / merges if merges else 0.0)
        values["cli.bytes_written"] = result["bytes_written"]
        values["trace.overhead_s"] = (statistics.median(result["traced_times"])
                                      - statistics.median(result["times"]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracer.UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(result["scaled_times"]), "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MiB"},
        }
    shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)
    signal.alarm(0)
    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
