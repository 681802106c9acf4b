"""One workload in a fresh process: set up, then time the operation.

Usage (from the repository root; run.py starts it):

    python3 perfbench/worker.py --workload W --workdir DIR --mode setup|run
                                --seconds S --trace 0|1

The worker imports ``ephist`` from ``src/`` and loads the workload's
model files, then prints ``READY`` on stdout; the parent's clock from
spawning the process to that line is the set-up time. In ``setup`` mode
it exits there. In ``run`` mode it runs the operation once untimed
(warm-up), then repeats it for S seconds; every repeat must reproduce
the warm-up's outputs byte for byte. Untraced, the host speed probe
runs before the first repeat and after each one, and every repeat's
time is also kept scaled to the reference speed (see ``probe.py``).
With --trace 1 it alternates untraced and traced repeats instead. It
writes ``result.json`` (and ``trace.json`` when traced) into DIR.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from gen import sweep_partition
from probe import probe, scaled

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

CLI_COMMANDS = {
    "decohere-large": "decohere",
    "greedy-search": "coarsen",
    "records-settle": "records",
}


def sweep_op(ep, texts):
    """parse -> build -> functional -> coarse functional per model, then the
    product rule on consecutive pairs. Returns the arrays run.py checks."""
    ep_out, dec_out, coarse_dec_out, joint_out, built = [], [], [], [], []
    for text in texts:
        doc = ep.parse_model(text)
        psi = ep.build_state(doc)
        hs = ep.build_history_set(doc)
        rep = ep.decoherence_functional(hs, psi)
        part = ep.Partition(hs.size, sweep_partition(hs.size))
        coarse = ep.coarse_decoherence_functional(rep.functional, part)
        ep_out.append(rep.ep_probs)
        dec_out.append(rep.dec)
        coarse_dec_out.append(ep.dec_measure(coarse))
        built.append((psi, hs))
    for a in range(0, len(built) - 1, 2):
        rule = ep.product_rule_report(ep.CompositeSystem((built[a], built[a + 1])))
        joint_out.append(rule.joint_ep)
    return ep_out, dec_out, coarse_dec_out, joint_out


def digest_sweep(outputs) -> str:
    h = hashlib.sha256()
    ep_out, dec_out, coarse_dec_out, joint_out = outputs
    for arr in ep_out + joint_out:
        h.update(arr.tobytes())
    h.update(repr((dec_out, coarse_dec_out)).encode())
    return h.hexdigest()


def digest_dir(path: str) -> tuple[str, int]:
    """Hash of every artifact, read in chunks so the worker's peak RSS stays the program's."""
    h, size = hashlib.sha256(), 0
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                size += len(chunk)
    return h.hexdigest(), size


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import ephist
    import ephist.cli

    model_paths = sorted(glob.glob(os.path.join(args.workdir, "models", "*.model")))
    if args.workload == "model-sweep":
        texts = []
        for path in model_paths:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
    else:
        ephist.load_model(model_paths[0])
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0

    out_dir = os.path.join(args.workdir, "out")
    if args.workload == "model-sweep":
        def op():
            return sweep_op(ephist, texts)
    else:
        argv = [CLI_COMMANDS[args.workload], "--model", model_paths[0], "--out", out_dir]

        def op():
            return ephist.cli.run_command(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    result = {"times": [], "scaled_times": [], "traced_times": [], "traced_ops": [],
              "digests": [], "bytes_written": 0, "attempted": 0, "failed": 0}

    def attempt(index: int, traced: bool):
        if traced:
            tracer.op = index
            tracer.install()
        try:
            t0 = time.perf_counter()
            value = op()
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        result["attempted"] += 1
        if args.workload == "model-sweep":
            digest = digest_sweep(value)
            if index == 0:
                ep_out, dec_out, coarse_dec_out, joint_out = value
                np.savez(os.path.join(args.workdir, "sweep_outputs.npz"),
                         ep=np.concatenate(ep_out), dec=np.array(dec_out),
                         coarse_dec=np.array(coarse_dec_out),
                         joint=np.concatenate(joint_out))
        else:
            if value != 0:
                result["failed"] += 1
                return None
            digest, result["bytes_written"] = digest_dir(out_dir)
        result["digests"].append(digest)
        return elapsed

    # run_command prints a summary line per call; keep stdout for READY only.
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        attempt(0, traced=False)   # warm-up, untimed
        # Peak of one operation, as a CLI user sees it: later repeats in the
        # same process only add allocator growth, which varies with their count.
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        index = 1
        before = None if tracer else probe()
        while True:
            traced = bool(tracer) and len(result["traced_times"]) < len(result["times"])
            elapsed = attempt(index, traced)
            after = None if tracer else probe()
            if elapsed is not None:
                if traced:
                    result["traced_times"].append(elapsed)
                    result["traced_ops"].append(index)
                else:
                    result["times"].append(elapsed)
                    if not tracer:
                        result["scaled_times"].append(scaled(elapsed, before, after))
            before = after
            index += 1
            if time.perf_counter() - start >= args.seconds and (
                    not tracer or result["traced_times"] or result["failed"]):
                break

    if tracer:
        tracer.dump(os.path.join(args.workdir, "trace.json"))
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
