"""Peak memory of one ephist command, measured from outside it.

Usage (from the repository root, with ephist importable):

    PYTHONPATH=src python3 scripts/cap_rss.py decohere --model M --out DIR

Starts `python -m ephist ARGS` with os.posix_spawn, takes its exit status
and peak resident set (ru_maxrss) from os.wait4, and prints one JSON line
(the command's own output goes to stderr):
the status, the wall time, the peak in MiB and the sha256 of every file
in --out. A child started with vfork semantics reports at least its
parent's peak, so this driver imports no numpy and stays far below it.
"""
import hashlib
import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    out = argv[argv.index("--out") + 1] if "--out" in argv else "out"
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "ephist", *argv], os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])   # its stdout to stderr
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    digests = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    print(json.dumps({"status": os.waitstatus_to_exitcode(status), "wall_s": round(wall, 3),
                      "peak_rss_mib": usage.ru_maxrss / 1024, "sha256": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
