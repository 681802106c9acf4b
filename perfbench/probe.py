"""Host speed probe: a fixed piece of the benchmark's own work, timed.

The 2-vCPU host this benchmark was tuned on changes the speed of each
vCPU by up to 1.7x in phases of 5-30 s, with CPU time equal to wall
time (the process is not descheduled; its vCPU just runs slower). A
run's raw median then says more about the phase it fell in than about
the program. The workers therefore run ``probe`` right before and right
after every timed step, and ``scaled`` turns a step's wall time into
seconds at the reference speed: the step's time divided by the mean of
its two neighbouring probes, times ``REFERENCE_S``.

The probe mixes what the program spends its time on: an interpreted
loop, allocation-heavy float formatting and parsing, ``eigh`` and
matmuls of 8x8 complex matrices (the sweep's size), and matmuls of 32x32
ones (the record set's size).
It never calls ``ephist``, so a change to the program cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

# The probe's typical duration on the reference machine (2-vCPU Intel Xeon
# at 2.0 GHz, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread). It only sets
# the scale: scaled times read as wall seconds on that machine at its usual speed.
REFERENCE_S = 0.33

_A = (np.arange(64).reshape(8, 8) % 5 - 2.0) * (0.1 + 0.05j)
_H = _A + _A.conj().T
_B = (np.arange(1024).reshape(32, 32) % 7 - 3.0) * (0.01 + 0.02j)
_TABLE = (np.linspace(-1.0, 1.0, 20_000) * (0.3 + 0.7j)).reshape(40, 500).tolist()


def probe() -> float:
    """Run the fixed probe work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    # A 20 000-cell complex CSV written and a quarter of it read back: the
    # allocation-heavy string work of the CLI's artifacts and model parsing.
    text = "\n".join(",".join(f"{z.real!r}{z.imag:+}i" for z in row) for row in _TABLE)
    cells = text.replace("\n", ",").split(",")[::4]
    np.array([complex(c.replace("i", "j")) for c in cells]).real.sum()
    a = np.eye(8, dtype=complex)
    for _ in range(1_500):
        a = a @ _A * 0.5 + np.eye(8)
        np.linalg.eigh(_H + a.real)
    b = np.eye(32, dtype=complex)
    for _ in range(3_000):
        b = b @ _B + np.eye(32)
    return time.perf_counter() - t0


def scaled(step_s: float, before_s: float, after_s: float) -> float:
    """``step_s`` in seconds at the reference speed, from the probes around it."""
    return step_s * REFERENCE_S / ((before_s + after_s) / 2.0)
