"""Machine-speed reference for the end-to-end times.

The machines this benchmark runs on are shared: other tenants can slow
every process by half again or more, for seconds to minutes at a time,
and the slowdown shows in wall time and CPU time alike (steal time stays
near zero).  So every timed operation and every import sample is paired
with this fixed stdlib kernel, timed next to it (around each operation;
right after each import), and is rescaled to the kernel's nominal speed:

    scaled = measured * NOMINAL_S / kernel_time

The kernel does the engine's kind of work (``Fraction`` arithmetic in a
Python loop) but shares no code with it, and it runs with the cyclic
garbage collector off, so the engine's heap cannot move it either.

Run as a script, it prints the time to import ``qhopf.cli`` (with
``click``) in that fresh interpreter, then the kernel time.
"""

from __future__ import annotations

import sys
from time import perf_counter

KERNEL_TERMS = 5000
KERNEL_REPEATS = 3      # a median, so that one burst does not skew a pairing
# The kernel's time on an uncontended 2.1 GHz Xeon vCPU (Python 3.11).  It
# only sets the scale: scaled times read as seconds on that machine.
NOMINAL_S = 0.011


def import_sample(env: dict) -> tuple[float, float]:
    """(import seconds, kernel seconds) from a fresh interpreter."""
    import subprocess

    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    imp, ref = out.stdout.split()
    return float(imp), float(ref)


def scaled(seconds: float, kernel: float) -> float:
    return seconds * NOMINAL_S / kernel


def kernel_s() -> float:
    """Median of KERNEL_REPEATS timings of the kernel, in seconds."""
    import gc
    from fractions import Fraction

    times = []
    gc.disable()
    try:
        for _ in range(KERNEL_REPEATS):
            t0 = perf_counter()
            s = Fraction(0)
            for i in range(1, KERNEL_TERMS):
                s += Fraction(1, i % 97 + 1)
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times)[len(times) // 2]


if __name__ == "__main__":
    t0 = perf_counter()
    import qhopf.cli  # noqa: F401  (first, so that it pays for fractions too)
    import_s = perf_counter() - t0
    print(import_s, kernel_s())
