"""Kernel probes on seeded operands: the cost of one ``Scalar`` multiply
per field order and of the rank of a dense 32x32 matrix over Q(zeta_4).

Operands have integer power-basis coefficients drawn from +-1..9, every
coefficient nonzero, so each probe measures a dense kernel.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from qhopf.exactmath import ExactMatrix, Scalar, euler_phi

MUL_ORDERS = (1, 4, 12, 16)
MUL_PAIRS = 200
MUL_REPEATS = 5
RANK_REPEATS = 3


def _scalar(rng: random.Random, order: int) -> Scalar:
    return Scalar(order, [rng.choice((-1, 1)) * rng.randint(1, 9)
                          for _ in range(euler_phi(order))])


def scalar_mul_us(rng: random.Random, order: int) -> float:
    """Median over repeats of the mean time of one multiply, in µs."""
    pairs = [(_scalar(rng, order), _scalar(rng, order)) for _ in range(MUL_PAIRS)]
    times = []
    for _ in range(MUL_REPEATS):
        t0 = perf_counter()
        for a, b in pairs:
            a * b
        times.append((perf_counter() - t0) / MUL_PAIRS * 1e6)
    return statistics.median(times)


def rank32_s(rng: random.Random) -> float:
    """Median over repeats of one dense 32x32 rank over Q(zeta_4), in s."""
    m = ExactMatrix(32, 32, 4, [[_scalar(rng, 4) for _ in range(32)] for _ in range(32)])
    times = []
    for _ in range(RANK_REPEATS):
        t0 = perf_counter()
        m.rank()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run(seed: int) -> dict[str, float]:
    rng = random.Random(f"probes:{seed}")
    out = {f"exactmath.probe.scalar_mul_us.o{m}": scalar_mul_us(rng, m) for m in MUL_ORDERS}
    out["exactmath.probe.rank32_s.o4"] = rank32_s(rng)
    return out
