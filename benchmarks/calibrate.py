"""Reference kernels that measure how fast the machine is running right now.

On a shared virtual machine the speed of a CPU swings by 20-30% within
seconds, so a raw latency says as much about the neighbours as about
fluctuator: the same invocation measured 14-29% apart (interquartile range
over median) from one 20-second run to the next on a 2-core x86-64 VM.
Every latency is therefore normalised: multiplied by REFERENCE_S / c, where
c is the mean time of a reference kernel mix measured just before and just
after it.  The slowdown is not the same for all code, so each workload has
a mix of its own kind of arithmetic (rational DP, numpy convolution sweeps,
40-digit mpmath, number formatting).  The kernels never call fluctuator,
so a change to the program moves the normalised figure by the same factor
as the raw one.  Each mix takes about REFERENCE_S on that VM (Python 3.11,
numpy 2.4), so normalised seconds read close to raw seconds there.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

_LAW = {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}


def _exact(steps: int) -> None:
    """Rational DP of the lazy walk killed at <= 0."""
    mass = {1: Fraction(1)}
    for _ in range(steps):
        out: dict[int, Fraction] = {}
        for v, p in mass.items():
            for u, q in _LAW.items():
                out[v + u] = out.get(v + u, Fraction(0)) + p * q
        mass = {v: p for v, p in out.items() if v >= 1}


def _sweep(steps: int) -> None:
    """Float convolution sweep of a four-atom law."""
    import numpy as np

    kern = np.array([0.5, 0.25, 0.0, 0.25])
    vec = np.ones(1)
    for _ in range(steps):
        vec = np.convolve(vec, kern)


def _mpmath(count: int) -> None:
    """40-digit gamma ratios, as in the a-basis fits."""
    import mpmath as mp

    with mp.workdps(40):
        for n in range(8, 8 + count):
            mp.gamma(mp.mpf(n) - mp.mpf(3) / 2) / mp.gamma(mp.mpf(n + 1))


def _text(count: int) -> None:
    """17-digit decimal formatting of float rows, as in the CSV artifacts."""
    rows = []
    for n in range(1, count):
        x = 1.0 / n
        rows.append(",".join((str(n), f"{x:.17g}", f"{x * x:.17g}", f"{x / 3:.17g}")))
    "\n".join(rows)


# kernel mix per kind, as (kernel, size) pairs of about REFERENCE_S in all
KERNELS = {
    "exact": ((_exact, 70),),
    "sweep": ((_sweep, 3200),),
    "batch": ((_sweep, 2200), (_mpmath, 250), (_text, 3000)),
    "setup": ((_exact, 60), (_text, 3000)),
}
REFERENCE_S = 0.04


class Calibration:
    """Timed samples of one kernel mix; factor(i) normalises what ran
    between sample i and sample i + 1."""

    def __init__(self, kind: str):
        self.kernels = KERNELS[kind]
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the kernel mix once."""
        t0 = perf_counter()
        for kernel, size in self.kernels:
            kernel(size)
        self.samples.append(perf_counter() - t0)

    def factor(self, i: int) -> float:
        return REFERENCE_S / ((self.samples[i] + self.samples[i + 1]) / 2)
