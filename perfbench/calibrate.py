"""A fixed probe of how fast the machine runs Python right now.

The benchmark's VM shares its host, and the host slows every process in it,
by up to half, for seconds to minutes at a time, with no steal time to show
for it. The worker therefore runs `probe()` after every request and after
each set-up, and run.py divides each time by how slow the machine ran around
it: the mean time of the probes near it over REFERENCE_S. Times are thus
reported in seconds of a machine on which the probe takes REFERENCE_S,
about what the benchmark's 2-vCPU Xeon VM gives when its host is quiet.

The probe is the benchmark's own code, not skewcodes', so a change to the
program cannot change it. It mixes what the program spends its time on:
small-object arithmetic through operator dunders and table lookups, list
and dict churn, and numpy fancy indexing over int16 tables.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.004  # probe time on a quiet machine; sets the scale only

Q = 7
_ADD = [[(a + b) % Q for b in range(Q)] for a in range(Q)]
_MUL = [[a * b % Q for b in range(Q)] for a in range(Q)]
_INV = {a: next(b for b in range(1, Q) if a * b % Q == 1) for a in range(1, Q)}
_ADD_NP = np.array(_ADD, dtype=np.int16)
_MUL_NP = np.array(_MUL, dtype=np.int16)


class _E:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _E(_ADD[self.v][other.v])

    def __mul__(self, other):
        return _E(_MUL[self.v][other.v])

    def __neg__(self):
        return _E(-self.v % Q)


def _poly_work():
    a = [_E((3 * i + 1) % Q) for i in range(20)]
    b = [_E((5 * i + 2) % Q) for i in range(12)]
    prod = [_E(0) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = prod[i + j] + x * y
    # long division of prod by a monic divisor, as right_divmod does
    div = [_E(v) for v in (1, 3, 0, 5, 1)]
    rem = list(prod)
    quot = {}
    for k in range(len(rem) - len(div), -1, -1):
        c = rem[k + len(div) - 1]
        if c.v:
            quot[k] = c
            for j, d in enumerate(div):
                rem[k + j] = rem[k + j] + -(c * d)
    return sum(e.v for e in rem) + sum(e.v * _INV.get(e.v, 0) for e in quot.values())


def _table_work():
    rows = np.arange(Q, dtype=np.int16)[:, None]
    g = np.array([[(i * j + 1) % Q for j in range(24)] for i in range(6)], dtype=np.int16)
    words = np.zeros((1, 24), dtype=np.int16)
    for r in range(3):
        scaled = _MUL_NP[rows, g[r][None, :]]
        words = _ADD_NP[words[:, None, :], scaled[None, :, :]].reshape(-1, 24)
    return int(np.count_nonzero(np.count_nonzero(words, axis=1) <= 20))


def probe():
    """Seconds one fixed unit of work took.

    The garbage collector is off meanwhile, so that the heap the program
    leaves behind does not lengthen the probe (and so shorten the program's
    corrected times).
    """
    gc.disable()
    start = time.perf_counter()
    total = 0
    for _ in range(12):
        total += _poly_work()
    for _ in range(8):
        total += _table_work()
    elapsed = time.perf_counter() - start
    gc.enable()
    if total != _EXPECTED:
        raise RuntimeError("calibration probe computed a wrong result")
    return elapsed


_EXPECTED = 12 * _poly_work() + 8 * _table_work()
