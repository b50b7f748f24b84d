"""Host-speed probe: a fixed amount of work that does not touch transdist.

On a shared 2-vCPU cloud VM the same code runs up to 2x slower in phases
lasting from 5 seconds to over a minute, as other tenants contend for the
core, caches and memory bandwidth.  A phase can cover a whole run, so no
statistic over one run's raw timings is steady there.  The probe's
instruction mix follows the library's: integer and Fraction arithmetic,
small-object allocation and pointer chasing (expression trees), and numpy
ufuncs on 4096-element and tiny arrays (quadrature and lattice passes).
Timed right before and right after an operation, it slows down with the
operation, and

    normalized seconds = wall seconds * REFERENCE_S / probe seconds

is the operation's time on a host where one probe takes ``REFERENCE_S``.
Since the probe never calls the library, a change to transdist moves the
normalized time by the same factor as the wall time.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# One probe in a fast phase of that VM (Python 3.11, numpy 2.4); reported
# seconds are seconds on a host this fast.
REFERENCE_S = 0.01

_X = np.linspace(-1.0, 1.0, 4096)
_V = np.arange(8.0)


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


def _work() -> int:
    total = 0
    for i in range(40_000):
        total += i * i
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    nodes = [_Node(None, None)]
    for i in range(8_000):
        nodes.append(_Node(nodes[i // 2], nodes[i // 3]))
    total += sum(1 for n in nodes if n.left is not None)
    grid = np.zeros(4096)
    for i in range(16):
        u = _X * (i / 16.0)
        grid = grid + np.exp(-1.0 / np.where(np.abs(u) < 1.0, 1.0 - u * u, 1.0)) * np.sin(u)
    for i in range(800):
        total += int((_V * i + 1.0) @ _V)
    return total + int(grid.sum()) + acc.numerator % 7


def probe() -> float:
    """Seconds one fixed unit of library-independent work takes right now."""
    start = perf_counter()
    _work()
    return perf_counter() - start
