"""A fixed reference load that tracks the machine's speed.

On a shared virtual machine the processor's speed drifts by tens of percent
over seconds and minutes, and a time taken alone measures that drift as much
as the program. The benchmark therefore times this reference, which never
changes and uses nothing from ``sgsolve``, right before and after each
measurement, and reports the measurement scaled to a fixed reference speed:

    scaled = measured * REF_S / reference time around it

A program that gets twice as slow still reads twice as slow; a machine that
gets twice as slow reads the same. The reference mixes what the program
spends its time on: rational elimination over sparse dict rows, set and dict
closures over a graph, and a float loop.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# A round figure near the median time of ``reference`` on the 2-core machine
# the README figures were taken on (8 to 13 ms, depending on its load). It
# only sets the scale: scaled times are seconds on a machine that runs the
# reference in exactly this time.
REF_S = 0.0100

_P = Fraction(3, 5)
_CAP = 120
_RNG = random.Random("sgsolve-bench/reference")
_GRAPH = {i: [_RNG.randrange(400) for _ in range(3)] for i in range(400)}


def _eliminate() -> Fraction:
    """Ruin chain of ``_CAP`` states by Gaussian elimination over dict rows."""
    eq = {}
    for i in range(1, _CAP):
        row = {i: Fraction(1)}
        if i + 1 < _CAP:
            row[i + 1] = -_P
        if i - 1 > 0:
            row[i - 1] = -(1 - _P)
        eq[i] = (row, _P if i + 1 == _CAP else Fraction(0))
    for i in range(1, _CAP):
        row, b = eq[i]
        piv = row.pop(i)
        row = {t: w / piv for t, w in row.items()}
        b /= piv
        eq[i] = (row, b)
        for u in range(i + 1, _CAP):
            ru, bu = eq[u]
            f = ru.pop(i, None)
            if f:
                for t, w in row.items():
                    ru[t] = ru.get(t, Fraction(0)) - f * w
                eq[u] = (ru, bu - f * b)
    x: dict[int, Fraction] = {}
    for i in reversed(range(1, _CAP)):
        row, b = eq[i]
        x[i] = b - sum((w * x[t] for t, w in row.items()), Fraction(0))
    return x[1]


def _closures() -> int:
    """Forward closure from every twelfth node of a fixed random graph."""
    total = 0
    for start in range(0, 400, 12):
        seen, stack = {start}, [start]
        while stack:
            for t in _GRAPH[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        total += len(seen)
    return total


def _floats() -> float:
    v = [0.5] * 400
    for _ in range(60):
        v = [0.25 * v[(i + 1) % 400] + 0.75 * v[i - 1] for i in range(400)]
    return v[0]


def reference() -> float:
    """Run the reference load once; returns its wall time in seconds."""
    start = time.perf_counter()
    _eliminate()
    _closures()
    _floats()
    return time.perf_counter() - start
