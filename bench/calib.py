"""Host-speed reference: a fixed pure-Python loop timed next to every case.

The host is shared, and its speed swings by half from one minute to the
next: the same 40 rho-8 searches took 0.083-0.090 s each in one run and
0.051-0.068 s in the next. run.py scales each pass's case times by
REF_NOMINAL_S over the pass's mean reference time, so a timing reads as
seconds on a host where this loop takes REF_NOMINAL_S. The loop is the
benchmark's own code and never calls the package, so no change to the
package can move it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# The loop's time on the benchmark's 2-vCPU host in its fast phases.
REF_NOMINAL_S = 0.0015


def reference_s() -> float:
    """Seconds taken by a fixed mix of integer, tuple, dict, sort and
    Fraction work, like the mix the package's layers run. The garbage
    collector is off meanwhile, so the heap the package leaves behind does
    not add to it."""
    gc.disable()
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(900):
        t = (i, i * i % 97, -i)
        seen[t] = sum(x * x for x in t) % 1009
        acc += seen[t]
    rows = sorted(seen, key=lambda t: (abs(t[1] - 48), t))
    f = Fraction(0)
    for a, b, _ in rows[:120]:
        f += Fraction(a + 1, b + 2)
    acc += f.numerator % 7
    t = time.perf_counter() - t0
    gc.enable()
    return t
