"""Host speed probes.

The host's speed drifts by 20% to 40% over tens of seconds, and CPU time
tracks wall time.  So the benchmark times this fixed pure-Python
int/Fraction loop at the start of a run and after every job, in the parent
process between its children, and `normalized` rescales a run's wall times
to a host on which the probe takes REFERENCE_S.  The probe runs no g2cert code, so no change to g2cert can
move it.

The probe reacts more to host load than g2cert does.  In paired timings
over three minutes on a 2-core Xeon guest, a 10% slower probe went with
about a 6.5% slower g2cert job (correlation 0.78 of the logarithms).
Scaling by the square root of the probe ratio corrects a little less than
that.

The probe does not track process start, so setup_s's cold import is scaled
by a bare interpreter start (`python -c pass`) timed just before it:
the import takes REFERENCE_START_S times that ratio.  On a 2-core Xeon
guest, in 20 blocks of 12 pairs over six minutes, the median cold import
ranged from 0.095 s to 0.157 s (interquartile range 25% of the median),
while its ratio to the bare start stayed within 2.32 to 2.68 (2%).
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.25  # probe time on the reference host
PASSES = 2  # passes of the loop in one probe
REFERENCE_START_S = 0.05  # `python -c pass` on the reference host
ELASTICITY = 0.5  # share of a probe slowdown that shows in a g2cert job


def probe() -> float:
    """Mean seconds of one pass of the fixed loop."""
    start = perf_counter()
    for _ in range(PASSES):
        total = Fraction(0)
        x = 12345
        for i in range(80000):
            x = (x * 1103515245 + 12345) % 2147483648
            total += Fraction(x % 2001 - 1000, i % 12 + 1)
    return (perf_counter() - start) / PASSES


def normalized(seconds: float, probe_s: float) -> float:
    """Wall seconds measured while the probe took probe_s, rescaled to the
    reference host."""
    return seconds * (REFERENCE_S / probe_s) ** ELASTICITY
