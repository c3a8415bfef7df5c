"""Fixed reference work, independent of qgd1d, timed after every measured
command to estimate how fast the shared machine runs at that moment.

The end-to-end times of a run are scaled by NOMINAL_S over the run's median
calibration time.  On a VM whose host is shared, this removes much of the
drift between runs that no amount of repetition within a run averages out.
"""

from __future__ import annotations

import time

import numpy as np

# Median calibration time on the machine the benchmark was defined on (a
# 2-vCPU Intel Xeon VM); scaled times are seconds at that machine's typical
# speed.
NOMINAL_S = 0.31


def calibrate() -> float:
    """Seconds taken by the reference work: an interpreter loop, small and
    medium numpy operations and float formatting, the mix qgd1d's layers do."""
    rng = np.random.default_rng(12345)
    small = rng.random(256) + 1.0
    medium = rng.random(16384) + 1.0
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(6):
        x = small
        for _ in range(2000):
            x = np.sqrt(x * 1.0000001 + 1e-9)
        y = medium
        for _ in range(400):
            y = np.sqrt(y * y + 0.5) * 0.999
        text = ",".join(repr(float(v)) for v in medium)
        counts: dict[int, float] = {}
        for i in range(60000):
            counts[i & 255] = counts.get(i & 255, 0.0) + i * 0.5
        acc += float(x[0] + y[0]) + len(text) + counts[7]
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("calibration work produced no result")
    return elapsed
