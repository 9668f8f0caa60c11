"""Host-speed calibration kernel (see README, "Timing")."""

import math
from time import perf_counter

import numpy as np

LOOP_STEPS = 50_000
FIELD_STEPS = 100
# Times are rescaled to a host on which the kernel takes this long, close
# to its time on a lightly loaded 2-vCPU Intel Xeon VM (6.9 to 8.8 ms).
REF_S = 0.008


def _field_points() -> float:
    """Retarded field of a uniformly moving charge at FIELD_STEPS points,
    in the program's style of small numpy vectors and complex values."""
    v = np.array([0.3, -0.2, 0.5])
    x0 = np.array([0.1, 0.2, -0.3])
    v2 = float(v @ v)
    acc = 0.0
    for i in range(FIELD_STEPS):
        r = np.array([1.0 + 0.01 * i, -0.5, 0.25]) - x0
        vr = float(v @ r)
        tau = (vr + math.sqrt(vr * vr + (1.0 - v2) * float(r @ r))) / (1.0 - v2)
        R = r + v * tau
        n = R / np.linalg.norm(R)
        E = (n - v) * (1.0 - v2) / ((1.0 - float(n @ v)) ** 3 * float(R @ R))
        acc += float(np.abs(E + 1j * np.cross(n, E)).max())
    return acc


def calibration() -> float:
    """Seconds taken by a fixed kernel: a pure-Python integer loop, then
    small-vector numpy work. On a shared host the program's call times
    follow this pair more closely than either half alone (README,
    "Timing")."""
    t0 = perf_counter()
    s = 0
    for i in range(LOOP_STEPS):
        s += i * i % 7
    _field_points()
    return perf_counter() - t0


def normalised(seconds: float, cal: float) -> float:
    """`seconds` measured next to calibration time `cal`, rescaled to REF_S."""
    return seconds * REF_S / cal
