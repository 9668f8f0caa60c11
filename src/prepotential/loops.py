"""Loop phase observables: winding numbers by crossing count and
branch-difference reports packaging the accumulated S-difference as the
measured quantity.

The crossing-count winding is deliberately independent of any logarithm:
it counts signed crossings of a ray by the projected retarded-separation
curve, and serves as the oracle for the path-accumulated phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChargeSystemError, PathThroughSingularAxisError, PrepotentialError
from .potential import (
    SINGULAR_AXIS_FLOOR,
    Charge,
    ChargeSystem,
    Path,
    _delta_S_counted,
)
from .spacetime import FourVector, retarded_null_vectors

__all__ = [
    "LoopPhaseReport",
    "winding_number",
    "ab_phase_report",
    "two_path_difference",
]


@dataclass(frozen=True)
class LoopPhaseReport:
    """Result of a loop (or two-path) phase measurement: the accumulated
    delta_S summed over the charges, and per charge its crossing-count
    winding and its own delta_S."""

    delta_S: complex
    windings: tuple[int, ...]
    residual: float
    samples_used: int
    tolerance: float
    charge_deltas: tuple[complex, ...]

    @property
    def winding(self) -> int:
        """Winding of a one-charge report."""
        if len(self.windings) != 1:
            raise ValueError(f"a report over {len(self.windings)} charges has no single winding")
        return self.windings[0]

    @property
    def status(self) -> str:
        return "ok" if self.residual < self.tolerance else "tolerance-exceeded"


def _crossing_count(A: np.ndarray, points: np.ndarray) -> int:
    """Signed number of crossings of the ray {v = 0, u > 0} by the closed
    projected curve (u, v) = (a1, -a2) of the retarded null vectors A at a
    closed loop's points; upward crossings count +1. The phase of the
    invariant advances with the polar angle of this planar curve."""
    axial = A[:, 1] ** 2 + A[:, 2] ** 2 < SINGULAR_AXIS_FLOOR * (A[:, 0] ** 2 + A[:, 3] ** 2)
    if axial.any():
        event = FourVector.from_array(points[int(np.argmax(axial))])
        raise PathThroughSingularAxisError(
            f"path sample at {event} projects onto the singular axis"
        )
    u, v = A[:, 1], -A[:, 2]
    if u[0] != u[-1] or v[0] != v[-1]:
        u, v = np.append(u, u[0]), np.append(v, v[0])
    below = v < 0.0
    k = np.flatnonzero(below[:-1] != below[1:])
    # crossing point of each sign-changing segment with v = 0
    u_cross = u[k] + (u[k + 1] - u[k]) * (-v[k]) / (v[k + 1] - v[k])
    right = u_cross > 0.0
    return int(np.count_nonzero(right & below[k]) - np.count_nonzero(right & ~below[k]))


def winding_number(loop: Path, charge: Charge) -> int:
    """Signed number of crossings of the ray {v = 0, u > 0} by the closed
    projected curve (u, v) = (a1, -a2); upward crossings count +1."""
    if not loop.closed:
        raise ValueError("winding_number requires a closed path")
    _, A, _ = retarded_null_vectors(charge.line, loop.points)
    return _crossing_count(A, loop.points)


def ab_phase_report(
    charges: Charge | ChargeSystem, loop: Path, tolerance: float | None = None
) -> LoopPhaseReport:
    """Closed-loop phase report for one charge or a whole system: the
    accumulated delta_S summed over the charges, the crossing-count winding
    w_k of each charge, and the residual against 2*pi*i*sum_k q_k*w_k.

    The default tolerance is 1e-8 * max_k |q_k|. For a system, a failure on
    charge k is raised as ChargeSystemError(k, ...).
    """
    if not loop.closed:
        raise ValueError("ab_phase_report requires a closed loop")
    system = isinstance(charges, ChargeSystem)
    members = charges.charges if system else (charges,)
    if tolerance is None:
        tolerance = 1e-8 * max(abs(c.q) for c in members)
    deltas, windings = [], []
    samples = 0
    expected = 0j
    for k, charge in enumerate(members):
        try:
            # the winding comes from the same retarded vectors as the phase
            delta, used, A = _delta_S_counted(charge, loop)
            w = _crossing_count(A, loop.points)
        except PrepotentialError as exc:
            if not system:
                raise
            raise ChargeSystemError(k, str(exc)) from exc
        deltas.append(delta)
        windings.append(w)
        samples += used
        expected += 2j * math.pi * charge.q * w
    delta_S = sum(deltas, 0j)
    return LoopPhaseReport(delta_S, tuple(windings), abs(delta_S - expected), samples,
                           tolerance, tuple(deltas))


def two_path_difference(
    charge: Charge,
    path_a: Path,
    path_b: Path,
    tolerance: float | None = None,
    endpoint_tol: float = 1e-12,
) -> LoopPhaseReport:
    """Difference of accumulated S between two open paths sharing both
    endpoints; equals the closed-loop phase of path_a followed by the
    reversal of path_b."""
    if path_a.closed or path_b.closed:
        raise ValueError("two_path_difference expects open paths")
    ends = np.linalg.norm(path_a.points[[0, -1]] - path_b.points[[0, -1]], axis=1)
    if (ends > endpoint_tol).any():
        raise ValueError("paths must share their endpoints")
    if tolerance is None:
        tolerance = 1e-8 * abs(charge.q)
    delta_a, samples_a, _ = _delta_S_counted(charge, path_a)
    delta_b, samples_b, _ = _delta_S_counted(charge, path_b)
    delta = delta_a - delta_b
    loop = Path(np.concatenate([path_a.points, path_b.points[-2:0:-1]]), closed=True)
    w = winding_number(loop, charge)
    residual = abs(delta - 2j * math.pi * charge.q * w)
    return LoopPhaseReport(delta, (w,), residual, samples_a + samples_b, tolerance, (delta,))
