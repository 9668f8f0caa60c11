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
    _delta_S_paths,
    _stacked,
)
from .spacetime import FourVector, retarded_null_vectors

__all__ = [
    "LoopPhaseReport",
    "winding_number",
    "ab_phase_report",
    "ab_phase_reports",
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


def _crossing_counts(A: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per closed loop, the signed number of crossings of the ray
    {v = 0, u > 0} by its projected curve (u, v) = (a1, -a2) of retarded
    null vectors; upward crossings count +1. The rows of A hold the loops'
    points, loop after loop, sizes[j] of them for loop j. The phase of the
    invariant advances with the polar angle of this planar curve."""
    # each loop closes from its last point back to its first
    owner, nxt = _stacked(sizes)
    u, v = A[:, 1], -A[:, 2]
    below = v < 0.0
    k = np.flatnonzero(below != below[nxt])
    k1 = nxt[k]
    # crossing point of each sign-changing segment with v = 0
    u_cross = u[k] + (u[k1] - u[k]) * (-v[k]) / (v[k1] - v[k])
    right = u_cross > 0.0
    up = np.bincount(owner[k[right & below[k]]], minlength=len(sizes))
    down = np.bincount(owner[k[right & ~below[k]]], minlength=len(sizes))
    return up - down


def winding_number(loop: Path, charge: Charge) -> int:
    """Signed number of crossings of the ray {v = 0, u > 0} by the closed
    projected curve (u, v) = (a1, -a2); upward crossings count +1."""
    if not loop.closed:
        raise ValueError("winding_number requires a closed path")
    _, A, _ = retarded_null_vectors(charge.line, loop.points)
    axial = A[:, 1] ** 2 + A[:, 2] ** 2 < SINGULAR_AXIS_FLOOR * (A[:, 0] ** 2 + A[:, 3] ** 2)
    if axial.any():
        event = FourVector.from_array(loop.points[int(np.argmax(axial))])
        raise PathThroughSingularAxisError(
            f"path sample at {event} projects onto the singular axis"
        )
    return int(_crossing_counts(A, np.array([len(A)]))[0])


def ab_phase_reports(
    charges: Charge | ChargeSystem, loops, tolerance: float | None = None
) -> list[LoopPhaseReport | PrepotentialError]:
    """ab_phase_report for each of a list of closed loops, with the error a
    failing loop's ab_phase_report raises in its place. All loops are
    evaluated together, in one batch per charge and refinement level, and
    a failure affects only its own loop."""
    if not all(loop.closed for loop in loops):
        raise ValueError("ab_phase_report requires a closed loop")
    system = isinstance(charges, ChargeSystem)
    members = charges.charges if system else (charges,)
    if tolerance is None:
        tolerance = 1e-8 * max(abs(c.q) for c in members)
    if not loops:
        return []
    sizes = np.array([len(loop.points) for loop in loops])
    deltas = np.zeros((len(members), len(loops)), dtype=complex)
    windings = np.zeros((len(members), len(loops)), dtype=np.intp)
    samples = np.zeros(len(loops), dtype=np.intp)
    errors: dict = {}
    for k, charge in enumerate(members):
        # the winding comes from the same retarded vectors as the phase
        deltas[k], used, A, failed = _delta_S_paths(charge, loops)
        ok = np.ones(len(loops), dtype=bool)
        ok[list(failed)] = False
        windings[k, ok] = _crossing_counts(A[np.repeat(ok, sizes)], sizes[ok])
        samples += used
        for j, exc in failed.items():
            if j not in errors:
                if system:
                    wrapped = ChargeSystemError(k, str(exc))
                    wrapped.__cause__ = exc
                    exc = wrapped
                errors[j] = exc
    q = np.array([c.q for c in members])
    expected = (2j * math.pi * q[:, None] * windings).sum(axis=0)
    reports: list = []
    for j in range(len(loops)):
        if j in errors:
            reports.append(errors[j])
            continue
        delta_S = complex(deltas[:, j].sum())
        reports.append(LoopPhaseReport(
            delta_S, tuple(windings[:, j].tolist()), float(abs(delta_S - expected[j])),
            int(samples[j]), tolerance, tuple(deltas[:, j].tolist())))
    return reports


def ab_phase_report(
    charges: Charge | ChargeSystem, loop: Path, tolerance: float | None = None
) -> LoopPhaseReport:
    """Closed-loop phase report for one charge or a whole system: the
    accumulated delta_S summed over the charges, the crossing-count winding
    w_k of each charge, and the residual against 2*pi*i*sum_k q_k*w_k.

    The default tolerance is 1e-8 * max_k |q_k|. For a system, a failure on
    charge k is raised as ChargeSystemError(k, ...), k the lowest failing
    charge.
    """
    rep = ab_phase_reports(charges, [loop], tolerance)[0]
    if isinstance(rep, PrepotentialError):
        raise rep
    return rep


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
    (delta_a, delta_b), samples, A, errors = _delta_S_paths(charge, [path_a, path_b])
    if errors:
        raise errors[min(errors)]
    delta = complex(delta_a - delta_b)
    # the loop path_a, then path_b reversed without its endpoints: its
    # retarded vectors are rows the two paths already hold
    n_a = len(path_a.points)
    loop = np.concatenate([A[:n_a], A[n_a:][-2:0:-1]])
    w = int(_crossing_counts(loop, np.array([len(loop)]))[0])
    residual = abs(delta - 2j * math.pi * charge.q * w)
    return LoopPhaseReport(delta, (w,), residual, int(samples.sum()), tolerance, (delta,))
