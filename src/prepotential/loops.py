"""Loop phase observables: branch-difference reports packaging the
accumulated S-difference as the measured quantity, and winding numbers by
crossing count.

A report reads each charge's winding off its own accumulated phase. The
crossing-count winding is deliberately independent of any logarithm: it
counts signed crossings of a ray by the projected retarded-separation
curve, and serves as the oracle for the path-accumulated phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChargeSystemError, PathThroughSingularAxisError, PrepotentialError
from .potential import (
    Charge,
    ChargeSystem,
    Path,
    _PathStack,
    _delta_S_paths,
    _stack_paths,
    _stacked,
    _zeta_quotients,
)
from .spacetime import FourVector, retarded_null_vectors

__all__ = [
    "LoopPhaseReport",
    "winding_number",
    "ab_phase_report",
    "ab_phase_reports",
]


@dataclass(frozen=True)
class LoopPhaseReport:
    """Result of a closed-loop phase measurement: the accumulated
    delta_S summed over the charges, and per charge its winding, its own
    delta_S / (2 pi i q) rounded."""

    delta_S: complex
    windings: tuple[int, ...]
    residual: float
    samples_used: int
    tolerance: float

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
    _, _, _, on_axis = _zeta_quotients(A)
    if on_axis.any():
        event = FourVector.from_array(loop.points[int(np.argmax(on_axis))])
        raise PathThroughSingularAxisError(
            f"path sample at {event} projects onto the singular axis"
        )
    return int(_crossing_counts(A, np.array([len(A)]))[0])


def ab_phase_reports(
    charges: Charge | ChargeSystem, loops
) -> list[LoopPhaseReport | PrepotentialError]:
    """ab_phase_report for each of a list of closed loops, with the error a
    failing loop's ab_phase_report raises in its place. All loops and all
    charges are evaluated in one pass of two batches (their points, then
    their edge samples; 2 retarded solves per call), and a failure affects
    only its own loop."""
    return _stack_reports(charges, _stack_paths(loops)) if loops else []


def _stack_reports(
    charges: Charge | ChargeSystem, stack: _PathStack
) -> list[LoopPhaseReport | PrepotentialError]:
    """ab_phase_reports of the closed paths of a _PathStack; ValueError
    for a stack with an open path."""
    if not stack.closed.all():
        raise ValueError("ab_phase_report requires a closed loop")
    lone = not isinstance(charges, ChargeSystem)
    system = ChargeSystem((charges,)) if lone else charges
    tolerance = 1e-8 * max(abs(c.q) for c in system)
    if not len(stack.sizes):
        return []
    try:
        deltas, samples, failed = _delta_S_paths(system, stack)
    except ChargeSystemError as exc:  # a lone charge's error is its own
        if lone:
            raise exc.__cause__ from None
        raise
    errors: dict = {}
    for j, (k, exc) in failed.items():
        if not lone:
            wrapped = ChargeSystemError(k, str(exc))
            wrapped.__cause__ = exc
            exc = wrapped
        errors[j] = exc
    q = np.array([c.q for c in system])
    # each edge's phase is the exact turn of zeta along it, so
    # Im delta_S_k / (2 pi q_k) counts the branches the loop crosses; a
    # failed loop's delta_S may be NaN, which has no integer
    turns = deltas.imag / (2.0 * math.pi * q[:, None])
    windings = np.rint(np.where(np.isfinite(turns), turns, 0.0)).astype(np.intp)
    expected = (2j * math.pi * q[:, None] * windings).sum(axis=0)
    reports: list = []
    for j in range(len(stack.sizes)):
        if j in errors:
            reports.append(errors[j])
            continue
        delta_S = complex(deltas[:, j].sum())
        reports.append(LoopPhaseReport(
            delta_S, tuple(windings[:, j].tolist()), float(abs(delta_S - expected[j])),
            int(samples[j]), tolerance))
    return reports


def ab_phase_report(charges: Charge | ChargeSystem, loop: Path) -> LoopPhaseReport:
    """Closed-loop phase report for one charge or a whole system: the
    accumulated delta_S summed over the charges, the winding w_k of each
    charge (its own delta_S / (2*pi*i*q_k), rounded), and the residual
    against 2*pi*i*sum_k q_k*w_k, a consistency check at rounding level.

    The status tolerance is 1e-8 * max_k |q_k|. For a system, a failure on
    charge k is raised as ChargeSystemError(k, ...), k the lowest failing
    charge.
    """
    rep = ab_phase_reports(charges, [loop])[0]
    if isinstance(rep, PrepotentialError):
        raise rep
    return rep
