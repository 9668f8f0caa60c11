"""Minkowski kinematics: 4-vectors, world-lines, and retarded null separations.

Units: c = 1, metric signature (+, -, -, -). The retarded solver returns the
light-like vector from the world-line's past-light-cone intersection to the
observer event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
    BEFORE_RANGE,
    BEYOND_RANGE,
    NOT_NULL,
    ON_LINE,
    ON_REST_CHARGE,
    raise_first_failure,
)

__all__ = [
    "FourVector",
    "RestLine",
    "UniformLine",
    "SampledLine",
    "WorldLine",
    "RetardedSolution",
    "minkowski_dot",
    "fundamental_boost",
    "four_velocity_from_3velocity",
    "retarded_null_vector",
    "retarded_null_vectors",
    "retarded_rows",
]

METRIC_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class FourVector:
    """Real event/vector with components (x0, x1, x2, x3), x0 the time."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in ("x0", "x1", "x2", "x3"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"FourVector component {name} is not finite: {v!r}")

    @classmethod
    def from_array(cls, arr) -> "FourVector":
        a = np.asarray(arr, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector.from_array(self.as_array() + other.as_array())

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector.from_array(self.as_array() - other.as_array())

    def scaled(self, s: float) -> "FourVector":
        return FourVector.from_array(s * self.as_array())


def _as4(v) -> np.ndarray:
    if isinstance(v, FourVector):
        return v.as_array()
    a = np.asarray(v)
    if a.shape != (4,):
        raise ValueError(f"expected a 4-component vector, got shape {a.shape}")
    return a


def minkowski_dot(a, b) -> complex | float:
    """a0*b0 - a1*b1 - a2*b2 - a3*b3. Accepts FourVector or 4-arrays,
    real or complex (the complex bilinear extension, no conjugation)."""
    av, bv = _as4(a), _as4(b)
    out = av[0] * bv[0] - av[1] * bv[1] - av[2] * bv[2] - av[3] * bv[3]
    if np.iscomplexobj(out):
        return complex(out)
    return float(out)


def fundamental_boost(j: int, psi: float) -> np.ndarray:
    """Real 4x4 boost along spatial axis j in {1,2,3} with rapidity psi.

    Maps (1,0,0,0) to (cosh psi, sinh psi * e_j); preserves minkowski_dot.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"boost axis must be 1, 2 or 3, got {j}")
    m = np.eye(4)
    ch, sh = math.cosh(psi), math.sinh(psi)
    m[0, 0] = ch
    m[j, j] = ch
    m[0, j] = sh
    m[j, 0] = sh
    return m


@dataclass(frozen=True)
class RestLine:
    """Charge at rest at a fixed spatial position."""

    position: tuple[float, float, float]

    def __post_init__(self):
        if len(self.position) != 3 or not all(math.isfinite(p) for p in self.position):
            raise ValueError("rest position must be 3 finite reals")


_U_NORM_TOL = 1e-12


@dataclass(frozen=True)
class UniformLine:
    """Charge in uniform motion: passes through reference_event with
    4-velocity velocity_u (u.u = 1, u0 > 0)."""

    reference_event: FourVector
    velocity_u: FourVector

    def __post_init__(self):
        u = self.velocity_u.as_array()
        norm = minkowski_dot(u, u)
        if abs(norm - 1.0) > _U_NORM_TOL:
            raise ValueError(f"4-velocity must satisfy u.u = 1, got {norm!r}")
        if u[0] <= 0:
            raise ValueError("4-velocity must be future-pointing (u0 > 0)")


@dataclass(frozen=True)
class SampledLine:
    """Tabulated world-line, linear (uniform motion) between samples.

    Events must be strictly increasing in x0 and timelike-separated
    consecutively.
    """

    taus: tuple[float, ...]
    events: tuple[FourVector, ...]

    def __post_init__(self):
        if len(self.taus) != len(self.events) or len(self.events) < 2:
            raise ValueError("sampled line needs >= 2 (tau, event) pairs")
        for k in range(len(self.events) - 1):
            if not self.taus[k + 1] > self.taus[k]:
                raise ValueError("sample parameters must be strictly increasing")
            d = self.events[k + 1].as_array() - self.events[k].as_array()
            if d[0] <= 0:
                raise ValueError("sampled events must be strictly increasing in x0")
            if minkowski_dot(d, d) <= 0:
                raise ValueError(
                    f"consecutive samples {k}..{k + 1} are not timelike-separated"
                )

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Knot parameters (K,) and events (K, 4); per segment, the unit
        4-velocity (K-1, 4) and the line parameter per unit proper time
        (K-1,)."""
        taus = np.array(self.taus, dtype=float)
        E = np.array([e.as_array() for e in self.events])
        dE = np.diff(E, axis=0)
        norm = np.sqrt(_mdot_rows(dE, dE))
        return taus, E, dE / norm[:, None], np.diff(taus) / norm


WorldLine = Union[RestLine, UniformLine, SampledLine]


def four_velocity_from_3velocity(v3) -> FourVector:
    """gamma * (1, v) for a 3-velocity with |v| < 1."""
    v = np.asarray(v3, dtype=float)
    speed2 = float(v @ v)
    if speed2 >= 1.0:
        raise ValueError(f"3-velocity must have |v| < 1, got |v|^2 = {speed2}")
    g = 1.0 / math.sqrt(1.0 - speed2)
    return FourVector(g, g * v[0], g * v[1], g * v[2])


@dataclass(frozen=True)
class RetardedSolution:
    """Retarded intersection: line parameter, the null vector a from the
    retarded event to the observer (a.a = 0, a0 > 0), and the unit
    4-velocity u of the line there (for a sampled line, that of the
    segment holding the retarded event)."""

    tau_retarded: float
    a: FourVector
    u: FourVector


_NULL_CHECK_TOL = 1e-10
_ON_LINE_FLOOR = 1e-14
_E0 = np.array([1.0, 0.0, 0.0, 0.0])


def _mdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise minkowski_dot of (N, 4) arrays, real or complex; each row's
    result does not depend on the other rows."""
    return np.einsum("ij,ij,j->i", a, b, METRIC_SIGNS)


def _not_null(A: np.ndarray) -> np.ndarray:
    """Rows of A that fail the solver's null check: |a.a| above
    _NULL_CHECK_TOL * a0^2, or a0 <= 0."""
    a0 = A[:, 0]
    return (np.abs(_mdot_rows(A, A)) > _NULL_CHECK_TOL * np.maximum(a0 * a0, 1e-300)) | (a0 <= 0)


def _sampled_segments(line: SampledLine, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index k of the segment [tau_k, tau_k+1] holding each row's retarded
    point, by bisection on g(tau) = (x0 - line0(tau)) - |x - line(tau)|,
    monotone decreasing, at the knots; and the failure codes of the rows
    whose past light cone misses the sampled range."""
    _, E, _, _ = line.segments

    def g(k):
        rel = X[:, 1:] - E[k, 1:]
        return (X[:, 0] - E[k, 0]) - np.sqrt(np.einsum("ij,ij->i", rel, rel))

    last = len(E) - 1
    failure = np.zeros(len(X), dtype=np.int8)
    failure[g(last) > 0] = BEYOND_RANGE
    failure[g(0) < 0] = BEFORE_RANGE
    lo, hi = np.zeros(len(X), dtype=np.intp), np.full(len(X), last)
    while (split := hi - lo > 1).any():
        mid = (lo + hi) // 2
        ahead = g(mid) >= 0
        lo = np.where(split & ahead, mid, lo)
        hi = np.where(split & ~ahead, mid, hi)
    return lo, failure


def retarded_rows(
    line: WorldLine, X
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Retarded intersections for the rows of an (N, 4) array of observer
    events: line parameters tau (N,), null vectors A (N, 4), the line's
    unit 4-velocities U (N, 4) there, and failure codes (N,) indexing
    errors.ROW_FAILURES, 0 for a good row. A failing row holds NaN in tau
    and A. A solution that fails the null check (an event within about
    1e-6 of a moving line keeps too few digits in a) is a NOT_NULL row
    too: nothing raises for the whole batch.

    Every line kind moves uniformly within a segment, so one formula
    solves them all. For an event R of the segment, its parameter t and
    its unit 4-velocity U, split D = x - R into s = D.U along U and the
    rest-frame separation P = D - s U; with r = sqrt(-P.P) the past-cone
    point is a = P + r U, at tau = t + (s - r) * (parameter per unit
    proper time). A rest line is uniform motion with U = e0; a sampled
    line first finds each row's segment (_sampled_segments).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) array of events, got shape {X.shape}")
    failure = np.zeros(len(X), dtype=np.int8)
    on_line = ON_LINE
    if isinstance(line, RestLine):
        R, t, rate, u, on_line = np.array([0.0, *line.position]), 0.0, 1.0, _E0, ON_REST_CHARGE
        U = np.repeat(u[None], len(X), axis=0)
    elif isinstance(line, UniformLine):
        R, t, rate, u = line.reference_event.as_array(), 0.0, 1.0, line.velocity_u.as_array()
        U = np.repeat(u[None], len(X), axis=0)
    elif isinstance(line, SampledLine):
        k, failure = _sampled_segments(line, X)
        taus, E, seg_u, seg_rate = line.segments
        R, t, rate, U = E[k], taus[k], seg_rate[k], seg_u[k]
    else:
        raise TypeError(f"unknown world-line type: {type(line).__name__}")
    D = X - R
    s = _mdot_rows(D, U)
    P = D - U * s[:, None]
    r2 = -_mdot_rows(P, P)  # squared rest-frame distance, >= 0
    failure[(failure == 0) & (r2 < _ON_LINE_FLOOR**2 * np.maximum(1.0, s * s))] = on_line
    r = np.sqrt(np.maximum(r2, 0.0))
    A = P + U * r[:, None]
    tau = t + rate * (s - r)
    failure[(failure == 0) & _not_null(A)] = NOT_NULL
    if failure.any():
        A[failure != 0] = np.nan
        tau[failure != 0] = np.nan
    return tau, A, U, failure


def retarded_null_vectors(line: WorldLine, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """retarded_rows without the failure codes: raises the error of the
    first failing row instead."""
    tau, A, U, failure = retarded_rows(line, X)
    raise_first_failure(failure)
    return tau, A, U


def retarded_null_vector(line: WorldLine, observer: FourVector) -> RetardedSolution:
    """Retarded intersection of the observer's past light cone with the
    world-line: retarded_null_vectors for one event."""
    tau, A, U = retarded_null_vectors(line, observer.as_array()[None])
    return RetardedSolution(float(tau[0]), FourVector.from_array(A[0]),
                            FourVector.from_array(U[0]))
