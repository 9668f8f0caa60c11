"""Minkowski kinematics: 4-vectors, world-lines, and retarded null separations.

Units: c = 1, metric signature (+, -, -, -). The retarded solver returns the
light-like vector from the world-line's past-light-cone intersection to the
observer event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Union

import numpy as np

from .errors import (
    BEFORE_RANGE,
    BEYOND_RANGE,
    ON_LINE,
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
# the metric eta and the real 4x4 identity, for every module
ETA = np.diag(METRIC_SIGNS)
EYE = np.eye(4)


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

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One knot, the event (0, position) at 0, and one unbounded segment with u = e0."""
        return np.zeros(1), np.array([[0.0, *self.position]]), np.eye(4)[:1], np.ones(1)


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

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One knot, reference_event at 0, and one unbounded segment with u = velocity_u."""
        return (np.zeros(1), self.reference_event.as_array()[None],
                self.velocity_u.as_array()[None], np.ones(1))


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
        self.segments  # builds the knot arrays, raising for the first bad pair

    @cached_property
    def segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Knot parameters (K,) and events (K, 4); per segment, the unit
        4-velocity (K, 4) and the line parameter per unit proper time (K,),
        NaN at the last knot, which starts no segment. Rest and uniform
        lines share this layout, with one knot and one unbounded segment."""
        taus = np.array(self.taus, dtype=float)
        E = np.array([(e.x0, e.x1, e.x2, e.x3) for e in self.events])
        dtau, dE = np.diff(taus), np.diff(E, axis=0)
        norm2 = _mdot_rows(dE, dE)
        # per consecutive pair, which of the three rules it breaks; the
        # first bad pair reports the first rule it breaks
        broken = np.stack([~(dtau > 0.0), dE[:, 0] <= 0.0, norm2 <= 0.0])
        if broken.any():
            k = int(np.argmax(broken.any(axis=0)))
            raise ValueError((
                "sample parameters must be strictly increasing",
                "sampled events must be strictly increasing in x0",
                f"consecutive samples {k}..{k + 1} are not timelike-separated",
            )[int(np.argmax(broken[:, k]))])
        norm = np.sqrt(norm2)
        return (taus, E, np.concatenate([dE / norm[:, None], np.full((1, 4), np.nan)]),
                np.append(dtau / norm, np.nan))


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
    4-velocity u of the segment holding the retarded event."""

    tau_retarded: float
    a: FourVector
    u: FourVector


_ON_LINE_FLOOR = 1e-14


def _mdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise minkowski_dot of (N, 4) arrays, real or complex; each row's
    result does not depend on the other rows. On real rows it gives the
    bits of the column forms (_mdot_cols, and the component sum in
    potential._zeta_quotients); on complex rows those may differ from it
    in the last ulp."""
    return np.einsum("ij,ij,j->i", a, b, METRIC_SIGNS)


def _mdot_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """minkowski_dot along the first axis of (4, ...) arrays, broadcasting
    the rest, as a (4, C, 1) frame against (4, C, N) columns: numpy's inner
    loop runs along the N events, about twice as fast as _mdot_rows's along
    rows of 4 at N = 4880."""
    return np.einsum("i...,i...,i->...", a, b, METRIC_SIGNS)


def _bisect(E: np.ndarray, X: np.ndarray, lo: np.ndarray,
            hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index k of the segment [tau_k, tau_k+1] holding the retarded point
    of each event of X (N, 4) seen from each of m lines, by bisection
    between the knots lo (m, N) and hi (m, 1) of the line in the knot
    events E, on g(tau) = (x0 - line0(tau)) - |x - line(tau)|, monotone
    decreasing, at the knots; and the failure codes (m, N) of the rows
    whose past light cone misses that range."""
    failure = np.zeros(lo.shape, dtype=np.int8)
    # each level gathers from contiguous columns of E, several times faster
    # than gathering its rows E[k]; the squares are summed as numpy's einsum
    # sums a row of 3, (r1^2 + r3^2) + r2^2, so the segments found keep
    # their bits
    x0, x1, x2, x3 = np.ascontiguousarray(X.T)
    e0, e1, e2, e3 = np.ascontiguousarray(E.T)

    def g(k):
        r1, r2, r3 = x1 - e1[k], x2 - e2[k], x3 - e3[k]
        return (x0 - e0[k]) - np.sqrt((r1 * r1 + r3 * r3) + r2 * r2)

    failure[g(hi) > 0] = BEYOND_RANGE
    failure[g(lo) < 0] = BEFORE_RANGE
    while (split := hi - lo > 1).any():
        mid = (lo + hi) // 2
        ahead = g(mid) >= 0
        lo = np.where(split & ahead, mid, lo)
        hi = np.where(split & ~ahead, mid, hi)
    return lo, failure


def _segment_table(lines) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The segment tables of several world-lines laid line after line, so
    that one index names a knot and the segment it starts: the knot
    parameters (M,) and events (M, 4), and per segment U (M, 4) and rate
    (M,), NaN at the last knot of a line of several; then each line's
    first and last knot (C,)."""
    tables = [line.segments for line in lines]
    ends = list(accumulate(len(table[0]) for table in tables))
    return (tuple(np.concatenate(part) for part in zip(*tables)),
            np.array([0, *ends[:-1]]), np.array(ends) - 1)


def _event_rows(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) array of events, got shape {X.shape}")
    return X


def _retarded_table_rows(
    table: tuple, X
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """retarded_rows for every line of a segment table (_segment_table) in
    one solve, on C * N rows laid line after line: row c * N + i is event
    i seen from line c. U alone comes as (C, N, 4), U[c, i] for that row.

    Every line kind moves uniformly within a segment, so one formula
    solves them all. For an event R of the segment, its parameter t and
    its unit 4-velocity U, split D = x - R into s = D.U along U and the
    rest-frame separation P = D - s U; with r = sqrt(-P.P) the past-cone
    point is a = P + r U, at tau = t + (s - r) * (parameter per unit
    proper time). A rest line is one unbounded segment with U = e0, a
    uniform line one with its 4-velocity; only the rows of lines of
    several knots bisect (_bisect), each within its own line's knots.

    P is projected off U a second time: the first projection leaves P.U
    with rounding of order eps * |D|, which near a moving line far from R
    is not small against r, and a = P + r U would miss null by 2 r P.U.
    After the second, P.U is of order eps * r, so a is null to rounding,
    and a0 > 0 for r > 0 (r U0 >= |P_vec| > |P0|).
    """
    (taus, E, seg_u, seg_rate), first, last = table
    X = _event_rows(X)
    c, n = len(first), len(X)
    # k is (C, 1), so a one-knot line's frame is one row viewed N times,
    # until some line bisects and k becomes (C, N)
    k = first[:, None]
    failure = np.zeros((c, n), dtype=np.int8)
    if len(taus) > c:  # some line has several knots
        many = last > first
        k = np.repeat(k, n, axis=1)
        k[many], failure[many] = _bisect(E, X, k[many], last[many, None])
    t, rate, U = taus[k], seg_rate[k], seg_u[k]
    # the arithmetic runs on contiguous (4, C, N) component columns: D
    # becomes P in place, and T holds each product with U, so that a call
    # allocates three (4, C, N) arrays (D, T and A)
    W = np.ascontiguousarray(U.transpose(2, 0, 1))
    D = np.subtract(X.T[:, None], np.take(E.T, k, axis=1), out=np.empty((4, c, n)))
    # an event near the float limit overflows in its squares; its row
    # comes out inf or NaN, which the callers report
    with np.errstate(over="ignore", invalid="ignore"):
        s = _mdot_cols(D, W)
        T = W * s
        D -= T
        D -= np.multiply(W, _mdot_cols(D, W), out=T)
        r2 = -_mdot_cols(D, D)  # squared rest-frame distance, >= 0
        failure[(failure == 0) & (r2 < _ON_LINE_FLOOR**2 * np.maximum(1.0, s * s))] = ON_LINE
        r = np.sqrt(np.maximum(r2, 0.0))
        # A is C-ordered, as the row code downstream expects, and allocated
        # after the work arrays: freed below it, they leave no heap top for
        # glibc to trim and the next call to fault back in
        A = np.empty((c, n, 4))
        np.add(D, np.multiply(W, r, out=T), out=A.transpose(2, 0, 1))
        tau = t + rate * (s - r)
    if failure.any():
        A[failure != 0] = np.nan
        tau[failure != 0] = np.nan
    # U stays (C, N, 4): flattening a broadcast frame copies it for C > 1,
    # and only the jet pass reads it
    return (tau.reshape(c * n), A.reshape(c * n, 4), np.broadcast_to(U, (c, n, 4)),
            failure.reshape(c * n))


def retarded_rows(
    line: WorldLine, X
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Retarded intersections for the rows of an (N, 4) array of observer
    events: line parameters tau (N,), null vectors A (N, 4), the line's
    unit 4-velocities U (N, 4) there, and failure codes (N,) indexing
    errors.ROW_FAILURES, 0 for a good row. A failing row holds NaN in tau
    and A; every failure is geometric, and nothing raises for the batch.
    The line's segments are a table of one line for _retarded_table_rows.
    """
    segments = line.segments
    tau, A, U, failure = _retarded_table_rows(
        (segments, np.array([0]), np.array([len(segments[0]) - 1])), X)
    return tau, A, U[0], failure


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
