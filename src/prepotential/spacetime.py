"""Minkowski kinematics: 4-vectors, world-lines, and retarded null separations.

Units: c = 1, metric signature (+, -, -, -). The retarded solver returns the
light-like vector from the world-line's past-light-cone intersection to the
observer event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    NoRetardedIntersectionError,
    ObserverOnWorldLineError,
    PrepotentialError,
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


def _check_solution(tau: float, a: np.ndarray, u: FourVector) -> RetardedSolution:
    a0 = a[0]
    scale = max(a0 * a0, 1e-300)
    if abs(minkowski_dot(a, a)) > _NULL_CHECK_TOL * scale or a0 <= 0:
        raise PrepotentialError(
            f"retarded solver produced an invalid null vector: a={a}, a.a={minkowski_dot(a, a)}"
        )
    return RetardedSolution(tau, FourVector.from_array(a), u)


_ON_LINE_FLOOR = 1e-14
_REST_U = FourVector(1.0, 0.0, 0.0, 0.0)


def _retarded_rest(line: RestLine, x: np.ndarray) -> RetardedSolution:
    rel = x[1:] - np.asarray(line.position)
    r = float(np.linalg.norm(rel))
    if r < _ON_LINE_FLOOR * max(1.0, abs(x[0])):
        raise ObserverOnWorldLineError("observer coincides with the rest charge")
    a = np.array([r, rel[0], rel[1], rel[2]])
    return _check_solution(x[0] - r, a, _REST_U)


def _retarded_uniform_d(d: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray]:
    # (d - u*lam)^2 = 0 with u.u = 1: lam = d.u - sqrt((d.u)^2 - d.d),
    # the minus root is the past-cone (a0 > 0) intersection.
    du = minkowski_dot(d, u)
    dd = minkowski_dot(d, d)
    disc = du * du - dd  # squared rest-frame distance, >= 0
    if disc < _ON_LINE_FLOOR**2 * max(1.0, du * du):
        raise ObserverOnWorldLineError("observer lies on the uniform world-line")
    lam = du - math.sqrt(disc)
    return lam, d - u * lam


def _retarded_uniform(line: UniformLine, x: np.ndarray) -> RetardedSolution:
    d = x - line.reference_event.as_array()
    lam, a = _retarded_uniform_d(d, line.velocity_u.as_array())
    return _check_solution(lam, a, line.velocity_u)


def _g_of_tau(line: SampledLine, x: np.ndarray, tau: float) -> float:
    """(x0 - line_x0(tau)) - |xvec - line_xvec(tau)|; monotone decreasing."""
    e = _interpolate(line, tau)
    return (x[0] - e[0]) - float(np.linalg.norm(x[1:] - e[1:]))


def _interpolate(line: SampledLine, tau: float) -> np.ndarray:
    taus = line.taus
    k = int(np.searchsorted(taus, tau, side="right")) - 1
    k = min(max(k, 0), len(taus) - 2)
    t0, t1 = taus[k], taus[k + 1]
    frac = (tau - t0) / (t1 - t0)
    e0 = line.events[k].as_array()
    e1 = line.events[k + 1].as_array()
    return e0 + frac * (e1 - e0)


def _retarded_sampled(line: SampledLine, x: np.ndarray) -> RetardedSolution:
    taus = line.taus
    if _g_of_tau(line, x, taus[0]) < 0:
        raise NoRetardedIntersectionError(
            "observer's past light cone precedes the sampled range"
        )
    if _g_of_tau(line, x, taus[-1]) > 0:
        raise NoRetardedIntersectionError(
            "observer's past light cone is beyond the sampled range"
        )
    # bisect for the sign change (g is monotone decreasing), then solve the
    # uniform-motion segment exactly
    lo, hi = 0, len(taus) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _g_of_tau(line, x, taus[mid]) >= 0:
            lo = mid
        else:
            hi = mid
    k = lo
    t0, t1 = taus[k], taus[k + 1]
    e0 = line.events[k].as_array()
    w = (line.events[k + 1].as_array() - e0) / (t1 - t0)  # timelike, w.w > 0
    d = x - e0
    ww = minkowski_dot(w, w)
    u = w / math.sqrt(ww)
    lam, a = _retarded_uniform_d(d, u)
    tau = t0 + lam / math.sqrt(ww)
    tau = min(max(tau, t0), t1)
    # one safeguarded Newton step on g to polish against interpolation rounding
    h = (t1 - t0) * 1e-7
    g0 = _g_of_tau(line, x, tau)
    if h > 0:
        gp = (_g_of_tau(line, x, min(tau + h, t1)) - _g_of_tau(line, x, max(tau - h, t0))) / (
            min(tau + h, t1) - max(tau - h, t0)
        )
        if gp != 0:
            cand = tau - g0 / gp
            if t0 <= cand <= t1:
                tau = cand
    return _check_solution(tau, x - _interpolate(line, tau), FourVector.from_array(u))


def retarded_null_vector(line: WorldLine, observer: FourVector) -> RetardedSolution:
    """Solve for the retarded intersection of observer's past light cone
    with the world-line; closed form for rest/uniform lines, per-segment
    closed form for sampled lines."""
    x = observer.as_array()
    if isinstance(line, RestLine):
        return _retarded_rest(line, x)
    if isinstance(line, UniformLine):
        return _retarded_uniform(line, x)
    if isinstance(line, SampledLine):
        return _retarded_sampled(line, x)
    raise TypeError(f"unknown world-line type: {type(line).__name__}")


def _mdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise minkowski_dot of (N, 4) arrays, in the same operation order."""
    return a[:, 0] * b[:, 0] - a[:, 1] * b[:, 1] - a[:, 2] * b[:, 2] - a[:, 3] * b[:, 3]


def _check_solutions(A: np.ndarray) -> None:
    a0 = A[:, 0]
    nn = _mdot_rows(A, A)
    bad = (np.abs(nn) > _NULL_CHECK_TOL * np.maximum(a0 * a0, 1e-300)) | (a0 <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise PrepotentialError(
            f"retarded solver produced an invalid null vector: a={A[i]}, a.a={nn[i]}"
        )


def _retarded_uniform_rows(D: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise _retarded_uniform_d: D (N, 4) separations from a point of
    the line, U (N, 4) or (4,) unit 4-velocities."""
    U = np.broadcast_to(U, D.shape)
    du = _mdot_rows(D, U)
    disc = du * du - _mdot_rows(D, D)
    if (disc < _ON_LINE_FLOOR**2 * np.maximum(1.0, du * du)).any():
        raise ObserverOnWorldLineError("observer lies on the uniform world-line")
    lam = du - np.sqrt(disc)
    return lam, D - U * lam[:, None]


def retarded_null_vectors(line: WorldLine, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched retarded_null_vector over the rows of an (N, 4) array of
    observer events: line parameters tau (N,), null vectors A (N, 4) and
    unit 4-velocities U (N, 4), each row as the scalar solver gives it for
    that event. Raises, for the whole batch, the error the scalar solver
    raises for any offending row."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) array of events, got shape {X.shape}")
    if isinstance(line, RestLine):
        rel = X[:, 1:] - np.asarray(line.position)
        r = np.sqrt(np.einsum("ij,ij->i", rel, rel))
        if (r < _ON_LINE_FLOOR * np.maximum(1.0, np.abs(X[:, 0]))).any():
            raise ObserverOnWorldLineError("observer coincides with the rest charge")
        A = np.column_stack([r, rel])
        tau, U = X[:, 0] - r, np.broadcast_to(_REST_U.as_array(), X.shape)
    elif isinstance(line, UniformLine):
        u = line.velocity_u.as_array()
        tau, A = _retarded_uniform_rows(X - line.reference_event.as_array(), u)
        U = np.broadcast_to(u, X.shape)
    elif isinstance(line, SampledLine):
        # row by row through the scalar bisection; a vectorised one is left
        # until a workload evaluates paths round sampled lines
        sols = [_retarded_sampled(line, x) for x in X]
        tau = np.array([s.tau_retarded for s in sols], dtype=float)
        A = np.array([s.a.as_array() for s in sols], dtype=float).reshape(-1, 4)
        U = np.array([s.u.as_array() for s in sols], dtype=float).reshape(-1, 4)
    else:
        raise TypeError(f"unknown world-line type: {type(line).__name__}")
    _check_solutions(A)
    return tau, A, U
