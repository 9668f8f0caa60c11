"""The complex invariant zeta, the scalar pre-potential S = q ln(zeta),
its closed-form derivatives, superposition over discrete charges, the
conjugated 4-potential, and branch-tracked accumulation of S-differences
along paths.

Branch policy: finite differences and path increments are always
principal logarithms of zeta ratios between nearby points, never
differences of independently branched logarithms; closed-form derivatives
of ln(zeta) are single-valued. Multi-valuedness enters only through path
accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    NOT_NULL,
    ON_AXIS,
    ROW_FAILURES,
    ChargeSystemError,
    NotNullError,
    PathThroughSingularAxisError,
    PrepotentialError,
    RefinementLimitExceededError,
    SingularAxisError,
    StepTooLargeError,
    raise_first_failure,
)
from .matrices import METRIC, conjugation_C, rho
from .spacetime import (
    METRIC_SIGNS,
    FourVector,
    WorldLine,
    _mdot_rows,
    minkowski_dot,
    retarded_null_vector,
    retarded_rows,
)

__all__ = [
    "Zeta",
    "PrePotentialValue",
    "PrePotentialJet",
    "Charge",
    "ChargeSystem",
    "Path",
    "POTENTIAL_FIELD_SCALE",
    "zeta_of",
    "zetas_of",
    "zeta_at",
    "prepotential_point",
    "prepotential_system",
    "prepotential_jet",
    "prepotential_jet_system",
    "prepotential_jets",
    "gradient_S",
    "potential_A",
    "delta_S_along_path",
    "local_scale",
]

# Points with (a1)^2 + (a2)^2 below this fraction of (a0)^2 + (a3)^2 are
# treated as lying on the singular ray where zeta is 0 or infinite.
SINGULAR_AXIS_FLOOR = 1e-24

_DEFAULT_NULL_TOL = 1e-10


@dataclass(frozen=True)
class Zeta:
    """Dimensionless complex invariant of a null 4-vector."""

    value: complex


# The two equivalent quotients for zeta, (a1 - i a2)/(a0 + a3) and
# (a0 - a3)/(a1 + i a2), as linear forms in (a0, a1, a2, a3): row p of each
# table belongs to quotient p.
_NUMERATORS = np.array([[0.0, 1.0, -1j, 0.0], [1.0, 0.0, 0.0, -1.0]])
_DENOMINATORS = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1j, 0.0]])


def _zeta_quotients(A, null_tol: float = _DEFAULT_NULL_TOL):
    """For each row of an (N, 4) array of null vectors, the numerator and
    denominator of whichever quotient for zeta is better conditioned there
    (the other one loses every digit near the singular axis), the index
    (N,) of that quotient in _NUMERATORS and _DENOMINATORS, and failure
    codes: ON_AXIS for rows on the singular axis, whose num and den are
    NaN. Rows of NaN (failed upstream) stay NaN. A row that is zero or not
    null raises NotNullError for the batch.
    """
    A = np.asarray(A)
    sq = np.abs(A)
    scale = sq.max(axis=1) ** 2
    if (scale == 0.0).any():
        raise NotNullError("zero vector has no invariant ratio")
    nn = np.abs(_mdot_rows(A, A))
    if (nn > null_tol * scale).any():
        i = int(np.argmax(nn > null_tol * scale))
        raise NotNullError(f"vector is not null: |a.a| = {nn[i]:.3e} at scale {scale[i]:.3e}")
    sq *= sq
    on_axis = sq[:, 1] + sq[:, 2] < SINGULAR_AXIS_FLOOR * (sq[:, 0] + sq[:, 3])
    den1 = A[:, 0] + A[:, 3]
    den2 = A[:, 1] + 1j * A[:, 2]
    first = np.abs(den1) >= np.abs(den2)
    num = np.where(first, A[:, 1] - 1j * A[:, 2], A[:, 0] - A[:, 3])
    den = np.where(first, den1, den2)
    failure = on_axis.astype(np.int8)
    if failure.any():
        num[on_axis] = den[on_axis] = np.nan
        failure *= ON_AXIS
    return num, den, (~first).astype(np.intp), failure


def zetas_of(A, null_tol: float = _DEFAULT_NULL_TOL) -> np.ndarray:
    """zeta of each row of an (N, 4) array of null vectors, real or
    complex, from the better-conditioned quotient; raises the error of the
    first failing row."""
    num, den, _, failure = _zeta_quotients(A, null_tol)
    raise_first_failure(failure)
    return num / den


def zeta_of(a, null_tol: float = _DEFAULT_NULL_TOL) -> Zeta:
    """Invariant ratio (a1 - i a2)/(a0 + a3) of a null vector, computed
    from whichever of the two equivalent quotients is better conditioned.

    Accepts a FourVector or any real/complex 4-array that is null in the
    bilinear sense.
    """
    av = a.as_array() if isinstance(a, FourVector) else np.asarray(a)
    if av.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {av.shape}")
    return Zeta(complex(zetas_of(av[None], null_tol)[0]))


@dataclass(frozen=True)
class Charge:
    """A point charge q carried along a world-line."""

    q: float
    line: WorldLine

    def __post_init__(self):
        if not math.isfinite(self.q) or self.q == 0.0:
            raise ValueError(f"charge must be finite and nonzero, got {self.q!r}")


@dataclass(frozen=True)
class ChargeSystem:
    """Ordered collection of discrete charges; the potential is additive."""

    charges: tuple[Charge, ...]

    def __post_init__(self):
        if not self.charges:
            raise ValueError("charge system must not be empty")

    def __iter__(self):
        return iter(self.charges)

    def __len__(self):
        return len(self.charges)


@dataclass(frozen=True, eq=False, init=False)
class Path:
    """Polyline of spacetime events, stored as a read-only (N, 4) array of
    points; closed paths wrap from the last sample back to the first.

    Built from a sequence of FourVector events or from an (N, 4) array.
    Two paths are equal when their points and closedness are.
    """

    points: np.ndarray
    closed: bool

    def __init__(self, events, closed: bool = False):
        if not isinstance(events, np.ndarray):
            events = [e.as_array() if isinstance(e, FourVector) else e for e in events]
        pts = np.array(events, dtype=float)
        n = len(pts)
        if closed and n < 3:
            raise ValueError("a closed path needs at least 3 samples")
        if n < 2:
            raise ValueError("a path needs at least 2 samples")
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"path points must be an (N, 4) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("path points must be finite")
        same = (pts[1:] == pts[:-1]).all(axis=1)
        if same.any():
            k = int(np.argmax(same))
            raise ValueError(f"consecutive path samples {k}, {k + 1} coincide")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "closed", bool(closed))

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.closed == other.closed and np.array_equal(self.points, other.points)

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, so equal paths hash alike
        return hash((self.closed, self.points.shape, (self.points + 0.0).tobytes()))

    @cached_property
    def events(self) -> tuple[FourVector, ...]:
        return tuple(FourVector.from_array(p) for p in self.points)


@dataclass(frozen=True)
class PrePotentialValue:
    """Value of S together with the count of 2*pi*i*q increments
    separating it from the principal branch."""

    value: complex
    branch_index: int = 0


def _zeta_rows(charge: Charge, X) -> tuple[np.ndarray, np.ndarray]:
    """zeta at each row of an (N, 4) array of events and the retarded null
    vectors it came from; raises the error of the first failing row."""
    _, A, _, failure = retarded_rows(charge.line, X)
    num, den, _, on_axis = _zeta_quotients(A)
    raise_first_failure(np.where(failure != 0, failure, on_axis))
    return num / den, A


def zeta_at(charge: Charge, x: FourVector) -> Zeta:
    """Invariant of the charge's retarded null vector at the event x."""
    return Zeta(complex(_zeta_rows(charge, x.as_array()[None])[0][0]))


def prepotential_point(charge: Charge, x: FourVector) -> PrePotentialValue:
    """S(x) = q ln(zeta) on the principal branch."""
    z, _ = _zeta_rows(charge, x.as_array()[None])
    return PrePotentialValue(complex(charge.q * np.log(z[0])), 0)


def prepotential_system(system: ChargeSystem, x: FourVector) -> PrePotentialValue:
    """Sum of principal-branch values over the system's charges."""
    total = 0j
    for i, charge in enumerate(system):
        try:
            total += prepotential_point(charge, x).value
        except PrepotentialError as exc:
            raise ChargeSystemError(i, str(exc)) from exc
    return PrePotentialValue(total, 0)


def local_scale(charge: Charge, x: FourVector) -> float:
    """Smallest geometric length scale at x for the charge's field:
    spatial retardation distance, the light-cone denominator a.u / u0,
    and the distance from the singular axis. Used to size stencil steps."""
    sol = retarded_null_vector(charge.line, x)
    a = sol.a.as_array()
    u = sol.u.as_array()
    r_spatial = float(np.linalg.norm(a[1:]))
    cone = float(minkowski_dot(a, u)) / float(u[0])
    axis = math.hypot(a[1], a[2])
    return max(min(r_spatial, cone, axis), 1e-300)


# Overall factor pinning the direct uniform-motion formula to the textbook
# field: with honest index lowering of a, the bare contraction comes out
# as -1/2 of the physical field. Fixed once here, verified by tests.
UNIFORM_FIELD_CALIBRATION = -2.0

_ETA = np.diag(METRIC_SIGNS)
_EYE = np.eye(4)
_RHO_STACK = np.stack([rho(j) for j in (1, 2, 3)])


def _velocity_fields(q: float, A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Field 3-vectors E + iB (N, 3) of a charge moving with 4-velocities U
    (N, 4), from the retarded null vectors A (N, 4): F_j = cal * q *
    a_mu rho^j[mu,nu] u^nu / (a.u)^3. No validation; each a must be null
    and a.u positive."""
    F = np.einsum("jmk,nk,nm->nj", _RHO_STACK, U, METRIC_SIGNS * A)
    return (UNIFORM_FIELD_CALIBRATION * q / _mdot_rows(A, U) ** 3)[:, None] * F


@dataclass(frozen=True)
class PrePotentialJet:
    """S at an event with its covariant gradient d_nu S, its Hessian
    d_nu d_lam S, and the field 3-vector E + iB they carry; evaluated over
    N events, each field gains a leading axis of length N."""

    value: complex
    gradient: np.ndarray
    hessian: np.ndarray
    field: np.ndarray


def _jet_rows(charge: Charge, X) -> tuple[PrePotentialJet, np.ndarray]:
    """S = q ln(zeta(a)) with its first and second derivatives in closed
    form at each row of an (N, 4) array of events, from one retarded
    solve, and the rows' failure codes (failing rows hold NaN).

    The motion is uniform (4-velocity u) within the segment holding the
    retarded point, so da^mu/dx^nu = J^mu_nu = delta^mu_nu - u^mu k_nu
    with k = a_low / (a.u), and by the chain rule

        d S  = q g^T J
        dd S = q (J^T h J - (g.u) M),  M = dk/dx = (eta - u k^T - k u^T + k k^T) / (a.u)

    (u lowered in M), where g and h are the first and second a-derivatives
    of ln(zeta) taken from the same quotient that zeta_of uses. The field
    is the contraction of dd S (faraday_from_hessian) summed in closed
    form: near the singular axis the Hessian entries grow like 1/rho^2
    while the field does not, so contracting the rounded matrix would lose
    about eps * (r/rho)^2 relative.
    """
    _, A, U, failure = retarded_rows(charge.line, X)
    num, den, pick, on_axis = _zeta_quotients(A)
    n, d = _NUMERATORS[pick], _DENOMINATORS[pick]
    q = charge.q
    # failing rows carry NaN through the arithmetic
    with np.errstate(invalid="ignore"):
        g = n / num[:, None] - d / den[:, None]
        h = (d[:, :, None] * d[:, None, :]) / (den**2)[:, None, None] - (
            n[:, :, None] * n[:, None, :]) / (num**2)[:, None, None]
        U_low = METRIC_SIGNS * U
        au = _mdot_rows(A, U)
        K = METRIC_SIGNS * A / au[:, None]
        J = _EYE - U[:, :, None] * K[:, None, :]
        M = (_ETA - U_low[:, :, None] * K[:, None, :] - K[:, :, None] * U_low[:, None, :]
             + K[:, :, None] * K[:, None, :]) / au[:, None, None]
        gu = np.einsum("ni,ni->n", g, U)
        jet = PrePotentialJet(
            q * np.log(num / den),
            q * np.einsum("ni,nij->nj", g, J),
            q * (np.swapaxes(J, 1, 2) @ h @ J - gu[:, None, None] * M),
            _velocity_fields(q, A, U),
        )
    return jet, np.where(failure != 0, failure, on_axis)


def prepotential_jets(system: ChargeSystem, X) -> tuple[PrePotentialJet, np.ndarray]:
    """Superposition of the closed-form jets over the system's charges at
    each row of an (N, 4) array of events, with per-row failure codes
    (errors.ROW_FAILURES): a row fails with the first failing charge's
    code and holds NaN. A numerical failure on charge k, a NOT_NULL row
    included, raises ChargeSystemError(k, ...) for the batch."""
    X = np.asarray(X, dtype=float)
    failure = np.zeros(len(X), dtype=np.int8)
    value = np.zeros(len(X), dtype=complex)
    gradient = np.zeros((len(X), 4), dtype=complex)
    hessian = np.zeros((len(X), 4, 4), dtype=complex)
    field = np.zeros((len(X), 3), dtype=complex)
    for i, charge in enumerate(system):
        try:
            jet, fail = _jet_rows(charge, X)
            raise_first_failure(np.where(fail == NOT_NULL, fail, 0))
        except PrepotentialError as exc:
            raise ChargeSystemError(i, str(exc)) from exc
        failure = np.where(failure != 0, failure, fail)
        value += jet.value
        gradient += jet.gradient
        hessian += jet.hessian
        field += jet.field
    return PrePotentialJet(value, gradient, hessian, field), failure


def prepotential_jet(charge: Charge, x: FourVector) -> PrePotentialJet:
    """S = q ln(zeta(a)) with its first and second derivatives and the
    field in closed form at one event (see _jet_rows)."""
    jet, failure = _jet_rows(charge, x.as_array()[None])
    raise_first_failure(failure)
    return PrePotentialJet(complex(jet.value[0]), jet.gradient[0], jet.hessian[0],
                           jet.field[0])


def prepotential_jet_system(system: ChargeSystem, x: FourVector) -> PrePotentialJet:
    """Superposition of prepotential_jet over the system's charges; the
    value is summed exactly as prepotential_system sums it."""
    value = 0j
    gradient = np.zeros(4, dtype=complex)
    hessian = np.zeros((4, 4), dtype=complex)
    field = np.zeros(3, dtype=complex)
    for i, charge in enumerate(system):
        try:
            jet = prepotential_jet(charge, x)
        except PrepotentialError as exc:
            raise ChargeSystemError(i, str(exc)) from exc
        value += jet.value
        gradient += jet.gradient
        hessian += jet.hessian
        field += jet.field
    return PrePotentialJet(value, gradient, hessian, field)


# A principal log-ratio of zeta between two samples is a faithful local
# difference of ln(zeta) only while the ratio's phase stays below this.
_MAX_RATIO_ARG = math.pi / 2.0


def _log_ratios(z1: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """Principal logarithms of z1 / z0 row by row; raises StepTooLargeError
    when any ratio swings _MAX_RATIO_ARG or more."""
    ratio = z1 / z0
    phase = np.angle(ratio)
    coarse = np.abs(phase) >= _MAX_RATIO_ARG
    if coarse.any():
        raise StepTooLargeError(
            f"zeta ratio swings {phase[np.argmax(coarse)]:.3f} rad across one step"
        )
    return np.log(ratio)


def gradient_S(charge: Charge, x: FourVector, step: float | None = None) -> np.ndarray:
    """Covariant gradient (d_mu S) as a complex 4-array.

    By default the closed form of prepotential_jet; with an explicit step,
    branch-safe central differences of principal log-ratios.
    """
    if step is None:
        return prepotential_jet(charge, x).gradient
    xv = x.as_array()
    z, _ = _zeta_rows(charge, np.concatenate([xv + step * _EYE, xv - step * _EYE]))
    return charge.q * _log_ratios(z[:4], z[4:]) / (2.0 * step)


# Scale applied to the index-lowered conjugation when deriving the
# 4-potential from the gradient. With A_mu = s * (eta C eta)_mu^lam d_lam S
# and s = 1/2, the potential route through faraday_from_A reproduces the
# direct second-derivative field exactly; pinned by tests.
POTENTIAL_FIELD_SCALE = 0.5


def potential_matrix() -> np.ndarray:
    """The constant matrix mapping the gradient of S to the 4-potential:
    the conjugation with both indices lowered/raised by the metric, times
    POTENTIAL_FIELD_SCALE."""
    return POTENTIAL_FIELD_SCALE * (METRIC @ conjugation_C() @ METRIC)


_POTENTIAL_MATRIX = potential_matrix()


def potential_A(charge: Charge, x: FourVector, step: float | None = None) -> np.ndarray:
    """Complex 4-potential: the (index-lowered, scaled) conjugation applied
    to the gradient of S."""
    return _POTENTIAL_MATRIX @ gradient_S(charge, x, step=step)


_DEFAULT_REFINE_DEPTH = 40


def _stacked(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For paths of sizes[j] points stacked path after path: the path each
    row belongs to, and the row after it, which wraps from each path's
    last row to its first."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    last = np.cumsum(sizes) - 1
    nxt = np.arange(1, len(owner) + 1)
    nxt[last] = last - sizes + 1
    return owner, nxt


def _live(owner: np.ndarray, errors: dict, n: int) -> np.ndarray:
    """Rows whose path (of n) has no error."""
    failed = np.zeros(n, dtype=bool)
    failed[list(errors)] = True
    return ~failed[owner]


def _path_zetas(charge: Charge, X: np.ndarray, owner: np.ndarray,
                errors: dict) -> tuple[np.ndarray, np.ndarray]:
    """zeta at each row of X and the retarded null vectors it came from.
    Row i belongs to path owner[i]; a path with a failing row gets the
    error of its first failing row in errors (path index -> error) unless
    it has one already. Failing rows hold NaN."""
    _, A, _, failure = retarded_rows(charge.line, X)
    num, den, _, on_axis = _zeta_quotients(A)
    failure = np.where(failure != 0, failure, on_axis)
    bad = np.flatnonzero(failure)
    if len(bad):
        paths, first = np.unique(owner[bad], return_index=True)
        for path, code in zip(paths.tolist(), failure[bad[first]].tolist()):
            cls, message = ROW_FAILURES[code]
            if cls is SingularAxisError:
                cls = PathThroughSingularAxisError
            errors.setdefault(path, cls(message))
    with np.errstate(invalid="ignore"):  # NaN rows
        return num / den, A


def _delta_S_paths(
    charge: Charge, paths, max_depth: int = _DEFAULT_REFINE_DEPTH
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """delta_S_along_path for a list of paths in one batch: per path its
    delta_S and the number of samples it evaluated, the retarded null
    vectors at all the paths' points (path after path), and the error of
    each failed path (path index -> error).

    One retarded solve serves the points of every path. Refinement is
    level-synchronous across the paths: every edge whose zeta ratio swings
    pi/2 or more, whichever path it belongs to, is halved, all of them in
    one batch per level. A path fails at its first failing sample or
    midpoint, or when an edge still swings that far after max_depth
    levels; its edges are dropped at once and the other paths go on. A
    failed path's delta_S and samples mean nothing.
    """
    n = len(paths)
    sizes = np.array([len(p.points) for p in paths])
    P = np.concatenate([p.points for p in paths])
    owner, nxt = _stacked(sizes)
    errors: dict = {}
    z, A = _path_zetas(charge, P, owner, errors)
    # edge i runs from point i to point nxt[i]; a closed path wraps from
    # its last point to its first unless the two coincide
    closed = np.array([p.closed for p in paths])
    edge = (closed[owner] | (nxt > np.arange(len(P)))) & (P != P[nxt]).any(axis=1)
    i0 = np.flatnonzero(edge & _live(owner, errors, n))
    e0, e1, z0, z1, own = P[i0], P[nxt[i0]], z[i0], z[nxt[i0]], owner[i0]
    total = np.zeros(n, dtype=complex)
    splits = np.zeros(n, dtype=np.intp)
    depth = max_depth
    while True:
        ratio = z1 / z0
        coarse = np.abs(np.angle(ratio)) >= _MAX_RATIO_ARG
        np.add.at(total, own[~coarse], np.log(ratio[~coarse]))
        if not coarse.any():
            break
        e0, e1, z0, z1, own = e0[coarse], e1[coarse], z0[coarse], z1[coarse], own[coarse]
        if depth <= 0:
            for path in np.unique(own).tolist():
                errors[path] = RefinementLimitExceededError(
                    "path segment could not be refined below the phase guard")
            break
        mid = 0.5 * (e0 + e1)
        zm, _ = _path_zetas(charge, mid, own, errors)
        splits += np.bincount(own, minlength=n)
        e0, e1 = np.concatenate([e0, mid]), np.concatenate([mid, e1])
        z0, z1 = np.concatenate([z0, zm]), np.concatenate([zm, z1])
        own = np.concatenate([own, own])
        if errors:
            live = _live(own, errors, n)
            e0, e1, z0, z1, own = e0[live], e1[live], z0[live], z1[live], own[live]
        depth -= 1
    return charge.q * total, sizes + splits, A, errors


def delta_S_along_path(
    charge: Charge, path: Path, max_depth: int = _DEFAULT_REFINE_DEPTH
) -> complex:
    """Branch-tracked S-difference along a polyline: the sum of principal
    log-ratios between consecutive samples, adaptively refined wherever a
    single step would swing phase by pi/2 or more.

    For closed paths the result is 2*pi*i*q times an integer winding.
    """
    delta, _, _, errors = _delta_S_paths(charge, [path], max_depth)
    if errors:
        raise errors[0]
    return complex(delta[0])
