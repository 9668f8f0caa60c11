"""The complex invariant zeta, the scalar pre-potential S = q ln(zeta),
its closed-form derivatives, superposition over discrete charges, the
conjugated 4-potential, and branch-tracked accumulation of S-differences
along paths.

Branch policy: finite differences are always principal logarithms of
zeta ratios between nearby points, never differences of independently
branched logarithms; closed-form derivatives of ln(zeta) are
single-valued. Multi-valuedness enters only through path accumulation,
and only arg(zeta), the polar angle of (a1, -a2), is multiple-valued: a
path sums the phase each edge turns, read off where a2 vanishes on it,
while ln|zeta| changes by its end value less its start value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ON_AXIS,
    ROW_FAILURES,
    ChargeSystemError,
    NotNullError,
    PathThroughSingularAxisError,
    PrepotentialError,
    SingularAxisError,
    StepTooLargeError,
    raise_first_failure,
)
from .matrices import METRIC, _RHO, conjugation_C
from .spacetime import (
    ETA,
    METRIC_SIGNS,
    FourVector,
    WorldLine,
    _mdot_rows,
    _retarded_table_rows,
    _segment_table,
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
    "prepotential_jets",
    "delta_S_along_path",
    "local_scale",
    "local_scales",
]

# Points with (a1)^2 + (a2)^2 below this fraction of (a0)^2 + (a3)^2 are
# treated as lying on the singular ray where zeta is 0 or infinite.
SINGULAR_AXIS_FLOOR = 1e-24

# A vector a counts as null when |a.a| is at most this fraction of
# max_mu |a_mu|^2.
NULL_TOL = 1e-10


@dataclass(frozen=True)
class Zeta:
    """Dimensionless complex invariant of a null 4-vector."""

    value: complex


# The two equivalent quotients for zeta, (a1 - i a2)/(a0 + a3) and
# (a0 - a3)/(a1 + i a2), as linear forms in (a0, a1, a2, a3): row p of each
# table belongs to quotient p.
_NUMERATORS = np.array([[0.0, 1.0, -1j, 0.0], [1.0, 0.0, 0.0, -1.0]])
_DENOMINATORS = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1j, 0.0]])


def _reduce_rows(ufunc, M: np.ndarray) -> np.ndarray:
    """ufunc.reduce(M, axis=1) of an (N, 4) array, taken column by column:
    numpy reduces along rows of 4 about 20x slower. Bit-identical for the
    exact reductions it serves (maximum, logical_and, logical_or)."""
    return ufunc(ufunc(M[:, 0], M[:, 1]), ufunc(M[:, 2], M[:, 3]))


def _zeta_quotients(A):
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
    scale = _reduce_rows(np.maximum, sq) ** 2
    if (scale == 0.0).any():
        raise NotNullError("zero vector has no invariant ratio")
    # a.a component by component: numpy runs each product along the N
    # rows, where _mdot_rows's einsum runs along rows of 4, at half the speed
    nn = np.abs(A[:, 0] * A[:, 0] - A[:, 1] * A[:, 1] - A[:, 2] * A[:, 2] - A[:, 3] * A[:, 3])
    if (nn > NULL_TOL * scale).any():
        i = int(np.argmax(nn > NULL_TOL * scale))
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


def _charge_quotients(A, parts):
    """_zeta_quotients of rows laid charge after charge, np.split(A, parts)
    giving each charge's rows. An error it raises for the batch is raised
    as ChargeSystemError(k, ...), k the lowest charge whose rows alone
    raise it."""
    try:
        return _zeta_quotients(A)
    except PrepotentialError:
        for k, part in enumerate(np.split(A, parts)):
            try:
                _zeta_quotients(part)
            except PrepotentialError as exc:
                raise ChargeSystemError(k, str(exc)) from exc
        raise


def zetas_of(A) -> np.ndarray:
    """zeta of each row of an (N, 4) array of null vectors, real or
    complex, from the better-conditioned quotient; raises the error of the
    first failing row."""
    num, den, _, failure = _zeta_quotients(A)
    raise_first_failure(failure)
    return num / den


def zeta_of(a) -> Zeta:
    """Invariant ratio (a1 - i a2)/(a0 + a3) of a null vector, computed
    from whichever of the two equivalent quotients is better conditioned.

    Accepts a FourVector or any real/complex 4-array that is null in the
    bilinear sense.
    """
    av = a.as_array() if isinstance(a, FourVector) else np.asarray(a)
    if av.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {av.shape}")
    return Zeta(complex(zetas_of(av[None])[0]))


@dataclass(frozen=True)
class Charge:
    """A point charge q carried along a world-line."""

    q: float
    line: WorldLine

    def __post_init__(self):
        if not math.isfinite(self.q) or self.q == 0.0:
            raise ValueError(f"charge must be finite and nonzero, got {self.q!r}")
        if not isinstance(self.line, WorldLine):
            raise TypeError(f"unknown world-line type: {type(self.line).__name__}")


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

    @cached_property
    def segments(self) -> tuple:
        """The charges' segment tables, charge after charge
        (spacetime._segment_table), for one retarded solve of the system."""
        return _segment_table([charge.line for charge in self.charges])


def _path_failure(P: np.ndarray, sizes: np.ndarray, closed: np.ndarray):
    """The first path of a stack (rows P, sizes[j] rows and closedness
    closed[j] for path j, as in _PathStack) that is not a valid Path, with
    its error message, else None. A path fails on the first of: too few
    samples, points not an (N, 4) array (a lone path's only), a point not
    finite, two consecutive samples that coincide."""
    few = np.flatnonzero(sizes < np.where(closed, 3, 2))

    def too_few(j):
        return "a closed path needs at least 3 samples" if closed[j] else (
            "a path needs at least 2 samples")

    if P.ndim != 2 or P.shape[1] != 4:
        return 0, too_few(0) if len(few) else (
            f"path points must be an (N, 4) array, got shape {P.shape}")
    start = np.cumsum(sizes) - sizes
    wild = np.flatnonzero(~_reduce_rows(np.logical_and, np.isfinite(P)))
    same = _reduce_rows(np.logical_and, P[1:] == P[:-1])
    same[start[1:] - 1] = False  # a path's last row against the next one's first
    same = np.flatnonzero(same)
    # the earliest path that fails, on its earliest check
    fails = [(int(few[0]), 0)] if len(few) else []
    fails += [(int(np.searchsorted(start, rows[0], side="right")) - 1, rank)
              for rank, rows in ((1, wild), (2, same)) if len(rows)]
    if not fails:
        return None
    j, rank = min(fails)
    k = int(same[0] - start[j]) if rank == 2 else 0
    return j, (too_few(j), "path points must be finite",
               f"consecutive path samples {k}, {k + 1} coincide")[rank]


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
        failure = _path_failure(pts, np.array([len(pts)]), np.array([bool(closed)]))
        if failure is not None:
            raise ValueError(failure[1])
        pts.setflags(write=False)
        self._set(pts, closed)

    @classmethod
    def _of_rows(cls, points: np.ndarray, closed: bool) -> Path:
        """The path of read-only points that _path_failure passed."""
        path = object.__new__(cls)
        path._set(points, closed)
        return path

    def _set(self, points: np.ndarray, closed: bool) -> None:
        object.__setattr__(self, "points", points)
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
    """Value of S on the principal branch."""

    value: complex


def _zeta_rows(charge: Charge, X) -> np.ndarray:
    """zeta at each row of an (N, 4) array of events; raises the error of
    the first failing row."""
    _, A, _, failure = retarded_rows(charge.line, X)
    num, den, _, on_axis = _zeta_quotients(A)
    raise_first_failure(np.where(failure != 0, failure, on_axis))
    return num / den


def zeta_at(charge: Charge, x: FourVector) -> Zeta:
    """Invariant of the charge's retarded null vector at the event x."""
    return Zeta(complex(_zeta_rows(charge, x.as_array()[None])[0]))


def prepotential_point(charge: Charge, x: FourVector) -> PrePotentialValue:
    """S(x) = q ln(zeta) on the principal branch."""
    z = _zeta_rows(charge, x.as_array()[None])
    return PrePotentialValue(complex(charge.q * np.log(z[0])))


def prepotential_system(system: ChargeSystem, x: FourVector) -> PrePotentialValue:
    """Sum of principal-branch values over the system's charges."""
    total = 0j
    for i, charge in enumerate(system):
        try:
            total += prepotential_point(charge, x).value
        except PrepotentialError as exc:
            raise ChargeSystemError(i, str(exc)) from exc
    return PrePotentialValue(total)


def local_scales(charge: Charge, X) -> np.ndarray:
    """Smallest geometric length scale (N,) at each row of an (N, 4)
    array of events for the charge's field: spatial retardation distance,
    the light-cone denominator a.u / u0, and the distance from the
    singular axis. Used to size stencil steps; raises the error of the
    first failing row."""
    _, A, U, failure = retarded_rows(charge.line, X)
    raise_first_failure(failure)
    r_spatial = np.sqrt(np.einsum("ij,ij->i", A[:, 1:], A[:, 1:]))
    cone = _mdot_rows(A, U) / U[:, 0]
    axis = np.hypot(A[:, 1], A[:, 2])
    return np.maximum(np.minimum(np.minimum(r_spatial, cone), axis), 1e-300)


def local_scale(charge: Charge, x: FourVector) -> float:
    """local_scales at one event."""
    return float(local_scales(charge, x.as_array()[None])[0])


# Overall factor of the direct uniform-motion field, from the
# normalisation of rho^j. For a rest charge (u = e0, a = (r, x)) the bare
# contraction a_mu rho^j[mu, nu] u^nu / (a.u)^3 keeps one term,
# a_j rho^j[j, 0] / r^3: lowering the spatial index gives a_j = -x_j, and
# rho^j[j, 0] = 1/2 since (rho^j)^2 = I/4. It reads -x_j / (2 r^3), so
# Coulomb's E = q x / r^3 fixes the factor at 1 / (-1/2) = -2.
UNIFORM_FIELD_CALIBRATION = -2.0


# rho^j[mu, nu] at row 4 mu + nu, column j - 1: the contraction
# a_mu rho^j[mu, nu] u^nu of each row's a_low u^T, flattened, as one product
_RHO_COLUMNS = _RHO.reshape(3, 16).T.copy()


def _velocity_fields(q: float, A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Field 3-vectors E + iB (N, 3) of a charge moving with 4-velocities U
    (N, 4), from the retarded null vectors A (N, 4): F_j = cal * q *
    a_mu rho^j[mu,nu] u^nu / (a.u)^3. No validation; each a must be null
    and a.u positive."""
    F = ((METRIC_SIGNS * A)[:, :, None] * U[:, None, :]).reshape(len(A), 16) @ _RHO_COLUMNS
    return (UNIFORM_FIELD_CALIBRATION * q / _mdot_rows(A, U) ** 3)[:, None] * F


@dataclass(frozen=True)
class PrePotentialJet:
    """S at an event with its Hessian d_nu d_lam S and the field 3-vector
    E + iB it carries; evaluated over N events, each field gains a leading
    axis of length N."""

    value: complex
    hessian: np.ndarray
    field: np.ndarray


def _jet_rows(system: ChargeSystem, X) -> tuple[PrePotentialJet, np.ndarray]:
    """S = q ln(zeta(a)) with its second derivatives in closed form for
    each charge of the system at each row of an (N, 4) array of events,
    from one retarded solve: C * N rows, charge after charge, with their
    failure codes (failing rows hold NaN). A batch-level error of the
    quotients names its charge (_charge_quotients).

    zeta = num / den, with num = n.a and den = d.a the linear forms of the
    quotient zeta_of uses, so ln(zeta) has a-gradient g = n^ - d^ and
    a-Hessian h = d^ d^T - n^ n^T, with n^ = n / num and d^ = d / den. The
    motion is uniform (4-velocity u) within the segment holding the
    retarded point, so da^mu/dx^nu = J^mu_nu = delta^mu_nu - u^mu k_nu
    with k = a_low / (a.u), and by the chain rule

        dd S = q (J^T h J - (g.u) M),  M = dk/dx = (eta - u k^T - k u^T + k k^T) / (a.u)

    (u lowered in M). h has rank 2 and J^T v = v - k (u.v), so

        dd S = q (p p^T - m m^T - c (eta - u u^T + w w^T))

    with p = d^ - k (u.d^), m = n^ - k (u.n^), w = u - k, c = (g.u) / (a.u)
    (u lowered; u.v and g.u are plain sums over the index): outer products
    of 4-vectors, with q folded into one factor of each and into c. The
    field is the contraction of dd S (faraday_from_hessian) summed in
    closed form: near the singular axis the Hessian entries grow like
    1/rho^2 while the field does not, so contracting the rounded matrix
    would lose about eps * (r/rho)^2 relative.
    """
    _, A, U, failure = _retarded_table_rows(system.segments, X)
    U = U.reshape(len(A), 4)
    q = np.repeat([charge.q for charge in system], len(X))
    num, den, pick, on_axis = _charge_quotients(A, len(system))
    # failing rows carry NaN through the arithmetic
    with np.errstate(invalid="ignore"):
        n_hat = _NUMERATORS[pick] / num[:, None]
        d_hat = _DENOMINATORS[pick] / den[:, None]
        un = np.einsum("ni,ni->n", n_hat, U)
        ud = np.einsum("ni,ni->n", d_hat, U)
        U_low = METRIC_SIGNS * U
        au = _mdot_rows(A, U)
        K = METRIC_SIGNS * A / au[:, None]
        p = d_hat - K * ud[:, None]
        m = n_hat - K * un[:, None]
        w = U_low - K
        qc = q * (un - ud) / au
        hessian = (q[:, None] * p)[:, :, None] * p[:, None, :]
        hessian -= (q[:, None] * m)[:, :, None] * m[:, None, :]
        hessian -= qc[:, None, None] * (
            ETA - U_low[:, :, None] * U_low[:, None, :] + w[:, :, None] * w[:, None, :])
        jet = PrePotentialJet(q * np.log(num / den), hessian, _velocity_fields(q, A, U))
    return jet, np.where(failure != 0, failure, on_axis)


def prepotential_jets(system: ChargeSystem, X) -> tuple[PrePotentialJet, np.ndarray]:
    """Superposition of the closed-form jets over the system's charges at
    each row of an (N, 4) array of events, with per-row failure codes
    (errors.ROW_FAILURES): a row fails with the first failing charge's
    code and holds NaN. A numerical failure on charge k raises
    ChargeSystemError(k, ...) for the batch. So does a row that no charge
    fails whose S, Hessian or field is not finite (its squares overflow,
    say): k is the first charge whose own jet there is not finite, or the
    last one when only the sum is not."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    parts, fail = _jet_rows(system, X)
    failure = np.zeros(n, dtype=np.int8)
    value = np.zeros(n, dtype=complex)
    hessian = np.zeros((n, 4, 4), dtype=complex)
    field = np.zeros((n, 3), dtype=complex)
    # each charge's slice added onto zeros in charge order: the bits, -0.0
    # and NaN included, of adding the one-charge jets in turn
    for k in range(len(system)):
        rows = slice(k * n, (k + 1) * n)
        failure = np.where(failure != 0, failure, fail[rows])
        value += parts.value[rows]
        hessian += parts.hessian[rows]
        field += parts.field[rows]
    jet = PrePotentialJet(value, hessian, field)
    bad = np.flatnonzero((failure == 0) & ~_finite_rows(jet))
    if len(bad):
        own = _finite_rows(parts)[bad[0]::n]
        k = int(np.argmin(own)) if not own.all() else len(system) - 1
        raise ChargeSystemError(k, "S, its Hessian or field is not finite "
                                f"at {tuple(X[bad[0]].tolist())}")
    return jet, failure


def _finite_rows(jet: PrePotentialJet) -> np.ndarray:
    """Per row, whether S, its Hessian and the field are all finite."""
    return (np.isfinite(jet.value) & np.isfinite(jet.hessian).all(axis=(1, 2))
            & np.isfinite(jet.field).all(axis=1))


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


# Scale s of the index-lowered conjugation in the 4-potential
# A_mu = s (eta C eta)_mu^lam d_lam S, from the normalisation of rho^j and
# C. faraday_from_A contracts F_j = 2 d^nu rho^j[mu, nu] d_nu A_mu, so its
# coefficient of d_nu d_lam S is 2 s (eta rho^j^T eta C eta)[nu, lam]: 2 s
# times an entry 1/2 of rho^j ((rho^j)^2 = I/4) times an entry of modulus 1
# of C = 2 conj(rho^3), so 0 or of modulus s, at (nu, lam) and (lam, nu)
# alike. faraday_from_hessian_rows weighs each off-diagonal pair of second
# derivatives by 1 and each diagonal one by 1/2, with the same phases, so
# 2 s = 1 and s = 1/2 give the potential route the direct field for every
# symmetric Hessian.
POTENTIAL_FIELD_SCALE = 0.5


def potential_matrix() -> np.ndarray:
    """The constant matrix mapping the gradient of S to the 4-potential:
    the conjugation with both indices lowered/raised by the metric, times
    POTENTIAL_FIELD_SCALE."""
    return POTENTIAL_FIELD_SCALE * (METRIC @ conjugation_C() @ METRIC)


def _stacked(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For paths of sizes[j] points stacked path after path: the path each
    row belongs to, and the row after it, which wraps from each path's
    last row to its first."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    last = np.cumsum(sizes) - 1
    nxt = np.arange(1, len(owner) + 1)
    nxt[last] = last - sizes + 1
    return owner, nxt


@dataclass(frozen=True)
class _PathStack:
    """The geometry of a list of paths, stacked path after path, that every
    charge's _delta_S_paths reads: the (N, 4) points and the path each row
    belongs to (owner); per edge, the rows of its start (edges) and of its
    end (ends, wrapping within its path) and the Minkowski square of its
    chord (chord_sq); per path, its size, closedness and last row."""

    points: np.ndarray
    owner: np.ndarray
    edges: np.ndarray
    ends: np.ndarray
    chord_sq: np.ndarray
    sizes: np.ndarray
    closed: np.ndarray
    last: np.ndarray


def _path_stack(P: np.ndarray, sizes: np.ndarray, closed: np.ndarray) -> _PathStack:
    """The _PathStack of the paths stacked as the rows of P, sizes[j] rows
    and closedness closed[j] for path j, built once for all charges."""
    owner, nxt = _stacked(sizes)
    last = np.cumsum(sizes) - 1
    # edge i runs from point i to point nxt[i]; a closed path wraps from
    # its last point to its first unless the two coincide
    edge = _reduce_rows(np.logical_or, P != np.take(P, nxt, axis=0))
    edge[last[~closed]] = False
    edges = np.flatnonzero(edge)
    ends = np.take(nxt, edges)
    chord = np.take(P, ends, axis=0) - np.take(P, edges, axis=0)
    return _PathStack(P, owner, edges, ends, _mdot_rows(chord, chord), sizes, closed, last)


def _stack_paths(paths) -> _PathStack:
    """The _PathStack of a list of paths."""
    sizes = np.array([len(p.points) for p in paths], dtype=np.intp)
    P = np.concatenate([p.points for p in paths]) if len(sizes) else np.empty((0, 4))
    return _path_stack(P, sizes, np.array([p.closed for p in paths], dtype=bool))


def _a2_roots(table: tuple, stack: _PathStack) -> np.ndarray:
    """Per segment of a segment table (spacetime._segment_table) and per
    edge, the two parameters t in [0, 1) (2, M, E) of the points
    (1 - t) x_start + t x_end where a2 of the retarded null vector may
    vanish, else 1. On a segment through R with unit velocity u, Q = D - s u
    (D = x - R, s = D.u) is affine in t and a = Q + r u, r^2 = -Q.Q:
    a2 = Q2 + u2 r is 0 only where the quadratic f = u2^2 r^2 - Q2^2 is.
    r^2 is taken from Q, not as s^2 - D.D, which cancels when x is far in
    s from R: the roots would then depend on which event names the line.
    Each segment gives a row of Q, s and r^2 (the NaN row at a sampled
    line's last knot gives NaN roots, none kept); of a line of several,
    only the roots whose retarded point, s - r past R in proper time, lies
    on their own segment are kept. On an edge in a2 = 0, where f = 0,
    those of a1 (the axis) stand in."""
    (taus, R, U, rate), first, last = table  # R, the knot starting each segment
    P, W, i0, i1 = stack.points, METRIC_SIGNS * U, stack.edges, stack.ends
    Q = [P[:, m] - R[:, m, None] for m in range(4)]  # D, until s is known
    s = sum(W[:, m, None] * Q[m] for m in range(4))
    for m in range(4):
        Q[m] -= s * U[:, m, None]
    r2 = Q[1] * Q[1] + Q[2] * Q[2] + Q[3] * Q[3] - Q[0] * Q[0]
    r0 = np.take(r2, i0, axis=1)
    # r^2 along the edge is r0 + dr2 t + L t^2, with L = -dQ.dQ
    L = (np.take(s, i1, axis=1) - np.take(s, i0, axis=1)) ** 2 - stack.chord_sq
    dr2 = np.take(r2, i1, axis=1) - r0 - L

    def quadratic(j):  # f = a t^2 + 2 b t + c for component j
        uu, q0 = U[:, j, None] ** 2, np.take(Q[j], i0, axis=1)
        dq = np.take(Q[j], i1, axis=1) - q0
        return uu * L - dq * dq, 0.5 * uu * dr2 - q0 * dq, uu * r0 - q0 * q0

    a, b, c = quadratic(2)
    if (flat := (a == 0.0) & (b == 0.0) & (c == 0.0)).any():
        a, b, c = (np.where(flat, one, two) for one, two in zip(quadratic(1), (a, b, c)))
    # inf and NaN roots fall outside [0, 1); a double root's discriminant may round below 0
    with np.errstate(all="ignore"):
        q = -(b + np.copysign(np.sqrt(np.maximum(b * b - a * c, 0.0)), b))
        t = np.stack([q / a, c / q])
    keep = (t >= 0.0) & (t < 1.0)
    # per segment, whether its line has several knots; a one-knot line's
    # segment is unbounded, and its span below means nothing
    many = np.repeat(last > first, last - first + 1)
    if many.any():
        half, k, e = np.nonzero(keep & many[:, None])
        te = t[half, k, e]
        st = s[k, i0[e]] + te * (s[k, i1[e]] - s[k, i0[e]])
        rt = np.sqrt(np.maximum(r0[k, e] + te * (dr2[k, e] + te * L[k, e]), 0.0))
        # a root near a knot may round off both segments that share it; a
        # spare root only adds a sample, a dropped one loses a turn
        slack = 1e-6 * (np.abs(st) + rt)
        span = np.diff(taus, append=np.nan) / rate  # proper time along each segment
        keep[half, k, e] = (st - rt >= -slack) & (st - rt <= span[k] + slack)
    return np.where(keep, t, 1.0)


def _table_zetas(table: tuple, X: np.ndarray, pick, parts) -> tuple[np.ndarray, np.ndarray]:
    """zeta and failure codes at the rows A[pick] of the retarded solve of
    every line of a segment table at each row of X, laid charge after
    charge as np.split(A[pick], parts) gives them; failing rows hold NaN.
    Rows of A not picked can neither fail nor raise."""
    _, A, _, failure = _retarded_table_rows(table, X)
    num, den, _, on_axis = _charge_quotients(A[pick], parts)
    failure = failure[pick]
    with np.errstate(invalid="ignore"):  # NaN rows
        return num / den, np.where(failure != 0, failure, on_axis)


def _path_failures(code: np.ndarray, charge: np.ndarray, path: np.ndarray,
                   points: int) -> dict:
    """The error each failed path meets first (path index -> (charge,
    error)), from the codes of failing rows with each row's charge and
    path: the first `points` rows are points, the rest samples, each part
    in charge order and, within a charge, in the order of its rows. A path
    gets the error of its lowest failing charge, of that charge's first
    failing point, else of its first failing sample."""
    if not len(code):
        return {}
    order = np.argsort(2 * charge + (np.arange(len(code)) >= points), kind="stable")
    paths, first = np.unique(path[order], return_index=True)
    errors = {}
    for j, k, c in zip(paths.tolist(), charge[order[first]].tolist(),
                       code[order[first]].tolist()):
        cls, message = ROW_FAILURES[c]
        if cls is SingularAxisError:
            cls = PathThroughSingularAxisError
        errors[j] = (k, cls(message))
    return errors


def _delta_S_paths(system: ChargeSystem, stack: _PathStack) -> tuple[np.ndarray, np.ndarray, dict]:
    """delta_S_along_path for every charge of a system and a stack of paths
    in one pass: per charge and path its delta_S (C, n), per path the
    number of samples the charges evaluated, and the error of each failed
    path (path index -> (charge k, error)): that of the lowest charge k
    that fails on it, at its first failing point, else at its first
    failing sample. A failed path's delta_S and samples mean nothing. A
    batch-level error of the quotients names its charge
    (_charge_quotients), points before samples.

    Only arg(zeta), the polar angle of (a1, -a2) as a0 + a3 >= 0, is
    multiple-valued. An edge without _a2_roots turns by less than pi: its
    phase is that of its zeta ratio, unless that is pi/2 or more (ends
    within rounding of a2 = 0 on either side of the axis read +-pi). Such
    an edge, or one with roots, gets samples at the roots and midway
    between them and its ends, where (a1, -a2) keeps to one half-plane:
    its phase is its ends' angles read in those half-planes, plus a turn
    at each root at a1 < 0 where the half-plane flips. Im delta_S is q
    times the edge phases summed in row order; Re delta_S is
    q ln|zeta(last) / zeta(first)| on an open path, 0 on a closed one.

    The points are solved as one table of C * N rows, and the split edges
    as (charge, edge) pairs whose samples are solved for every charge, of
    which each sample keeps its own charge's row: every value is that of
    the charge's pass alone.
    """
    table = system.segments
    _, first, last = table
    c, n, N = len(system), len(stack.sizes), len(stack.points)
    P, owner, i0, i1 = stack.points, stack.owner, stack.edges, stack.ends
    # _a2_roots before the solve: its temporaries, freed below its result,
    # then hold the solve's work arrays, where glibc would otherwise trim
    # the heap between the two and fault it back in
    roots = _a2_roots(table, stack)
    z, point_failure = _table_zetas(table, P, slice(None), c)
    z = z.reshape(c, N)
    with np.errstate(invalid="ignore"):  # a failed path's zeta may be NaN
        phase = np.angle(np.take(z, i1, axis=1) / np.take(z, i0, axis=1))
    hit = (roots < 1.0).any(axis=0)
    rooted = np.array([hit[f:l + 1].any(axis=0) for f, l in zip(first.tolist(), last.tolist())])
    # the split (charge, edge) pairs, charge after charge
    ks, split = np.divmod(np.flatnonzero(rooted | (np.abs(phase) >= _MAX_RATIO_ARG)), len(i0))
    # each pair's roots, padded with 1 (no root) to the most knots of a line
    knots = last - first + 1
    col = np.arange(knots.max())
    seg = np.minimum(first[ks, None] + col, last[ks, None])
    own = np.where(col < knots[ks, None], roots[:, seg, split[:, None]], 1.0)
    # breakpoints: the ends and the sorted roots (a missing root is 1);
    # samples midway along each interval, then at each root
    m = 2 * len(col)  # roots per pair
    B = np.pad(np.sort(own.transpose(1, 0, 2).reshape(len(ks), m), axis=1),
               ((0, 0), (1, 1)), constant_values=(0, 1))
    T = np.concatenate([0.5 * (B[:, 1:] + B[:, :-1]), B[:, 1:-1]], axis=1)
    inner = T < 1.0
    e0, e1, row, t = i0[split], i1[split], np.nonzero(inner)[0], T[inner][:, None]
    X = (1.0 - t) * np.take(P, e0[row], axis=0) + t * np.take(P, e1[row], axis=0)
    # each sample keeps its own charge's row
    kr = ks[row]
    Z = np.ones(T.shape, dtype=complex)
    Z[inner], sample_failure = _table_zetas(
        table, X, kr * len(X) + np.arange(len(X)), np.cumsum(np.bincount(kr, minlength=c))[:-1])
    # the half-plane of (a1, -a2) on each interval; an end's angle more than
    # pi/2 off the one next to it is there by rounding, a turn round
    side = np.where(Z[:, :m + 1].imag < 0.0, -1.0, 1.0)
    h = np.stack([side[:, 0], side[np.arange(len(split)), (B < 1.0).sum(axis=1) - 1]])
    theta = np.angle(np.stack([z[ks, e0], z[ks, e1]]))
    theta = np.where(h * theta < -math.pi / 2, theta + 2.0 * math.pi * h, theta)
    cuts = ((side[:, :-1] - side[:, 1:]) * (Z[:, m + 1:].real < 0.0)).sum(axis=1)
    phase[ks, split] = theta[1] - theta[0] + math.pi * cuts
    # bins offset by charge: each adds its charge's edges in row order
    bins = owner[i0] + n * np.arange(c)[:, None]
    turned = np.bincount(bins.ravel(), phase.ravel(), minlength=c * n).reshape(c, n)
    with np.errstate(invalid="ignore"):  # a failed path's samples may be NaN
        stretched = np.log(np.abs(z[:, stack.last] / z[:, stack.last - stack.sizes + 1]))
    q = np.array([charge.q for charge in system])[:, None]
    delta = np.empty((c, n), dtype=complex)
    # + 0.0 turns -0.0 into 0.0, so a closed path never reads "-0"
    delta.real = q * np.where(stack.closed, 0.0, stretched) + 0.0
    delta.imag = q * turned + 0.0
    sample_owner = owner[e0[row]]
    pb, sb = np.flatnonzero(point_failure), np.flatnonzero(sample_failure)
    errors = _path_failures(np.concatenate([point_failure[pb], sample_failure[sb]]),
                            np.concatenate([pb // N, kr[sb]]),
                            np.concatenate([owner[pb % N], sample_owner[sb]]), len(pb))
    return delta, c * stack.sizes + np.bincount(sample_owner, minlength=n), errors


def delta_S_along_path(charge: Charge, path: Path) -> complex:
    """Branch-tracked S-difference along a polyline: q times the phase zeta
    turns along each edge, read off where a2 of the retarded null vector
    vanishes on it, plus q ln|zeta(end) / zeta(start)|, which is 0 for a
    closed path.

    For closed paths the result is 2*pi*i*q times an integer winding.
    """
    try:
        delta, _, errors = _delta_S_paths(ChargeSystem((charge,)), _stack_paths([path]))
    except ChargeSystemError as exc:  # a lone charge's error is its own
        raise exc.__cause__ from None
    if errors:
        raise errors[0][1]
    return complex(delta[0, 0])
