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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChargeSystemError,
    NotNullError,
    PathThroughSingularAxisError,
    PrepotentialError,
    RefinementLimitExceededError,
    SingularAxisError,
    StepTooLargeError,
)
from .matrices import METRIC, conjugation_C, rho
from .spacetime import (
    METRIC_SIGNS,
    FourVector,
    WorldLine,
    minkowski_dot,
    retarded_null_vector,
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
    "zeta_at",
    "prepotential_point",
    "prepotential_system",
    "prepotential_jet",
    "prepotential_jet_system",
    "gradient_S",
    "potential_A",
    "delta_S_along_path",
    "accumulate",
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


# The two equivalent quotients for zeta as (numerator, denominator) linear
# forms in (a0, a1, a2, a3): (a1 - i a2)/(a0 + a3) and (a0 - a3)/(a1 + i a2).
_QUOTIENT_FORMS = (
    (np.array([0.0, 1.0, -1j, 0.0]), np.array([1.0, 0.0, 0.0, 1.0 + 0j])),
    (np.array([1.0, 0.0, 0.0, -1.0 + 0j]), np.array([0.0, 1.0, 1j, 0.0])),
)


def _zeta_quotient(a, null_tol: float = _DEFAULT_NULL_TOL):
    """Numerator, denominator and linear forms of whichever quotient for
    zeta is better conditioned at the null vector a; the other one loses
    every digit near the singular axis."""
    if isinstance(a, FourVector):
        av = a.as_array().astype(complex)
    else:
        av = np.asarray(a, dtype=complex)
        if av.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {av.shape}")
    scale = float(np.abs(av).max()) ** 2
    if scale == 0.0:
        raise NotNullError("zero vector has no invariant ratio")
    nn = minkowski_dot(av, av)
    if abs(nn) > null_tol * scale:
        raise NotNullError(f"vector is not null: |a.a| = {abs(nn):.3e} at scale {scale:.3e}")
    transverse = abs(av[1]) ** 2 + abs(av[2]) ** 2
    axial = abs(av[0]) ** 2 + abs(av[3]) ** 2
    if transverse < SINGULAR_AXIS_FLOOR * axial:
        raise SingularAxisError(
            "a1 = a2 = 0: invariant degenerates to 0 or infinity"
        )
    den1 = av[0] + av[3]
    if abs(den1) >= abs(av[1] + 1j * av[2]):
        return av[1] - 1j * av[2], den1, _QUOTIENT_FORMS[0]
    return av[0] - av[3], av[1] + 1j * av[2], _QUOTIENT_FORMS[1]


def zeta_of(a, null_tol: float = _DEFAULT_NULL_TOL) -> Zeta:
    """Invariant ratio (a1 - i a2)/(a0 + a3) of a null vector, computed
    from whichever of the two equivalent quotients is better conditioned.

    Accepts a FourVector or any real/complex 4-array that is null in the
    bilinear sense.
    """
    num, den, _ = _zeta_quotient(a, null_tol)
    return Zeta(complex(num / den))


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


@dataclass(frozen=True)
class Path:
    """Polyline of spacetime events; closed paths wrap from the last
    sample back to the first."""

    events: tuple[FourVector, ...]
    closed: bool = False

    def __post_init__(self):
        n = len(self.events)
        if self.closed and n < 3:
            raise ValueError("a closed path needs at least 3 samples")
        if n < 2:
            raise ValueError("a path needs at least 2 samples")
        for k in range(n - 1):
            if np.array_equal(self.events[k].as_array(), self.events[k + 1].as_array()):
                raise ValueError(f"consecutive path samples {k}, {k + 1} coincide")

    def edge_events(self) -> list[tuple[FourVector, FourVector]]:
        edges = [(self.events[k], self.events[k + 1]) for k in range(len(self.events) - 1)]
        if self.closed and not np.array_equal(
            self.events[-1].as_array(), self.events[0].as_array()
        ):
            edges.append((self.events[-1], self.events[0]))
        return edges


@dataclass(frozen=True)
class PrePotentialValue:
    """Value of S together with the count of 2*pi*i*q increments
    separating it from the principal branch."""

    value: complex
    branch_index: int = 0

    @classmethod
    def from_value(cls, value: complex, q: float) -> "PrePotentialValue":
        y = (value / q).imag
        branch = math.ceil(y / (2.0 * math.pi) - 0.5)
        return cls(value, branch)


def zeta_at(charge: Charge, x: FourVector) -> Zeta:
    """Invariant of the charge's retarded null vector at the event x."""
    sol = retarded_null_vector(charge.line, x)
    return zeta_of(sol.a)


def prepotential_point(charge: Charge, x: FourVector) -> PrePotentialValue:
    """S(x) = q ln(zeta) on the principal branch."""
    z = zeta_at(charge, x).value
    return PrePotentialValue(charge.q * cmath.log(z), 0)


def prepotential_system(system: ChargeSystem, x: FourVector) -> PrePotentialValue:
    """Sum of principal-branch values over the system's charges."""
    total = 0j
    for i, charge in enumerate(system):
        try:
            total += prepotential_point(charge, x).value
        except PrepotentialError as exc:
            raise ChargeSystemError(i, str(exc)) from exc
    return PrePotentialValue(total, 0)


def accumulate(start: PrePotentialValue, q: float, delta: complex) -> PrePotentialValue:
    """Carry a path-accumulated increment onto a starting value, updating
    the branch index."""
    return PrePotentialValue.from_value(start.value + delta, q)


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


def _velocity_field(q: float, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Field 3-vector E + iB of a charge moving with 4-velocity u, from the
    retarded null vector a: F_j = cal * q * a_mu rho^j[mu,nu] u^nu / (a.u)^3.
    No validation; a must be null and a.u positive."""
    a_low = METRIC_SIGNS * a
    au = float(a_low @ u)
    return (UNIFORM_FIELD_CALIBRATION * q / au**3) * (_RHO_STACK @ u) @ a_low


@dataclass(frozen=True)
class PrePotentialJet:
    """S at an event with its covariant gradient d_nu S, its Hessian
    d_nu d_lam S, and the field 3-vector E + iB they carry."""

    value: complex
    gradient: np.ndarray
    hessian: np.ndarray
    field: np.ndarray


def prepotential_jet(charge: Charge, x: FourVector) -> PrePotentialJet:
    """S = q ln(zeta(a)) with its first and second derivatives in closed
    form, from one retarded solve.

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
    sol = retarded_null_vector(charge.line, x)
    a = sol.a.as_array()
    u = sol.u.as_array()
    num, den, (n, d) = _zeta_quotient(a)
    q = charge.q
    g = n / num - d / den
    h = np.outer(d, d) / den**2 - np.outer(n, n) / num**2
    u_low = METRIC_SIGNS * u
    au = float(a @ u_low)
    k = METRIC_SIGNS * a / au
    J = _EYE - np.outer(u, k)
    M = (_ETA - np.outer(u_low, k) - np.outer(k, u_low) + np.outer(k, k)) / au
    return PrePotentialJet(
        q * cmath.log(complex(num / den)),
        q * (g @ J),
        q * (J.T @ h @ J - (g @ u) * M),
        _velocity_field(q, a, u),
    )


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


_MAX_RATIO_ARG = math.pi / 2.0


def _safe_log_ratio(z1: complex, z0: complex) -> complex:
    ratio = z1 / z0
    if abs(cmath.phase(ratio)) >= _MAX_RATIO_ARG:
        raise StepTooLargeError(
            f"zeta ratio swings {cmath.phase(ratio):.3f} rad across one step"
        )
    return cmath.log(ratio)


def gradient_S(charge: Charge, x: FourVector, step: float | None = None) -> np.ndarray:
    """Covariant gradient (d_mu S) as a complex 4-array.

    By default the closed form of prepotential_jet; with an explicit step,
    branch-safe central differences of principal log-ratios.
    """
    if step is None:
        return prepotential_jet(charge, x).gradient
    xv = x.as_array()
    grad = np.empty(4, dtype=complex)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = step
        zp = zeta_at(charge, FourVector.from_array(xv + e)).value
        zm = zeta_at(charge, FourVector.from_array(xv - e)).value
        grad[mu] = charge.q * _safe_log_ratio(zp, zm) / (2.0 * step)
    return grad


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


def _zeta_checked(charge: Charge, x: FourVector) -> complex:
    try:
        return zeta_at(charge, x).value
    except (SingularAxisError, PrepotentialError) as exc:
        if isinstance(exc, SingularAxisError):
            raise PathThroughSingularAxisError(str(exc)) from exc
        raise


def _segment_delta(
    charge: Charge,
    e0: np.ndarray,
    z0: complex,
    e1: np.ndarray,
    z1: complex,
    depth: int,
    counter: list[int],
) -> complex:
    ratio = z1 / z0
    if abs(cmath.phase(ratio)) < _MAX_RATIO_ARG:
        return charge.q * cmath.log(ratio)
    if depth <= 0:
        raise RefinementLimitExceededError(
            "path segment could not be refined below the phase guard"
        )
    mid = 0.5 * (e0 + e1)
    zm = _zeta_checked(charge, FourVector.from_array(mid))
    counter[0] += 1
    left = _segment_delta(charge, e0, z0, mid, zm, depth - 1, counter)
    right = _segment_delta(charge, mid, zm, e1, z1, depth - 1, counter)
    return left + right


def _delta_S_counted(
    charge: Charge, path: Path, max_depth: int = _DEFAULT_REFINE_DEPTH
) -> tuple[complex, int]:
    edges = path.edge_events()
    zcache: dict[int, complex] = {}

    def z(ev: FourVector) -> complex:
        key = id(ev)
        if key not in zcache:
            zcache[key] = _zeta_checked(charge, ev)
        return zcache[key]

    counter = [0]
    total = 0j
    for a, b in edges:
        total += _segment_delta(
            charge, a.as_array(), z(a), b.as_array(), z(b), max_depth, counter
        )
    samples = len({id(e) for e in path.events}) + counter[0]
    return total, samples


def delta_S_along_path(
    charge: Charge, path: Path, max_depth: int = _DEFAULT_REFINE_DEPTH
) -> complex:
    """Branch-tracked S-difference along a polyline: the sum of principal
    log-ratios between consecutive samples, adaptively refined wherever a
    single step would swing phase by pi/2 or more.

    For closed paths the result is 2*pi*i*q times an integer winding.
    """
    total, _ = _delta_S_counted(charge, path, max_depth)
    return total
