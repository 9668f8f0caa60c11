"""Field derivation and verification: the complex field 3-vector from
second derivatives of the scalar potential, the direct uniform-motion
formula, textbook oracles, residual stencils, and the covariance check on
the complex field tensor.

All stencils are branch-safe: every finite difference of S is a principal
log-ratio between nearby points, so branch cuts never leak into
derivatives.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    NotNullError,
    PrepotentialError,
    SingularStencilError,
    StepTooLargeError,
)
from .matrices import rho, upsilon, upsilon_bar
from .potential import (
    Charge,
    ChargeSystem,
    UNIFORM_FIELD_CALIBRATION,
    _velocity_field,
    local_scale,
    potential_A,
    potential_matrix,
    zeta_at,
)
from .spacetime import FourVector, minkowski_dot

__all__ = [
    "FaradayVector",
    "ScalarField",
    "PotentialField",
    "SECOND_STEP_FACTOR",
    "UNIFORM_FIELD_CALIBRATION",
    "second_partials",
    "faraday_from_hessian",
    "faraday_from_S",
    "potential_field",
    "faraday_from_A",
    "faraday_uniform",
    "coulomb_oracle",
    "boosted_coulomb_oracle",
    "wave_residual",
    "vacuum_maxwell_residual",
    "complex_faraday_tensor",
    "mixed_em_tensor",
    "CovarianceCheck",
    "claim1_covariance_check",
]


@dataclass(frozen=True)
class FaradayVector:
    """Complex field 3-vector F_j = E_j + i B_j."""

    F1: complex
    F2: complex
    F3: complex

    @classmethod
    def from_array(cls, arr) -> "FaradayVector":
        a = np.asarray(arr, dtype=complex)
        return cls(complex(a[0]), complex(a[1]), complex(a[2]))

    @classmethod
    def from_EB(cls, E, B) -> "FaradayVector":
        return cls.from_array(np.asarray(E, dtype=float) + 1j * np.asarray(B, dtype=float))

    def as_array(self) -> np.ndarray:
        return np.array([self.F1, self.F2, self.F3], dtype=complex)

    @property
    def electric(self) -> np.ndarray:
        return self.as_array().real

    @property
    def magnetic(self) -> np.ndarray:
        return self.as_array().imag

    def __add__(self, other: "FaradayVector") -> "FaradayVector":
        return FaradayVector.from_array(self.as_array() + other.as_array())

    def __rmul__(self, s: complex) -> "FaradayVector":
        return FaradayVector.from_array(s * self.as_array())


@dataclass(frozen=True)
class ScalarField:
    """A complex scalar on spacetime with branch-safe differencing.

    value(x) is the principal-branch value; delta(b, a) is S(b) - S(a)
    computed without crossing branch cuts (for charge fields, the sum of
    principal log-ratios per charge); scale(x) is the local geometric
    length used to size stencil steps.
    """

    value: Callable[[FourVector], complex]
    delta: Callable[[FourVector, FourVector], complex]
    scale: Callable[[FourVector], float]
    singular_set: str = "none"

    @classmethod
    def from_charge(cls, charge: Charge) -> "ScalarField":
        def value(x: FourVector) -> complex:
            return charge.q * cmath.log(zeta_at(charge, x).value)

        def delta(b: FourVector, a: FourVector) -> complex:
            ratio = zeta_at(charge, b).value / zeta_at(charge, a).value
            if abs(cmath.phase(ratio)) >= math.pi / 2.0:
                raise StepTooLargeError("stencil step crosses too much phase")
            return charge.q * cmath.log(ratio)

        return cls(
            value=value,
            delta=delta,
            scale=lambda x: local_scale(charge, x),
            singular_set="ray a1 = a2 = 0 of the charge's retarded null vector",
        )

    @classmethod
    def from_system(cls, system: ChargeSystem) -> "ScalarField":
        members = [cls.from_charge(c) for c in system]

        return cls(
            value=lambda x: sum(m.value(x) for m in members),
            delta=lambda b, a: sum(m.delta(b, a) for m in members),
            scale=lambda x: min(m.scale(x) for m in members),
            singular_set="union of the member charges' singular rays",
        )

    @classmethod
    def from_function(
        cls,
        f: Callable[[FourVector], complex],
        scale: float = 1.0,
        singular_set: str = "none",
    ) -> "ScalarField":
        return cls(
            value=f,
            delta=lambda b, a: f(b) - f(a),
            scale=lambda x: scale,
            singular_set=singular_set,
        )


# Base step factor for second derivatives, applied to the field's local
# geometric scale; the stencil is evaluated at this scale and at half of
# it and Richardson-combined, so the half-step evaluation sits at the
# plain-central optimum near eps**(1/4).
SECOND_STEP_FACTOR = 2e-3

# Step factor for the plain (non-extrapolated) diagonal residual stencils.
RESIDUAL_STEP_FACTOR = 2e-4

_BASIS = np.eye(4)


def _resolve_step(
    field: ScalarField, x: FourVector, step: float | None, factor: float
) -> float:
    if step is not None:
        return step
    try:
        return factor * field.scale(x)
    except PrepotentialError as exc:
        raise SingularStencilError(f"no usable stencil scale at {x}: {exc}") from exc


def _hessian_once(field: ScalarField, x: FourVector, h: float) -> np.ndarray:
    """Plain second-order Hessian: (x +/- h, x) pairs on the diagonal, the
    4-point cross (paired along the first offset) for mixed entries."""
    xv = x.as_array()

    def ev(v: np.ndarray) -> FourVector:
        return FourVector.from_array(v)

    H = np.zeros((4, 4), dtype=complex)
    for m in range(4):
        em = h * _BASIS[m]
        H[m, m] = (field.delta(ev(xv + em), x) + field.delta(ev(xv - em), x)) / h**2
    for m in range(4):
        for n in range(m + 1, 4):
            em, en = h * _BASIS[m], h * _BASIS[n]
            v = (
                field.delta(ev(xv + em + en), ev(xv + em - en))
                - field.delta(ev(xv - em + en), ev(xv - em - en))
            ) / (4.0 * h**2)
            H[m, n] = H[n, m] = v
    return H


def second_partials(
    field: ScalarField, x: FourVector, step: float | None = None
) -> np.ndarray:
    """Symmetric 4x4 matrix of second partials S_{,mu nu} by branch-safe
    central stencils at the base step and half of it, Richardson-combined
    to cancel the quadratic truncation term."""
    h = _resolve_step(field, x, step, SECOND_STEP_FACTOR)
    try:
        coarse = _hessian_once(field, x, h)
        fine = _hessian_once(field, x, h / 2.0)
    except StepTooLargeError:
        raise
    except PrepotentialError as exc:
        raise SingularStencilError(f"stencil point failed near {x}: {exc}") from exc
    return (4.0 * fine - coarse) / 3.0


def faraday_from_hessian(H: np.ndarray) -> FaradayVector:
    """Contract a (symmetric) matrix of second partials of S into the
    field 3-vector."""
    # The time-time term enters negated: the positive-sign variant agrees
    # for static fields (S_00 = 0) but breaks boost covariance.
    F1 = H[1, 3] + 1j * H[0, 2]
    F2 = H[2, 3] - 1j * H[0, 1]
    F3 = 0.5 * (-H[0, 0] - H[1, 1] - H[2, 2] + H[3, 3])
    return FaradayVector(complex(F1), complex(F2), complex(F3))


def faraday_from_S(
    field: ScalarField, x: FourVector, step: float | None = None
) -> FaradayVector:
    """Field 3-vector from second derivatives of the scalar potential."""
    return faraday_from_hessian(second_partials(field, x, step))


@dataclass(frozen=True)
class PotentialField:
    """Complex 4-covector field A(x), optionally backed by a scalar field
    and a constant matrix (A = matrix @ grad S). When backed, derivative
    routes reuse the scalar field's stencil Hessian so that comparisons
    against faraday_from_S share their discretization error."""

    value: Callable[[FourVector], np.ndarray]
    source: ScalarField | None = None
    matrix: np.ndarray | None = None


def potential_field(charge: Charge) -> PotentialField:
    """The charge's 4-potential as a differentiable field object."""
    return PotentialField(
        value=lambda x: potential_A(charge, x),
        source=ScalarField.from_charge(charge),
        matrix=potential_matrix(),
    )


_METRIC_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
_FROM_A_STEP_FACTOR = 1e-5


def _contract_dA(dA: np.ndarray) -> FaradayVector:
    # F_j = 2 d^nu rho^j[mu, nu] d_nu A_mu, with dA[nu, mu] = d_nu A_mu
    raised = _METRIC_SIGNS[:, None] * dA
    comps = [2.0 * np.trace(rho(j) @ raised) for j in (1, 2, 3)]
    return FaradayVector.from_array(comps)


def faraday_from_A(
    A: Union[PotentialField, Callable[[FourVector], np.ndarray]],
    x: FourVector,
    step: float | None = None,
) -> FaradayVector:
    """Field 3-vector from first derivatives of a 4-potential.

    Validated against classical electric and magnetic potentials as
    written (factor 2, metric-raised derivative index). A backed
    PotentialField contracts the shared scalar-field Hessian; a bare
    callable is differenced directly.
    """
    if isinstance(A, PotentialField) and A.source is not None and A.matrix is not None:
        H = second_partials(A.source, x, step)
        dA = H @ A.matrix.T  # d_nu A_mu = sum_lam matrix[mu, lam] H[nu, lam]
        return _contract_dA(dA)
    fn = A.value if isinstance(A, PotentialField) else A
    xv = x.as_array()
    h = step if step is not None else _FROM_A_STEP_FACTOR * max(
        1.0, float(np.linalg.norm(xv[1:]))
    )
    dA = np.zeros((4, 4), dtype=complex)
    for nu in range(4):
        e = h * _BASIS[nu]
        dA[nu] = (
            np.asarray(fn(FourVector.from_array(xv + e)), dtype=complex)
            - np.asarray(fn(FourVector.from_array(xv - e)), dtype=complex)
        ) / (2.0 * h)
    return _contract_dA(dA)


_DENOM_FLOOR = 1e-12


def faraday_uniform(q: float, a, u) -> FaradayVector:
    """Field of a uniformly moving charge directly from the retarded null
    vector a and the 4-velocity u: F_j = cal * q * a_mu rho^j[mu,nu] u^nu
    / (a.u)^3."""
    av = a.as_array() if isinstance(a, FourVector) else np.asarray(a, dtype=float)
    uv = u.as_array() if isinstance(u, FourVector) else np.asarray(u, dtype=float)
    amax = float(np.abs(av).max())
    if abs(minkowski_dot(av, av)) > 1e-10 * amax**2:
        raise NotNullError("a must be null")
    if abs(minkowski_dot(uv, uv) - 1.0) > 1e-9:
        raise ValueError("u must satisfy u.u = 1")
    au = float(minkowski_dot(av, uv))
    if au <= _DENOM_FLOOR * amax:
        raise DegenerateDenominatorError(
            f"a.u = {au:.3e} is not positive at scale {amax:.3e}"
        )
    return FaradayVector.from_array(_velocity_field(q, av, uv))


def coulomb_oracle(q: float, xvec3) -> FaradayVector:
    """Electrostatic field of a unit-velocity-free charge at the origin."""
    r3 = np.asarray(xvec3, dtype=float)
    r = float(np.linalg.norm(r3))
    if r == 0.0:
        raise DegenerateDenominatorError("field point at the charge")
    return FaradayVector.from_EB(q * r3 / r**3, np.zeros(3))


def boosted_coulomb_oracle(
    q: float, velocity3, event: FourVector, reference_event: FourVector | None = None
) -> FaradayVector:
    """Textbook field of a charge in uniform motion (velocity |v| < 1),
    passing through reference_event (default: origin at t = 0); evaluated
    from the present position: E radial from the instantaneous charge
    location with the (1 - v^2)/(1 - v^2 sin^2 th)^{3/2} profile,
    B = v x E."""
    v = np.asarray(velocity3, dtype=float)
    v2 = float(v @ v)
    if v2 >= 1.0:
        raise ValueError("speed must be below 1")
    ref = reference_event.as_array() if reference_event is not None else np.zeros(4)
    x = event.as_array()
    R = x[1:] - (ref[1:] + v * (x[0] - ref[0]))
    Rn = float(np.linalg.norm(R))
    if Rn == 0.0:
        raise DegenerateDenominatorError("field point at the charge's present position")
    if v2 == 0.0:
        return FaradayVector.from_EB(q * R / Rn**3, np.zeros(3))
    sin2 = 1.0 - (float(R @ v)) ** 2 / (Rn**2 * v2)
    E = q * (1.0 - v2) * R / (Rn**3 * (1.0 - v2 * sin2) ** 1.5)
    return FaradayVector.from_EB(E, np.cross(v, E))


def _diagonal_partials(
    field: ScalarField, x: FourVector, step: float | None
) -> np.ndarray:
    h = _resolve_step(field, x, step, RESIDUAL_STEP_FACTOR)
    xv = x.as_array()
    out = np.zeros(4, dtype=complex)
    try:
        for m in range(4):
            em = h * _BASIS[m]
            out[m] = (
                field.delta(FourVector.from_array(xv + em), x)
                + field.delta(FourVector.from_array(xv - em), x)
            ) / h**2
    except StepTooLargeError:
        raise
    except PrepotentialError as exc:
        raise SingularStencilError(f"stencil point failed near {x}: {exc}") from exc
    return out


def wave_residual(field: ScalarField, x: FourVector, step: float | None = None) -> complex:
    """d'Alembertian S_00 - S_11 - S_22 - S_33 by stencil; ~0 off sources."""
    d = _diagonal_partials(field, x, step)
    return complex(d[0] - d[1] - d[2] - d[3])


def vacuum_maxwell_residual(
    field: ScalarField, x: FourVector, step: float | None = None
) -> complex:
    """Spatial Laplacian S_11 + S_22 + S_33 by stencil; ~0 off sources for
    static configurations."""
    d = _diagonal_partials(field, x, step)
    return complex(d[1] + d[2] + d[3])


def complex_faraday_tensor(f: FaradayVector) -> np.ndarray:
    """The complex mixed tensor sum_j F_j rho^j."""
    arr = f.as_array()
    return sum(arr[j - 1] * rho(j) for j in (1, 2, 3))


def mixed_em_tensor(f: FaradayVector) -> np.ndarray:
    """Standard real mixed electromagnetic tensor: the complex tensor plus
    its entrywise conjugate."""
    t = complex_faraday_tensor(f)
    return t + t.conj()


@dataclass(frozen=True)
class CovarianceCheck:
    axis: int
    rapidity: float
    max_deviation: float


def claim1_covariance_check(f: FaradayVector, j: int, psi: float) -> CovarianceCheck:
    """Check that conjugating the mixed tensor by the full boost equals the
    sum of the half-boost conjugations of the complex tensor and its
    conjugate; returns the max entry deviation (never raises)."""
    t = complex_faraday_tensor(f)
    tbar = t.conj()
    u = upsilon(j, psi)
    ub = upsilon_bar(j, psi)
    u_inv = upsilon(j, -psi)
    ub_inv = upsilon_bar(j, -psi)
    lam = u @ ub
    lam_inv = ub_inv @ u_inv
    lhs = lam_inv @ (t + tbar) @ lam
    rhs = u_inv @ t @ u + ub_inv @ tbar @ ub
    return CovarianceCheck(j, psi, float(np.abs(lhs - rhs).max()))
