"""Field derivation and verification: the complex field 3-vector from
second derivatives of the scalar potential, the direct uniform-motion
formula, textbook oracles, residual stencils, and the covariance check on
the complex field tensor.

All stencils are branch-safe: every finite difference of S is a principal
log-ratio between nearby points, so branch cuts never leak into
derivatives.
"""

from __future__ import annotations

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
    NULL_TOL,
    UNIFORM_FIELD_CALIBRATION,
    _log_ratios,
    _velocity_fields,
    _zeta_rows,
    local_scale,
    potential_matrix,
    prepotential_point,
)
from .spacetime import METRIC_SIGNS, FourVector, minkowski_dot

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

    value(x) is the principal-branch value at an event; delta(B, A) is
    S(B) - S(A) for each row of two (N, 4) arrays of events, computed
    without crossing branch cuts (for charge fields, the sum of principal
    log-ratios per charge); scale(x) is the local geometric length used
    to size stencil steps.
    """

    value: Callable[[FourVector], complex]
    delta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    scale: Callable[[FourVector], float]

    @classmethod
    def from_charge(cls, charge: Charge) -> "ScalarField":
        def delta(B: np.ndarray, A: np.ndarray) -> np.ndarray:
            z, _ = _zeta_rows(charge, np.concatenate([B, A]))
            return charge.q * _log_ratios(z[: len(B)], z[len(B):])

        return cls(
            value=lambda x: prepotential_point(charge, x).value,
            delta=delta,
            scale=lambda x: local_scale(charge, x),
        )

    @classmethod
    def from_system(cls, system: ChargeSystem) -> "ScalarField":
        members = [cls.from_charge(c) for c in system]

        return cls(
            value=lambda x: sum(m.value(x) for m in members),
            delta=lambda B, A: sum(m.delta(B, A) for m in members),
            scale=lambda x: min(m.scale(x) for m in members),
        )

    @classmethod
    def from_function(
        cls, f: Callable[[FourVector], complex], scale: float = 1.0
    ) -> "ScalarField":
        def delta(B: np.ndarray, A: np.ndarray) -> np.ndarray:
            return np.array([f(FourVector.from_array(b)) - f(FourVector.from_array(a))
                             for b, a in zip(B, A)], dtype=complex)

        return cls(value=f, delta=delta, scale=lambda x: scale)


# Base step factor for second derivatives, applied to the field's local
# geometric scale; the stencil is evaluated at this scale and at half of
# it and Richardson-combined, so the half-step evaluation sits at the
# plain-central optimum near eps**(1/4).
SECOND_STEP_FACTOR = 2e-3

# Step factor for the plain (non-extrapolated) diagonal residual stencils.
RESIDUAL_STEP_FACTOR = 2e-4

_BASIS = np.eye(4)
# the six (m, n) index pairs with m < n of the mixed entries
_M, _N = np.triu_indices(4, 1)


def _resolve_step(
    field: ScalarField, x: FourVector, step: float | None, factor: float
) -> float:
    if step is not None:
        return step
    try:
        return factor * field.scale(x)
    except PrepotentialError as exc:
        raise SingularStencilError(f"no usable stencil scale at {x}: {exc}") from exc


def _stencil_deltas(field: ScalarField, B: np.ndarray, A: np.ndarray, x: FourVector):
    """field.delta(B, A) in one call. A failing stencil point raises
    SingularStencilError; StepTooLargeError passes unchanged."""
    try:
        return field.delta(B, A)
    except StepTooLargeError:
        raise
    except PrepotentialError as exc:
        raise SingularStencilError(f"stencil point failed near {x}: {exc}") from exc


def _hessian_pairs(xv: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Event pairs (B, A) of the plain second-order Hessian stencil: the
    diagonal pairs (x + h e_m, x) and (x - h e_m, x), then for each m < n
    the 4-point cross paired along the first offset, (x + h e_m + h e_n,
    x + h e_m - h e_n) and (x - h e_m + h e_n, x - h e_m - h e_n)."""
    E = h * _BASIS
    B = np.concatenate([xv + E, xv - E, xv + E[_M] + E[_N], xv - E[_M] + E[_N]])
    A = np.concatenate([np.broadcast_to(xv, (8, 4)), xv + E[_M] - E[_N],
                        xv - E[_M] - E[_N]])
    return B, A


def _hessian_from_deltas(d: np.ndarray, h: float) -> np.ndarray:
    """The plain Hessian from the 20 deltas of _hessian_pairs at step h."""
    H = np.diag((d[0:4] + d[4:8]) / h**2)
    H[_M, _N] = H[_N, _M] = (d[8:14] - d[14:20]) / (4.0 * h**2)
    return H


def second_partials(
    field: ScalarField, x: FourVector, step: float | None = None
) -> np.ndarray:
    """Symmetric 4x4 matrix of second partials S_{,mu nu} by branch-safe
    central stencils at the base step and half of it, Richardson-combined
    to cancel the quadratic truncation term. All stencil events go to
    field.delta in one batch."""
    h = _resolve_step(field, x, step, SECOND_STEP_FACTOR)
    xv = x.as_array()
    B1, A1 = _hessian_pairs(xv, h)
    B2, A2 = _hessian_pairs(xv, h / 2.0)
    d = _stencil_deltas(field, np.concatenate([B1, B2]), np.concatenate([A1, A2]), x)
    coarse = _hessian_from_deltas(d[:20], h)
    fine = _hessian_from_deltas(d[20:], h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def faraday_from_hessian(H: np.ndarray) -> FaradayVector:
    """Contract a (symmetric) matrix of second partials of S into the
    field 3-vector.

    Next to a charge's singular axis, at distance rho from it and r from
    the retarded point, the Hessian entries grow like 1/rho^2 while the
    field stays of order 1/r^2, so the contraction of a rounded Hessian
    keeps only about eps * (r/rho)^2 relative precision, whatever computed
    it (measured with the exact closed-form Hessian: 7e-5 at 1e-6 rad for
    a rest charge). prepotential_jet's field avoids the loss.
    """
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
    """Complex 4-covector field A = matrix @ grad S of a scalar field S and
    a constant matrix. Derivative routes reuse the scalar field's stencil
    Hessian, so comparisons against faraday_from_S share their
    discretization error."""

    source: ScalarField
    matrix: np.ndarray


def potential_field(charge: Charge) -> PotentialField:
    """The charge's 4-potential (potential_A) as a differentiable field
    object."""
    return PotentialField(source=ScalarField.from_charge(charge), matrix=potential_matrix())


_FROM_A_STEP_FACTOR = 1e-5


def _contract_dA(dA: np.ndarray) -> FaradayVector:
    # F_j = 2 d^nu rho^j[mu, nu] d_nu A_mu, with dA[nu, mu] = d_nu A_mu
    raised = METRIC_SIGNS[:, None] * dA
    comps = [2.0 * np.trace(rho(j) @ raised) for j in (1, 2, 3)]
    return FaradayVector.from_array(comps)


def faraday_from_A(
    A: Union[PotentialField, Callable[[FourVector], np.ndarray]],
    x: FourVector,
    step: float | None = None,
) -> FaradayVector:
    """Field 3-vector from first derivatives of a 4-potential.

    Validated against classical electric and magnetic potentials as
    written (factor 2, metric-raised derivative index). A PotentialField
    contracts its scalar field's stencil Hessian; a bare callable is
    differenced directly.
    """
    if isinstance(A, PotentialField):
        H = second_partials(A.source, x, step)
        dA = H @ A.matrix.T  # d_nu A_mu = sum_lam matrix[mu, lam] H[nu, lam]
        return _contract_dA(dA)
    xv = x.as_array()
    h = step if step is not None else _FROM_A_STEP_FACTOR * max(
        1.0, float(np.linalg.norm(xv[1:]))
    )
    dA = np.zeros((4, 4), dtype=complex)
    for nu in range(4):
        e = h * _BASIS[nu]
        dA[nu] = (
            np.asarray(A(FourVector.from_array(xv + e)), dtype=complex)
            - np.asarray(A(FourVector.from_array(xv - e)), dtype=complex)
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
    if abs(minkowski_dot(av, av)) > NULL_TOL * amax**2:
        raise NotNullError("a must be null")
    if abs(minkowski_dot(uv, uv) - 1.0) > 1e-9:
        raise ValueError("u must satisfy u.u = 1")
    au = float(minkowski_dot(av, uv))
    if au <= _DENOM_FLOOR * amax:
        raise DegenerateDenominatorError(
            f"a.u = {au:.3e} is not positive at scale {amax:.3e}"
        )
    return FaradayVector.from_array(_velocity_fields(q, av[None], uv[None])[0])


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
    E = h * _BASIS
    d = _stencil_deltas(field, np.concatenate([xv + E, xv - E]),
                        np.broadcast_to(xv, (8, 4)), x)
    return (d[:4] + d[4:]) / h**2


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
