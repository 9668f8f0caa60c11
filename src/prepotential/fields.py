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
from functools import reduce
from typing import Callable, Union

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    NotNullError,
    PrepotentialError,
    SingularStencilError,
    StepTooLargeError,
)
from .matrices import IDENTITY4, _RHO, _axis, rho
from .potential import (
    Charge,
    ChargeSystem,
    NULL_TOL,
    UNIFORM_FIELD_CALIBRATION,
    _log_ratios,
    _velocity_fields,
    _zeta_rows,
    local_scales,
    potential_matrix,
    prepotential_point,
)
from .spacetime import EYE, METRIC_SIGNS, FourVector, _U_NORM_TOL, _mdot_rows

__all__ = [
    "FaradayVector",
    "ScalarField",
    "PotentialField",
    "SECOND_STEP_FACTOR",
    "UNIFORM_FIELD_CALIBRATION",
    "second_partials",
    "second_partials_rows",
    "faraday_from_hessian",
    "faraday_from_hessian_rows",
    "faraday_from_S",
    "potential_field",
    "faraday_from_A",
    "faraday_uniform",
    "coulomb_oracle",
    "boosted_coulomb_oracle",
    "wave_residual",
    "vacuum_maxwell_residual",
    "CovarianceCheck",
    "claim1_covariance_check",
    "claim1_covariance_rows",
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

    def as_array(self) -> np.ndarray:
        return np.array([self.F1, self.F2, self.F3], dtype=complex)

    @property
    def electric(self) -> np.ndarray:
        return self.as_array().real

    @property
    def magnetic(self) -> np.ndarray:
        return self.as_array().imag


@dataclass(frozen=True)
class ScalarField:
    """A complex scalar on spacetime with branch-safe differencing.

    value(x) is the principal-branch value at an event. delta(X, ib, ia)
    is S(X[ib]) - S(X[ia]) for index arrays ib, ia into an (N, 4) array
    of events, each event evaluated once however many pairs use it, and
    computed without crossing branch cuts (for charge fields, the sum of
    principal log-ratios per charge). scale(X) is the local geometric
    length (N,) at each row of an (N, 4) array of events, used to size
    stencil steps.
    """

    value: Callable[[FourVector], complex]
    delta: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    scale: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_charge(cls, charge: Charge) -> "ScalarField":
        def delta(X: np.ndarray, ib: np.ndarray, ia: np.ndarray) -> np.ndarray:
            z = _zeta_rows(charge, X)
            return charge.q * _log_ratios(z[ib], z[ia])

        return cls(
            value=lambda x: prepotential_point(charge, x).value,
            delta=delta,
            scale=lambda X: local_scales(charge, X),
        )

    @classmethod
    def from_system(cls, system: ChargeSystem) -> "ScalarField":
        members = [cls.from_charge(c) for c in system]

        return cls(
            value=lambda x: sum(m.value(x) for m in members),
            delta=lambda X, ib, ia: sum(m.delta(X, ib, ia) for m in members),
            scale=lambda X: reduce(np.minimum, (m.scale(X) for m in members)),
        )


# Base step factor for second derivatives, applied to the field's local
# geometric scale; the stencil is evaluated at this scale and at half of
# it and Richardson-combined, so the half-step evaluation sits at the
# plain-central optimum near eps**(1/4).
SECOND_STEP_FACTOR = 2e-3

# Step factor for the residual stencils, which read the diagonal of the
# plain (non-extrapolated) stencil Hessian.
RESIDUAL_STEP_FACTOR = 2e-4

_DIAG = np.arange(4)
# the six (m, n) index pairs with m < n of the mixed entries
_M, _N = np.triu_indices(4, 1)

# Stencil events round a centre x at step h, in this order: x, x + h e_m,
# x - h e_m (m = 0..3), then the crosses x + h e_m + h e_n, then
# x + h e_m - h e_n, x - h e_m + h e_n and x - h e_m - h e_n, six of each
# in the order of the pairs m < n (_M, _N). The pairs (B, A) differenced
# are, as indices into them: the 8 diagonal pairs (x + h e_m, x) and
# (x - h e_m, x), then for each m < n the cross paired along the first
# offset, (x + h e_m + h e_n, x + h e_m - h e_n) and
# (x - h e_m + h e_n, x - h e_m - h e_n).
#
# _OFFSETS holds the events' offsets in units of h, row 0 unused (event 0 is
# x itself). Its zero entries are -0.0 in the rows x - h e_m and
# x - h e_m - h e_n and 0.0 elsewhere, so that for h > 0 each event has the
# bits of its terms added and subtracted one at a time: c - 0.0 keeps a
# coordinate c = -0.0, where c + 0.0 makes it 0.0.
_OFFSETS = np.concatenate([
    np.zeros((1, 4)), EYE, -EYE,
    EYE[_M] + EYE[_N], EYE[_M] - EYE[_N], -EYE[_M] + EYE[_N], -EYE[_M] - EYE[_N],
])
_PAIR_B = np.concatenate([np.arange(1, 9), np.arange(9, 15), np.arange(21, 27)])
_PAIR_A = np.concatenate([np.zeros(8, dtype=np.intp), np.arange(15, 21),
                          np.arange(27, 33)])


def _where(X: np.ndarray) -> str:
    return str(FourVector.from_array(X[0])) if len(X) == 1 else f"one of {len(X)} points"


def _steps(field: ScalarField, X: np.ndarray, step: float | None, factor: float) -> np.ndarray:
    if step is not None:
        return np.full(len(X), float(step))
    try:
        return factor * field.scale(X)
    except PrepotentialError as exc:
        raise SingularStencilError(f"no usable stencil scale at {_where(X)}: {exc}") from exc


def _first_failing_point(stencil: Callable[[np.ndarray], np.ndarray], X) -> np.ndarray:
    """stencil(X) over an (N, 4) array of centres. When the batch fails,
    the points are rerun one at a time, so the error raised is the one the
    first failing point raises alone, naming that point."""
    X = np.asarray(X, dtype=float)
    try:
        return stencil(X)
    except PrepotentialError:
        if len(X) == 1:
            raise
        for i in range(len(X)):
            stencil(X[i : i + 1])
        raise


def _hessian_level(field: ScalarField, X: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The plain central-difference Hessians (N, 4, 4) round each row of X
    at its step h (N,), from one field.delta call over the stencil's 33
    distinct events per row. A failing stencil event raises
    SingularStencilError; StepTooLargeError passes unchanged."""
    events = X[:, None] + h[:, None, None] * _OFFSETS
    events[:, 0] = X  # x + 0.0 would turn a coordinate -0.0 into 0.0
    n, k = events.shape[:2]
    offsets = k * np.arange(n)[:, None]
    try:
        d = field.delta(events.reshape(n * k, 4), (offsets + _PAIR_B).ravel(),
                        (offsets + _PAIR_A).ravel()).reshape(n, len(_PAIR_B))
    except StepTooLargeError:
        raise
    except PrepotentialError as exc:
        raise SingularStencilError(f"stencil point failed near {_where(X)}: {exc}") from exc
    h2 = (h * h)[:, None]
    H = np.empty((n, 4, 4), dtype=complex)
    H[:, _DIAG, _DIAG] = (d[:, 0:4] + d[:, 4:8]) / h2
    H[:, _M, _N] = H[:, _N, _M] = (d[:, 8:14] - d[:, 14:20]) / (4.0 * h2)
    return H


def second_partials_rows(
    field: ScalarField, X, step: float | None = None
) -> np.ndarray:
    """Symmetric matrices (N, 4, 4) of second partials S_{,mu nu} at each
    row of an (N, 4) array of events, by branch-safe central stencils at
    the base step and half of it, Richardson-combined to cancel the
    quadratic truncation term. One field.scale call sizes the steps and
    one field.delta call per step serves every point; row i equals
    second_partials at X[i]."""

    def stencil(X):
        h = _steps(field, X, step, SECOND_STEP_FACTOR)
        coarse = _hessian_level(field, X, h)
        fine = _hessian_level(field, X, h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    return _first_failing_point(stencil, X)


def second_partials(
    field: ScalarField, x: FourVector, step: float | None = None
) -> np.ndarray:
    """second_partials_rows at one event: the 4x4 matrix of S_{,mu nu}."""
    return second_partials_rows(field, x.as_array()[None], step)[0]


def faraday_from_hessian_rows(H: np.ndarray) -> np.ndarray:
    """Contract (symmetric) matrices (N, 4, 4) of second partials of S
    into field 3-vectors E + iB (N, 3).

    Next to a charge's singular axis, at distance rho from it and r from
    the retarded point, the Hessian entries grow like 1/rho^2 while the
    field stays of order 1/r^2, so the contraction of a rounded Hessian
    keeps only about eps * (r/rho)^2 relative precision, whatever computed
    it (measured with the exact closed-form Hessian: 7e-5 at 1e-6 rad for
    a rest charge). The field column of prepotential_jets avoids the loss.
    """
    # The time-time term enters negated: the positive-sign variant agrees
    # for static fields (S_00 = 0) but breaks boost covariance.
    F = np.empty((len(H), 3), dtype=complex)
    F[:, 0] = H[:, 1, 3] + 1j * H[:, 0, 2]
    F[:, 1] = H[:, 2, 3] - 1j * H[:, 0, 1]
    F[:, 2] = 0.5 * (-H[:, 0, 0] - H[:, 1, 1] - H[:, 2, 2] + H[:, 3, 3])
    return F


def faraday_from_hessian(H: np.ndarray) -> FaradayVector:
    """faraday_from_hessian_rows for one 4x4 matrix of second partials."""
    return FaradayVector.from_array(faraday_from_hessian_rows(np.asarray(H)[None])[0])


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
    """The charge's complex 4-potential A = potential_matrix() @ grad S as
    a differentiable field object."""
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
        e = h * EYE[nu]
        dA[nu] = (
            np.asarray(A(FourVector.from_array(xv + e)), dtype=complex)
            - np.asarray(A(FourVector.from_array(xv - e)), dtype=complex)
        ) / (2.0 * h)
    return _contract_dA(dA)


_DENOM_FLOOR = 1e-12


def faraday_uniform(q: float, a, u) -> FaradayVector:
    """Field of a uniformly moving charge directly from the retarded null
    vector a and the 4-velocity u: F_j = cal * q * a_mu rho^j[mu,nu] u^nu
    / (a.u)^3. Raises NotNullError unless a is null, ValueError unless
    u.u = 1, and DegenerateDenominatorError unless a.u is positive."""
    av = a.as_array() if isinstance(a, FourVector) else np.asarray(a, dtype=float)
    uv = u.as_array() if isinstance(u, FourVector) else np.asarray(u, dtype=float)
    A, U = av[None], uv[None]
    amax = np.abs(av).max()
    au = _mdot_rows(A, U)[0]
    if abs(_mdot_rows(A, A)[0]) > NULL_TOL * amax**2:
        raise NotNullError("a must be null")
    if abs(_mdot_rows(U, U)[0] - 1.0) > _U_NORM_TOL:
        raise ValueError("u must satisfy u.u = 1")
    if au <= _DENOM_FLOOR * amax:
        raise DegenerateDenominatorError(f"a.u = {au:.3e} is not positive at scale {amax:.3e}")
    return FaradayVector.from_array(_velocity_fields(q, A, U)[0])


def coulomb_oracle(q: float, xvec3) -> FaradayVector:
    """Electrostatic field of a unit-velocity-free charge at the origin."""
    r3 = np.asarray(xvec3, dtype=float)
    r = float(np.linalg.norm(r3))
    if r == 0.0:
        raise DegenerateDenominatorError("field point at the charge")
    return FaradayVector.from_array(q * r3 / r**3)


def _boosted_coulomb_rows(
    q: float, velocity3, X: np.ndarray, reference_event: FourVector | None = None
) -> np.ndarray:
    """boosted_coulomb_oracle at each row of an (N, 4) array of events,
    E + iB (N, 3); raises when a row sits at the charge's present
    position."""
    v = np.asarray(velocity3, dtype=float)
    v2 = float(v @ v)
    if v2 >= 1.0:
        raise ValueError("speed must be below 1")
    ref = reference_event.as_array() if reference_event is not None else np.zeros(4)
    R = X[:, 1:] - (ref[1:] + v * (X[:, :1] - ref[0]))
    Rn = np.sqrt(np.einsum("ij,ij->i", R, R))
    if (Rn == 0.0).any():
        raise DegenerateDenominatorError("field point at the charge's present position")
    if v2 == 0.0:
        E = q * R / (Rn**3)[:, None]
        return E + 1j * np.zeros_like(E)
    sin2 = 1.0 - (R @ v) ** 2 / (Rn**2 * v2)
    E = q * (1.0 - v2) * R / (Rn**3 * (1.0 - v2 * sin2) ** 1.5)[:, None]
    return E + 1j * np.cross(v, E)


def boosted_coulomb_oracle(
    q: float, velocity3, event: FourVector, reference_event: FourVector | None = None
) -> FaradayVector:
    """Textbook field of a charge in uniform motion (velocity |v| < 1),
    passing through reference_event (default: origin at t = 0); evaluated
    from the present position: E radial from the instantaneous charge
    location with the (1 - v^2)/(1 - v^2 sin^2 th)^{3/2} profile,
    B = v x E."""
    return FaradayVector.from_array(
        _boosted_coulomb_rows(q, velocity3, event.as_array()[None], reference_event)[0])


def _diagonal_partials(
    field: ScalarField, X, step: float | None
) -> np.ndarray:
    """The plain second partials S_{,mu mu} (N, 4) at each row of an
    (N, 4) array of events: the diagonal of the plain stencil Hessian at
    the residual step. The cross events are evaluated too, so with a large
    explicit step a cross event can fail where the diagonal ones would
    not."""

    def stencil(X):
        h = _steps(field, X, step, RESIDUAL_STEP_FACTOR)
        return _hessian_level(field, X, h)[:, _DIAG, _DIAG]

    return _first_failing_point(stencil, X)


def wave_residual(field: ScalarField, x: FourVector, step: float | None = None) -> complex:
    """d'Alembertian S_00 - S_11 - S_22 - S_33 by stencil; ~0 off sources."""
    d = _diagonal_partials(field, x.as_array()[None], step)[0]
    return complex(d[0] - d[1] - d[2] - d[3])


def vacuum_maxwell_residual(
    field: ScalarField, x: FourVector, step: float | None = None
) -> complex:
    """Spatial Laplacian S_11 + S_22 + S_33 by stencil; ~0 off sources for
    static configurations."""
    d = _diagonal_partials(field, x.as_array()[None], step)[0]
    return complex(d[1] + d[2] + d[3])


@dataclass(frozen=True)
class CovarianceCheck:
    axis: int
    rapidity: float
    max_deviation: float


def claim1_covariance_rows(F, axes, psis) -> np.ndarray:
    """claim1_covariance_check for each row of complex field vectors F
    (n, 3), boost axes (n,) and rapidities (n,): the max entry deviations
    (n,). Raises ValueError for an axis outside 1, 2, 3."""
    F = np.asarray(F, dtype=complex)
    axes = np.asarray(axes)
    psis = np.asarray(psis, dtype=float)
    bad = ~np.isin(axes, (1, 2, 3))
    if bad.any():
        _axis(axes[bad][0].item())
    t = np.einsum("nj,jab->nab", F, _RHO)
    tbar = t.conj()
    # Upsilon(psi) = cosh(psi/2) I + sinh(psi/2) 2 rho^j, its conjugate
    # with conj(rho^j), and the inverses at -psi
    c = np.cosh(psis / 2.0)[:, None, None] * IDENTITY4
    s2 = (np.sinh(psis / 2.0) * 2.0)[:, None, None]
    r = _RHO[axes.astype(np.intp) - 1]
    rbar = r.conj()
    u, u_inv = c + s2 * r, c - s2 * r
    ub, ub_inv = c + s2 * rbar, c - s2 * rbar
    lam = u @ ub
    lam_inv = ub_inv @ u_inv
    lhs = lam_inv @ (t + tbar) @ lam
    rhs = u_inv @ t @ u + ub_inv @ tbar @ ub
    return np.abs(lhs - rhs).max(axis=(1, 2))


def claim1_covariance_check(f: FaradayVector, j: int, psi: float) -> CovarianceCheck:
    """Check that conjugating the mixed tensor by the full boost equals the
    sum of the half-boost conjugations of the complex tensor and its
    conjugate; returns the max entry deviation, so a failed check is
    reported, not raised. Raises ValueError for an axis outside 1, 2, 3."""
    dev = claim1_covariance_rows(f.as_array()[None], [j], [psi])[0]
    return CovarianceCheck(j, psi, float(dev))
