"""Complex 4x4 matrix algebra for the field description.

The three generator matrices rho^j (with their conjugates) close the Lorentz
Lie algebra in complexified Minkowski space, satisfy Dirac-type
anti-commutation relations, and exponentiate in closed form to half-boosts
whose product is the fundamental boost. validate_relations() checks every
stated identity entrywise and records the sign conventions it verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spacetime import ETA, EYE, fundamental_boost

__all__ = [
    "IDENTITY4",
    "METRIC",
    "rho",
    "rho_bar",
    "sigma",
    "conjugation_C",
    "alpha",
    "upsilon",
    "upsilon_bar",
    "lambda_boost",
    "RelationCheck",
    "RelationReport",
    "validate_relations",
]

IDENTITY4 = EYE.astype(complex)
METRIC = ETA.astype(complex)

# rho^1, rho^2, rho^3 as one (3, 4, 4) stack
_RHO = 0.5 * np.array([
    [[0, 1, 0, 0],
     [1, 0, 0, 0],
     [0, 0, 0, -1j],
     [0, 0, 1j, 0]],
    [[0, 0, 1, 0],
     [0, 0, 0, 1j],
     [1, 0, 0, 0],
     [0, -1j, 0, 0]],
    [[0, 0, 0, 1],
     [0, 0, -1j, 0],
     [0, 1j, 0, 0],
     [1, 0, 0, 0]],
], dtype=complex)


def _axis(j: int) -> int:
    if j not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {j}")
    return j - 1


def rho(j: int) -> np.ndarray:
    """Boost-type generator rho^j, row index up / column index down."""
    return _RHO[_axis(j)].copy()


def rho_bar(j: int) -> np.ndarray:
    """Entrywise complex conjugate of rho^j."""
    return _RHO[_axis(j)].conj()


def sigma(j: int) -> np.ndarray:
    """Rotation-type generator sigma^j = i rho^j."""
    return 1j * _RHO[_axis(j)]


def conjugation_C() -> np.ndarray:
    """The involution C = 2 conj(rho^3); C @ C is the identity and C
    commutes with every rho^j."""
    return 2.0 * _RHO[2].conj()


def alpha(j: int) -> np.ndarray:
    """alpha_j = rho^j C; the three of them pairwise anti-commute with
    {alpha_j, alpha_l} = (delta_jl / 2) I."""
    return rho(j) @ conjugation_C()


def upsilon(j: int, psi: float) -> np.ndarray:
    """Half-boost exp(rho^j psi) in closed form.

    (rho^j)^2 = I/4 collapses the exponential series to
    cosh(psi/2) I + sinh(psi/2) 2 rho^j.
    """
    return np.cosh(psi / 2.0) * IDENTITY4 + np.sinh(psi / 2.0) * 2.0 * rho(j)


def upsilon_bar(j: int, psi: float) -> np.ndarray:
    """Conjugate half-boost exp(conj(rho^j) psi)."""
    return np.cosh(psi / 2.0) * IDENTITY4 + np.sinh(psi / 2.0) * 2.0 * rho_bar(j)


def lambda_boost(j: int, psi: float) -> np.ndarray:
    """Full boost exp((rho^j + conj(rho^j)) psi) = upsilon @ upsilon_bar;
    restricted to real 4-vectors it equals fundamental_boost(j, psi)."""
    return upsilon(j, psi) @ upsilon_bar(j, psi)


# Levi-Civita symbol, 0-based: eps[0, 1, 2] = +1
_EPS = np.zeros((3, 3, 3))
for _j, _k, _l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_j, _k, _l], _EPS[_k, _j, _l] = 1.0, -1.0

# delta_jk I / 2 for every (j, k), as a (3, 3, 4, 4) array
_HALF_DELTA = 0.5 * np.multiply.outer(np.eye(3), IDENTITY4)


def _worst(devs) -> float:
    """The largest deviation, NaN if any is NaN. Python's max keeps its
    first argument against a NaN, so a NaN deviation would vanish and
    its check pass."""
    return float(np.max(devs, initial=0.0))


@dataclass(frozen=True)
class RelationCheck:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return _worst([c.max_deviation for c in self.checks])


def validate_relations() -> RelationReport:
    """Exhaustively check every commutation / anti-commutation /
    conjugation identity over all index pairs, and the boost embedding.

    Each family is one array identity over all (j, k): with the stacks
    X, Y (3, 4, 4) of two generator families, X[:, None] @ Y holds
    X^j Y^k at [j, k] and Y @ X[:, None] holds Y^k X^j. The boost rows
    stack 18 (axis, rapidity) pairs the same way.

    Failures are reported, never raised. The mixed commutator family is
    checked with the sign that actually holds, [sigma^j, rho^k] =
    -eps^{jk}_l rho^l (forced by sigma = i rho together with
    [rho^j, rho^k] = +eps^{jk}_l sigma^l); the family name records it.
    """
    S, R, Rb, Al = (np.stack([f(j) for j in (1, 2, 3)])
                    for f in (sigma, rho, rho_bar, alpha))
    eps_S, eps_R = (np.einsum("jkl,lab->jkab", _EPS, Z) for Z in (S, R))
    C = conjugation_C()
    # the boost embedding and the factors' commutation at a spread of
    # rapidities (lambda_boost is upsilon @ upsilon_bar by definition)
    boosts = [(j, psi) for j in (1, 2, 3) for psi in (-2.0, -1.0, -0.25, 0.25, 1.0, 2.0)]
    U, Ub, Lam, Fund = (np.stack([f(j, psi) for j, psi in boosts])
                        for f in (upsilon, upsilon_bar, lambda_boost, fundamental_boost))
    tol = 1e-14
    residuals = [
        ("commutator [sigma,sigma] = -eps sigma", S[:, None] @ S - S @ S[:, None] + eps_S, tol),
        ("commutator [rho,rho] = +eps sigma", R[:, None] @ R - R @ R[:, None] - eps_S, tol),
        ("commutator [sigma,rho] = -eps rho (validated sign)",
         S[:, None] @ R - R @ S[:, None] + eps_R, tol),
        ("commutator [rho_bar,rho] = 0", Rb[:, None] @ R - R @ Rb[:, None], tol),
        ("anti-commutator {rho,rho} = delta/2 I",
         R[:, None] @ R + R @ R[:, None] - _HALF_DELTA, tol),
        ("anti-commutator {rho_bar,rho_bar} = delta/2 I",
         Rb[:, None] @ Rb + Rb @ Rb[:, None] - _HALF_DELTA, tol),
        ("anti-commutator {alpha,alpha} = delta/2 I",
         Al[:, None] @ Al + Al @ Al[:, None] - _HALF_DELTA, tol),
        ("conjugation C^2 = I", C @ C - IDENTITY4, tol),
        ("conjugation C = 2 conj(rho^3)", C - 2 * rho(3).conj(), tol),
        ("Lambda equals the real fundamental boost", Lam - Fund, 1e-12),
        ("Upsilon and Upsilon_bar factors commute", U @ Ub - Ub @ U, tol),
    ]
    return RelationReport(tuple(RelationCheck(name, _worst(np.abs(m)), bound)
                                for name, m, bound in residuals))
