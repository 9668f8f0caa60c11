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

from .spacetime import METRIC_SIGNS, fundamental_boost

__all__ = [
    "ComplexMatrix4",
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

# 4x4 complex matrices are plain numpy arrays throughout.
ComplexMatrix4 = np.ndarray

IDENTITY4 = np.eye(4, dtype=complex)
METRIC = np.diag(METRIC_SIGNS).astype(complex)

_RHO = (
    0.5 * np.array(
        [[0, 1, 0, 0],
         [1, 0, 0, 0],
         [0, 0, 0, -1j],
         [0, 0, 1j, 0]], dtype=complex),
    0.5 * np.array(
        [[0, 0, 1, 0],
         [0, 0, 0, 1j],
         [1, 0, 0, 0],
         [0, -1j, 0, 0]], dtype=complex),
    0.5 * np.array(
        [[0, 0, 0, 1],
         [0, 0, -1j, 0],
         [0, 1j, 0, 0],
         [1, 0, 0, 0]], dtype=complex),
)


def _axis(j: int) -> int:
    if j not in (1, 2, 3):
        raise ValueError(f"axis index must be 1, 2 or 3, got {j}")
    return j - 1


def rho(j: int) -> ComplexMatrix4:
    """Boost-type generator rho^j, row index up / column index down."""
    return _RHO[_axis(j)].copy()


def rho_bar(j: int) -> ComplexMatrix4:
    """Entrywise complex conjugate of rho^j."""
    return _RHO[_axis(j)].conj()


def sigma(j: int) -> ComplexMatrix4:
    """Rotation-type generator sigma^j = i rho^j."""
    return 1j * _RHO[_axis(j)]


def conjugation_C() -> ComplexMatrix4:
    """The involution C = 2 conj(rho^3); C @ C is the identity and C
    commutes with every rho^j."""
    return 2.0 * _RHO[2].conj()


def alpha(j: int) -> ComplexMatrix4:
    """alpha_j = rho^j C; the three of them pairwise anti-commute with
    {alpha_j, alpha_l} = (delta_jl / 2) I."""
    return rho(j) @ conjugation_C()


def upsilon(j: int, psi: float) -> ComplexMatrix4:
    """Half-boost exp(rho^j psi) in closed form.

    (rho^j)^2 = I/4 collapses the exponential series to
    cosh(psi/2) I + sinh(psi/2) 2 rho^j.
    """
    return np.cosh(psi / 2.0) * IDENTITY4 + np.sinh(psi / 2.0) * 2.0 * rho(j)


def upsilon_bar(j: int, psi: float) -> ComplexMatrix4:
    """Conjugate half-boost exp(conj(rho^j) psi)."""
    return np.cosh(psi / 2.0) * IDENTITY4 + np.sinh(psi / 2.0) * 2.0 * rho_bar(j)


def lambda_boost(j: int, psi: float) -> ComplexMatrix4:
    """Full boost exp((rho^j + conj(rho^j)) psi) = upsilon @ upsilon_bar;
    restricted to real 4-vectors it equals fundamental_boost(j, psi)."""
    return upsilon(j, psi) @ upsilon_bar(j, psi)


# Levi-Civita symbol with eps[1,2,3] = +1 (1-based indexing).
_EPS = np.zeros((4, 4, 4))
for (_j, _k, _l), _s in {
    (1, 2, 3): 1.0, (2, 3, 1): 1.0, (3, 1, 2): 1.0,
    (2, 1, 3): -1.0, (3, 2, 1): -1.0, (1, 3, 2): -1.0,
}.items():
    _EPS[_j, _k, _l] = _s


def _eps_combo(j: int, k: int, kind) -> ComplexMatrix4:
    out = np.zeros((4, 4), dtype=complex)
    for l in (1, 2, 3):
        if _EPS[j, k, l]:
            out = out + _EPS[j, k, l] * kind(l)
    return out


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


def _comm(a, b):
    return a @ b - b @ a


def _anti(a, b):
    return a @ b + b @ a


def validate_relations() -> RelationReport:
    """Exhaustively check every commutation / anti-commutation /
    conjugation identity over all index pairs, and the boost embedding.

    Failures are reported, never raised. The mixed commutator family is
    checked with the sign that actually holds, [sigma^j, rho^k] =
    -eps^{jk}_l rho^l (forced by sigma = i rho together with
    [rho^j, rho^k] = +eps^{jk}_l sigma^l); the family name records it.
    """
    tolerance = 1e-14
    pairs = [(j, k) for j in (1, 2, 3) for k in (1, 2, 3)]

    def family(name, dev_fn):
        return RelationCheck(name, _worst([dev_fn(j, k) for j, k in pairs]), tolerance)

    def dev(m):
        return float(np.abs(m).max())

    checks = [
        family("commutator [sigma,sigma] = -eps sigma",
               lambda j, k: dev(_comm(sigma(j), sigma(k)) + _eps_combo(j, k, sigma))),
        family("commutator [rho,rho] = +eps sigma",
               lambda j, k: dev(_comm(rho(j), rho(k)) - _eps_combo(j, k, sigma))),
        family("commutator [sigma,rho] = -eps rho (validated sign)",
               lambda j, k: dev(_comm(sigma(j), rho(k)) + _eps_combo(j, k, rho))),
        family("commutator [rho_bar,rho] = 0",
               lambda j, k: dev(_comm(rho_bar(j), rho(k)))),
        family("anti-commutator {rho,rho} = delta/2 I",
               lambda j, k: dev(_anti(rho(j), rho(k)) - (0.5 if j == k else 0.0) * IDENTITY4)),
        family("anti-commutator {rho_bar,rho_bar} = delta/2 I",
               lambda j, k: dev(_anti(rho_bar(j), rho_bar(k)) - (0.5 if j == k else 0.0) * IDENTITY4)),
        family("anti-commutator {alpha,alpha} = delta/2 I",
               lambda j, k: dev(_anti(alpha(j), alpha(k)) - (0.5 if j == k else 0.0) * IDENTITY4)),
        RelationCheck("conjugation C^2 = I",
                      float(np.abs(conjugation_C() @ conjugation_C() - IDENTITY4).max()),
                      tolerance),
        RelationCheck("conjugation C = 2 conj(rho^3)",
                      float(np.abs(conjugation_C() - 2 * rho(3).conj()).max()),
                      tolerance),
    ]

    # the boost embedding and the factors' commutation at a spread of
    # rapidities (lambda_boost is upsilon @ upsilon_bar by definition)
    embed, commute = [], []
    for j in (1, 2, 3):
        for psi in (-2.0, -1.0, -0.25, 0.25, 1.0, 2.0):
            u, ub = upsilon(j, psi), upsilon_bar(j, psi)
            embed.append(dev(lambda_boost(j, psi) - fundamental_boost(j, psi)))
            commute.append(dev(u @ ub - ub @ u))
    checks.append(RelationCheck("Lambda equals the real fundamental boost",
                                _worst(embed), 1e-12))
    checks.append(RelationCheck("Upsilon and Upsilon_bar factors commute",
                                _worst(commute), 1e-14))

    return RelationReport(tuple(checks))
