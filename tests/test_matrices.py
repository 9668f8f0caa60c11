"""Generator matrices, their algebra, and the closed-form exponentials."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from prepotential import (
    alpha,
    conjugation_C,
    fundamental_boost,
    lambda_boost,
    rho,
    rho_bar,
    sigma,
    upsilon,
    upsilon_bar,
    validate_relations,
)
from prepotential import matrices

I4 = np.eye(4, dtype=complex)


def comm(a, b):
    return a @ b - b @ a


def anti(a, b):
    return a @ b + b @ a


def expm_series(m, terms=20):
    """Truncated exponential series; for ||m|| <= 1.5 the tail beyond 20
    terms is below 1e-16."""
    out = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def matmul_by_hand(a, b):
    """Independent 4x4 product, no vectorized path."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            s = 0j
            for k in range(4):
                s += a[i][k] * b[k][j]
            out[i, j] = s
    return out


class TestGeneratorEntries:
    def test_rho1_entries(self):
        m = rho(1)
        assert m[0, 1] == 0.5
        assert m[1, 0] == 0.5
        assert m[2, 3] == -0.5j
        assert m[3, 2] == 0.5j

    def test_rho3_entries(self):
        m = rho(3)
        assert m[0, 3] == 0.5
        assert m[1, 2] == -0.5j
        assert m[2, 1] == 0.5j
        assert m[3, 0] == 0.5

    def test_rho2_real_symmetric_imag_antisymmetric(self):
        m = rho(2)
        assert_allclose(m.real, m.real.T, atol=0)
        assert_allclose(m.imag, -m.imag.T, atol=0)

    def test_sigma_is_i_rho(self):
        for j in (1, 2, 3):
            assert_allclose(sigma(j), 1j * rho(j), atol=0)

    def test_axis_range_checked(self):
        with pytest.raises(ValueError):
            rho(4)


class TestCommutators:
    def test_sigma_sigma(self):
        assert_allclose(comm(sigma(1), sigma(2)), -sigma(3), atol=1e-16)
        assert_allclose(comm(sigma(2), sigma(3)), -sigma(1), atol=1e-16)
        assert_allclose(comm(sigma(3), sigma(1)), -sigma(2), atol=1e-16)

    def test_rho_rho(self):
        assert_allclose(comm(rho(1), rho(2)), sigma(3), atol=1e-16)
        assert_allclose(comm(rho(2), rho(3)), sigma(1), atol=1e-16)
        assert_allclose(comm(rho(3), rho(1)), sigma(2), atol=1e-16)

    def test_sigma_rho_mixed(self):
        # forced by sigma = i rho and [rho1, rho2] = +sigma3:
        # [sigma1, rho2] = i [rho1, rho2] = i sigma3 = -rho3
        assert_allclose(comm(sigma(1), rho(2)), -rho(3), atol=1e-16)
        assert_allclose(comm(sigma(2), rho(3)), -rho(1), atol=1e-16)

    def test_bar_commutes_with_unbarred(self):
        for j in (1, 2, 3):
            for l in (1, 2, 3):
                assert np.abs(comm(rho_bar(j), rho(l))).max() == 0.0


class TestAntiCommutators:
    def test_rho_pairs(self):
        for j in (1, 2, 3):
            for l in (1, 2, 3):
                want = (0.5 if j == l else 0.0) * I4
                assert_allclose(anti(rho(j), rho(l)), want, atol=1e-16)

    def test_alpha_pairs(self):
        assert_allclose(anti(alpha(1), alpha(1)), 0.5 * I4, atol=1e-16)
        assert np.abs(anti(alpha(1), alpha(2))).max() == 0.0
        for j in (1, 2, 3):
            for l in (1, 2, 3):
                want = (0.5 if j == l else 0.0) * I4
                assert_allclose(anti(alpha(j), alpha(l)), want, atol=1e-16)


class TestConjugation:
    def test_square_is_identity_exactly(self):
        c = conjugation_C()
        assert np.array_equal(c @ c, I4)

    def test_is_doubled_conjugate_of_rho3(self):
        assert np.array_equal(conjugation_C(), 2.0 * rho(3).conj())

    def test_entry_03(self):
        assert conjugation_C()[0, 3] == 1.0

    def test_commutes_with_every_rho(self):
        c = conjugation_C()
        for j in (1, 2, 3):
            assert np.abs(comm(c, rho(j))).max() == 0.0

    def test_alpha_matches_hand_product(self):
        for j in (1, 2, 3):
            assert_allclose(alpha(j), matmul_by_hand(rho(j), conjugation_C()),
                            atol=1e-16)


class TestUpsilon:
    def test_zero_rapidity(self):
        assert_allclose(upsilon(2, 0.0), I4, atol=0)

    def test_action_on_vector_matches_closed_form(self, rng):
        # 2 rho1 maps (a0,a1,a2,a3) to (a1, a0, -i a3, i a2)
        for _ in range(10):
            a = rng.normal(size=4).astype(complex)
            psi = float(rng.uniform(-2, 2))
            got = upsilon(1, psi) @ a
            swapped = np.array([a[1], a[0], -1j * a[3], 1j * a[2]])
            want = np.cosh(psi / 2) * a + np.sinh(psi / 2) * swapped
            assert_allclose(got, want, atol=1e-14)

    def test_matches_series_oracle(self, rng):
        for _ in range(30):
            j = int(rng.integers(1, 4))
            psi = float(rng.uniform(-3, 3))
            assert np.abs(upsilon(j, psi) - expm_series(rho(j) * psi)).max() < 1e-12
            assert np.abs(upsilon_bar(j, psi) - expm_series(rho_bar(j) * psi)).max() < 1e-12

    def test_one_parameter_group(self, rng):
        for _ in range(20):
            j = int(rng.integers(1, 4))
            p1, p2 = rng.uniform(-2, 2, size=2)
            lhs = upsilon(j, p1) @ upsilon(j, p2)
            assert np.abs(lhs - upsilon(j, p1 + p2)).max() < 1e-12


class TestLambdaBoost:
    def test_equals_factor_product(self):
        for j in (1, 2, 3):
            for psi in (-2.0, -1.0, -0.25, 0.25, 1.0, 2.0):
                prod = upsilon(j, psi) @ upsilon_bar(j, psi)
                assert np.abs(lambda_boost(j, psi) - prod).max() < 1e-12

    def test_factors_commute(self):
        for j in (1, 2, 3):
            u = upsilon(j, 1.3)
            ub = upsilon_bar(j, 1.3)
            assert np.abs(u @ ub - ub @ u).max() < 1e-14

    def test_boosts_rest_vector(self):
        psi = 0.9
        out = lambda_boost(1, psi) @ np.array([1, 0, 0, 0], dtype=complex)
        assert_allclose(out, [np.cosh(psi), np.sinh(psi), 0, 0], atol=1e-14)

    def test_matches_real_fundamental_boost(self, rng):
        for _ in range(20):
            j = int(rng.integers(1, 4))
            psi = float(rng.uniform(-2, 2))
            lam = lambda_boost(j, psi)
            assert np.abs(lam.imag).max() < 1e-14
            assert np.abs(lam.real - fundamental_boost(j, psi)).max() < 1e-12

    def test_matches_series_oracle(self, rng):
        for _ in range(20):
            j = int(rng.integers(1, 4))
            psi = float(rng.uniform(-2, 2))
            series = expm_series((rho(j) + rho_bar(j)) * psi, terms=30)
            assert np.abs(lambda_boost(j, psi) - series).max() < 1e-12


class TestValidateRelations:
    def test_everything_passes(self):
        report = validate_relations()
        assert report.all_passed
        assert report.max_deviation < 1e-12

    def test_stacked_families_match_pairwise_loops(self, monkeypatch, rng):
        # perturbed generators give each family a nonzero deviation; the
        # stacked identities must read the worst (j, k) pair of the loop
        # over all nine, to rounding
        for name in ("sigma", "rho", "rho_bar", "alpha"):
            noise = 1e-3 * (rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)))
            f = getattr(matrices, name)
            monkeypatch.setattr(matrices, name, lambda j, f=f, noise=noise: f(j) + noise[j - 1])
        eps = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1,
               (2, 1, 3): -1, (3, 2, 1): -1, (1, 3, 2): -1}

        def combo(j, k, f):
            return sum((s * f(l) for (a, b, l), s in eps.items() if (a, b) == (j, k)),
                       np.zeros((4, 4), dtype=complex))

        def half_delta(j, k):
            return (0.5 if j == k else 0.0) * I4

        m = matrices
        families = [
            lambda j, k: comm(m.sigma(j), m.sigma(k)) + combo(j, k, m.sigma),
            lambda j, k: comm(m.rho(j), m.rho(k)) - combo(j, k, m.sigma),
            lambda j, k: comm(m.sigma(j), m.rho(k)) + combo(j, k, m.rho),
            lambda j, k: comm(m.rho_bar(j), m.rho(k)),
            lambda j, k: anti(m.rho(j), m.rho(k)) - half_delta(j, k),
            lambda j, k: anti(m.rho_bar(j), m.rho_bar(k)) - half_delta(j, k),
            lambda j, k: anti(m.alpha(j), m.alpha(k)) - half_delta(j, k),
        ]
        want = [max(np.abs(f(j, k)).max() for j in (1, 2, 3) for k in (1, 2, 3))
                for f in families]
        got = [c.max_deviation for c in validate_relations().checks[:7]]
        assert min(want) > 1e-4
        assert_allclose(got, want, rtol=1e-12)

    def test_families_present(self):
        report = validate_relations()
        names = [c.name for c in report.checks]
        assert "anti-commutator {rho,rho} = delta/2 I" in names
        assert "commutator [sigma,rho] = -eps rho (validated sign)" in names
        assert report.checks[names.index("conjugation C^2 = I")].max_deviation == 0.0
