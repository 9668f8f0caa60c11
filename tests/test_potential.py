"""The invariant ratio, the scalar potential, its closed-form jet, and path phases."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from prepotential import (
    Charge,
    ChargeSystem,
    ChargeSystemError,
    FourVector,
    NotNullError,
    Path,
    PathThroughSingularAxisError,
    PrePotentialJet,
    RestLine,
    SampledLine,
    ScalarField,
    SingularAxisError,
    UniformLine,
    ab_phase_report,
    boosted_coulomb_oracle,
    coulomb_oracle,
    delta_S_along_path,
    faraday_from_hessian,
    four_velocity_from_3velocity,
    local_scale,
    prepotential_point,
    prepotential_system,
    retarded_null_vector,
    second_partials,
    upsilon,
    zeta_at,
    zeta_of,
)
from prepotential import potential
from prepotential.errors import ROW_FAILURES
from prepotential.potential import (
    _DENOMINATORS,
    _NUMERATORS,
    _jet_rows,
    _zeta_quotients,
    _zeta_rows,
    prepotential_jets,
    zetas_of,
)
from prepotential.spacetime import ETA, METRIC_SIGNS, retarded_null_vectors, retarded_rows


def V(*c):
    return FourVector(*map(float, c))


def jet_at(charge, x):
    """The closed-form jet of one charge at one event: row 0 of
    prepotential_jets."""
    jet, failure = prepotential_jets(ChargeSystem((charge,)), x.as_array()[None])
    assert failure[0] == 0
    return PrePotentialJet(complex(jet.value[0]), jet.hessian[0], jet.field[0])


def rest_charge(q=1.0, pos=(0.0, 0.0, 0.0)):
    return Charge(q, RestLine(pos))


def circle_path(radius, height, samples=240, turns=1, time=0.0, center=(0.0, 0.0)):
    sign = 1.0 if turns > 0 else -1.0
    total = samples * abs(turns)
    events = tuple(
        V(time,
          center[0] + radius * math.cos(sign * 2 * math.pi * abs(turns) * k / total),
          center[1] + radius * math.sin(sign * 2 * math.pi * abs(turns) * k / total),
          height)
        for k in range(total)
    )
    return Path(events, closed=True)


class TestZeta:
    def test_unit_x1_null(self):
        assert zeta_of(V(1, 1, 0, 0)).value == 1.0

    def test_diagonal_null(self):
        z = zeta_of(V(math.sqrt(2), 1, 1, 0)).value
        want = (1 - 1j) / math.sqrt(2)
        assert abs(z - want) < 1e-15
        # both quotient forms agree
        a = np.array([math.sqrt(2), 1.0, 1.0, 0.0])
        f1 = (a[1] - 1j * a[2]) / (a[0] + a[3])
        f2 = (a[0] - a[3]) / (a[1] + 1j * a[2])
        assert abs(f1 - f2) < 1e-15
        assert abs(z - f1) < 1e-15

    def test_not_null_rejected(self):
        with pytest.raises(NotNullError):
            zeta_of(V(1, 0, 0, 0))

    def test_singular_axis_rejected(self):
        with pytest.raises(SingularAxisError):
            zeta_of(V(1, 0, 0, 1))
        with pytest.raises(SingularAxisError):
            zeta_of(V(1, 0, 0, -1))

    @given(
        k1=st.floats(-10, 10),
        k2=st.floats(-10, 10),
        k3=st.floats(-10, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_quotient_forms_agree(self, k1, k2, k3):
        k = np.array([k1, k2, k3])
        r = np.linalg.norm(k)
        if r < 1e-3 or math.hypot(k1, k2) < 1e-3 * r:
            return
        a = np.array([r, k1, k2, k3])
        f1 = (a[1] - 1j * a[2]) / (a[0] + a[3])
        f2 = (a[0] - a[3]) / (a[1] + 1j * a[2])
        # f1 divides by a0 + a3 and f2 by a0 - a3 (through its numerator),
        # one of which cancels to about rho^2 / 2r near the x3 axis,
        # rho = |(a1, a2)|: the quotient on the far side of the axis is the
        # well-conditioned one, and the two agree to 1e-10 only off the axis
        good = f1 if a[3] >= 0 else f2
        z = zeta_of(a).value
        assert abs(z - good) <= 1e-10 * max(abs(good), 1e-30)
        if math.hypot(k1, k2) >= 1e-2 * r:
            assert abs(f1 - f2) <= 1e-10 * max(abs(f1), abs(f2), 1e-30)

    def test_invariant_under_half_boosts(self, rng):
        for _ in range(300):
            k = rng.normal(size=3)
            r = np.linalg.norm(k)
            if r < 1e-6 or math.hypot(k[0], k[1]) < 1e-3 * r:
                continue
            a = np.array([r, k[0], k[1], k[2]], dtype=complex)
            z0 = zeta_of(a).value
            j = int(rng.integers(1, 4))
            psi = float(rng.uniform(-2, 2))
            z1 = zeta_of(upsilon(j, psi) @ a).value
            assert abs(z1 - z0) < 1e-10


class TestPrePotentialPoint:
    def test_on_positive_x1_axis(self):
        s = prepotential_point(rest_charge(), V(3.0, 2.0, 0.0, 0.0))
        assert s.value == 0.0

    def test_on_positive_x2_axis(self):
        q = 1.7
        s = prepotential_point(rest_charge(q), V(0.0, 0.0, 2.5, 0.0))
        assert abs(s.value - (-1j * math.pi * q / 2.0)) < 1e-15

    def test_general_point_matches_direct_formula(self, rng):
        q = -0.8
        c = rest_charge(q)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            if math.hypot(x[0], x[1]) < 0.2:
                continue
            r = np.linalg.norm(x)
            want = q * cmath.log((x[0] - 1j * x[1]) / (r + x[2]))
            got = prepotential_point(c, V(0.5, *x)).value
            assert abs(got - want) < 1e-13


class TestPrePotentialSystem:
    def test_singleton_equals_point(self):
        c = rest_charge(1.3)
        x = V(0.2, 1.0, 0.5, -0.3)
        assert (
            prepotential_system(ChargeSystem((c,)), x).value
            == prepotential_point(c, x).value
        )

    def test_two_symmetric_charges(self):
        c1 = rest_charge(1.0, (0.0, 0.0, 1.0))
        c2 = rest_charge(1.0, (0.0, 0.0, -1.0))
        x = V(0.0, 2.0, 0.0, 0.0)
        total = prepotential_system(ChargeSystem((c1, c2)), x).value
        want = prepotential_point(c1, x).value + prepotential_point(c2, x).value
        assert total == want

    def test_opposite_charges_cancel(self):
        plus = rest_charge(1.0)
        minus = rest_charge(-1.0)
        x = V(0.0, 1.1, -0.7, 0.4)
        assert prepotential_system(ChargeSystem((plus, minus)), x).value == 0.0

    def test_failure_reports_charge_index(self):
        good = rest_charge(1.0, (0.0, 0.0, 0.0))
        bad = rest_charge(1.0, (5.0, 0.0, 0.0))
        x = V(0.0, 5.0, 0.0, 1.0)  # on bad charge's singular axis
        with pytest.raises(ChargeSystemError) as err:
            prepotential_system(ChargeSystem((good, bad)), x)
        assert err.value.index == 1

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            ChargeSystem(())

    @pytest.mark.parametrize("line", [(0.0, 0.0, 0.0), FourVector(0, 0, 0, 0), None])
    def test_charge_rejects_an_unknown_line_kind(self, line):
        # at construction, not at its first solve
        with pytest.raises(TypeError, match="unknown world-line type"):
            Charge(1.0, line)


def _direction(theta, phi, side=1.0):
    """Unit 3-vector at polar angle theta from the +x3 (side 1) or -x3
    (side -1) axis."""
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     side * math.cos(theta)])


def _observer(event, distance, direction):
    """Event whose retarded point on a timelike line through `event` is
    `event` itself, seen along `direction` at `distance`."""
    return FourVector.from_array(event + distance * np.array([1.0, *direction]))


def _charge_of_kind(kind, q, v3, tau):
    """A charge of the given line kind moving with 3-velocity v3, and its
    event at line parameter tau. The sampled line has knots at integer
    tau, with the velocity turning at each; callers keep tau off them."""
    if kind == "rest":
        pos = (0.3, -0.2, 0.1)
        return Charge(q, RestLine(pos)), np.array([tau, *pos])
    u = four_velocity_from_3velocity(v3).as_array()
    if kind == "uniform":
        ref = np.array([0.2, -0.1, 0.4, 0.3])
        return Charge(q, UniformLine(FourVector.from_array(ref),
                                     FourVector.from_array(u))), ref + tau * u
    # segment k runs with u rotated by 0.3 * k about x3
    taus = np.arange(-4.0, 5.0)
    events = [np.array([-4.0, 0.0, 0.0, 0.0])]
    for k in range(len(taus) - 1):
        c, s_ = math.cos(0.3 * k), math.sin(0.3 * k)
        uk = np.array([u[0], c * u[1] - s_ * u[2], s_ * u[1] + c * u[2], u[3]])
        events.append(events[-1] + uk)
    line = SampledLine(tuple(taus), tuple(FourVector.from_array(e) for e in events))
    k = int(math.floor(tau)) + 4
    return Charge(q, line), events[k] + (tau - math.floor(tau)) * (events[k + 1] - events[k])


_speeds = st.tuples(*[st.floats(-0.5, 0.5)] * 3).filter(
    lambda v: float(np.dot(v, v)) <= 0.81)


_sights = st.tuples(
    st.integers(-3, 3), st.floats(0.3, 0.7), st.floats(0.5, 3.0),
    st.floats(-7.0, 0.0), st.floats(0.0, 2.0 * math.pi), st.sampled_from([1.0, -1.0]))


def _sight(kind, v3, sight):
    """The charge and an observer seeing its line at parameter
    knot + frac, from `distance` at 10**log_theta rad off the axis."""
    knot, frac, distance, log_theta, phi, side = sight
    charge, event = _charge_of_kind(kind, 1.0, v3, knot + frac)
    return charge, _observer(event, distance, _direction(10.0**log_theta, phi, side))


EPS = np.finfo(float).eps


def _outer(x, y):
    return x[:, :, None] * y[:, None, :]


def _matmul_hessian(charge, X):
    """For one charge at the rows of X (none failing), the Hessian of S as
    q (J^T h J - (g.u) M), the matmul form of the _jet_rows docstring, from
    the package's A, U, num and den; the entrywise term bound B (N, 4, 4)
    of that form and of the outer-product form, each term's modulus being
    summed, so that a form's rounding error in an entry is at most the
    operations on its path times B there; and the part of the exact trace
    on these inputs that a not exactly null a leaves,
    q ((u.d^)^2 - (u.n^)^2) (a.a) / (a.u)^2, bounded as Z (N,)."""
    _, A, U, _ = retarded_rows(charge.line, X)
    num, den, pick, _ = _zeta_quotients(A)
    n, d = _NUMERATORS[pick], _DENOMINATORS[pick]
    g = n / num[:, None] - d / den[:, None]
    h = _outer(d, d) / (den**2)[:, None, None] - _outer(n, n) / (num**2)[:, None, None]
    U_low = METRIC_SIGNS * U
    au = np.einsum("ni,ni,i->n", A, U, METRIC_SIGNS)
    K = METRIC_SIGNS * A / au[:, None]
    J = np.eye(4) - _outer(U, K)
    M = (ETA - _outer(U_low, K) - _outer(K, U_low) + _outer(K, K)) / au[:, None, None]
    gu = np.einsum("ni,ni->n", g, U)
    H = charge.q * (np.swapaxes(J, 1, 2) @ h @ J - gu[:, None, None] * M)
    # |J| <= I + |u||k|^T, |p| <= |J|^T |d^|, |m| <= |J|^T |n^|, |w| <= |u| + |k|
    dh, nh, aU, aK = np.abs(d / den[:, None]), np.abs(n / num[:, None]), np.abs(U), np.abs(K)
    aJ = np.eye(4) + _outer(aU, aK)
    ud, un = np.einsum("ni,ni->n", aU, dh), np.einsum("ni,ni->n", aU, nh)
    N = np.abs(ETA) + 2.0 * _outer(aU, aU) + _outer(aU, aK) + _outer(aK, aU) + _outer(aK, aK)
    B = abs(charge.q) * (np.swapaxes(aJ, 1, 2) @ (_outer(dh, dh) + _outer(nh, nh)) @ aJ
                         + ((ud + un) / np.abs(au))[:, None, None] * N)
    # a.a with the rounding of its own sum
    aa = np.abs(np.einsum("ni,ni,i->n", A, A, METRIC_SIGNS)) + 2.0 * EPS * (A * A).sum(axis=1)
    return H, B, abs(charge.q) * (ud**2 + un**2) * aa / au**2


class TestPrePotentialJet:
    """The closed-form kernel against the stencil and the textbook oracles."""

    @given(
        kind=st.sampled_from(["rest", "uniform", "sampled"]),
        v3=_speeds,
        knot=st.integers(-3, 3),
        frac=st.floats(0.3, 0.7),
        distance=st.floats(0.5, 3.0),
        theta=st.floats(0.1, math.pi - 0.1),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_hessian_matches_stencil(self, kind, v3, knot, frac, distance, theta, phi):
        # retarded points at least 0.3 of a segment from any knot, and
        # observers at least 0.1 rad off the singular axis
        charge, event = _charge_of_kind(kind, 0.8, v3, knot + frac)
        x = _observer(event, distance, _direction(theta, phi))
        H = jet_at(charge, x).hessian
        want = second_partials(ScalarField.from_charge(charge), x)
        assert np.abs(H - want).max() <= 1e-6 * np.abs(want).max()

    @given(
        kind=st.sampled_from(["rest", "uniform"]),
        v3=_speeds,
        log_theta=st.floats(-6.0, -2.0),
        phi=st.floats(0.0, 2.0 * math.pi),
        side=st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_field_near_axis_matches_oracle(self, kind, v3, log_theta, phi, side):
        charge, event = _charge_of_kind(kind, -1.3, v3, -1.0)
        x = _observer(event, 1.7, _direction(10.0**log_theta, phi, side))
        F = jet_at(charge, x).field
        if kind == "rest":
            want = coulomb_oracle(-1.3, x.as_array()[1:] - event[1:]).as_array()
        else:
            line = charge.line
            v = line.velocity_u.as_array()[1:] / line.velocity_u.x0
            want = boosted_coulomb_oracle(-1.3, v, x, line.reference_event).as_array()
        assert np.abs(F - want).max() <= 1e-9 * np.abs(want).max()

    @given(
        kind=st.sampled_from(["rest", "uniform", "sampled"]),
        v3=st.tuples(*[st.floats(-0.9, 0.9)] * 3).filter(lambda v: float(np.dot(v, v)) <= 0.81),
        sights=st.lists(_sights, min_size=1, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_hessian_matches_the_matmul_form(self, kind, v3, sights):
        """The outer-product Hessian against q (J^T h J - (g.u) M), and its
        wave residual, for |v| <= 0.9 and down to 1e-7 rad off the axis.

        The two forms are one function of the same A, U, num and den, so
        each differs from its exact value only by its own rounding. Along
        the path to any entry each form takes at most L = 16 operations:
        the outer products 1 (n^ or d^) + 4 (u.d^) + 1 (times k) + 1 (p)
        + 1 (times q) + 1 (the product) + 3 (the terms summed) = 12, and
        c's path 1 + 4 + 1 (g.u) + 1 (over a.u) + 1 (times q) + 1 + 3 = 12;
        the matmul form 2 (h) + 1 (its difference) + 2 (J) + 2 x 4 (a
        matmul's product and 3 sums, twice) + 1 (times q) + 1 = 15, and its
        M term 2 + 3 + 1 + 1 + 1 + 1 = 9. A real or complex product,
        quotient or sum errs by at most 4u (u = eps / 2), so each form errs
        by at most 16 x 4u x B = 32 eps B in an entry, and the two differ
        by at most c eps B with c = 64.

        The exact trace eta^{mu nu} H_{mu nu} on these inputs is
        q (p.p - m.m - 2c). Exactly, d and n are null and k.d^ = 1 / (a.u),
        so it vanishes up to Z (the part from a.a) and the rounding of the
        inputs: den and a.u of one relative u each give at most 2u B_00
        over both quotients, and n^, d^ of u each give 2u per diagonal entry
        of their own outer product, 8u max B over four entries and both.
        Summing the four computed entries adds their errors, 4 x 32 eps
        max B, and three rounded sums, at most 3u x 4 max B. So
        |box S| <= c' eps max B + Z with c' = 128 + 6 + 4 + 1 = 139.
        B is at most a few tens of max|H| over the drawn range, so these
        are c eps max|H| and c' eps max|H| bounds scaled by that condition
        number, not by a fitted constant.
        """
        charge = _sight(kind, v3, sights[0])[0]
        X = np.array([_sight(kind, v3, s)[1].as_array() for s in sights])
        jet, failure = prepotential_jets(ChargeSystem((charge,)), X)
        assert not failure.any()
        want, B, Z = _matmul_hessian(charge, X)
        H = jet.hessian
        assert (np.abs(H - want) <= 64 * EPS * B).all()
        box = np.abs(H[:, 0, 0] - H[:, 1, 1] - H[:, 2, 2] - H[:, 3, 3])
        assert (box <= 139 * EPS * B.max(axis=(1, 2)) + Z).all()

    def test_field_is_contracted_hessian(self, rng):
        for kind in ("rest", "uniform", "sampled"):
            charge, event = _charge_of_kind(kind, 1.1, (0.3, -0.4, 0.5), 0.5)
            for _ in range(10):
                theta = rng.uniform(0.2, math.pi - 0.2)
                x = _observer(event, rng.uniform(0.5, 3.0),
                              _direction(theta, rng.uniform(0, 2 * math.pi)))
                jet = jet_at(charge, x)
                F = faraday_from_hessian(jet.hessian).as_array()
                assert np.abs(F - jet.field).max() <= 1e-12 * np.abs(jet.field).max()

    def test_hessian_near_axis_uses_stable_quotient(self):
        # 1e-3 rad from either axis the Hessian entries are ~1e6 times the
        # field; contracting them keeps ~eps * 1e6 relative only when g and h
        # come from the quotient that zeta_of picks
        for kind in ("rest", "uniform"):
            charge, event = _charge_of_kind(kind, 1.0, (0.3, -0.4, 0.5), 0.0)
            for side in (1.0, -1.0):
                for phi in np.linspace(0.0, 2 * math.pi, 7):
                    x = _observer(event, 1.3, _direction(1e-3, phi, side))
                    jet = jet_at(charge, x)
                    F = faraday_from_hessian(jet.hessian).as_array()
                    assert np.abs(F - jet.field).max() <= 1e-7 * np.abs(jet.field).max()

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_non_finite_row_names_its_charge(self, order):
        # at x1 = 1e308 the squares of the separation from a charge at the
        # origin overflow, while a charge 1 away keeps a finite jet there; no
        # RuntimeWarning escapes (the suite makes one an error)
        charges = [Charge(1.0, RestLine((1e308, -0.5, 0.5))), Charge(1.0, RestLine((0, 0, 0)))]
        X = np.array([[0.0, 1e308, 0.5, 0.5]])
        with pytest.raises(ChargeSystemError) as err:
            prepotential_jets(ChargeSystem([charges[i] for i in order]), X)
        assert err.value.index == order.index(1)
        assert str(err.value).endswith("not finite at (0.0, 1e+308, 0.5, 0.5)")

    def test_retarded_solution_velocity(self):
        charge, event = _charge_of_kind("sampled", 1.0, (0.3, 0.2, 0.0), 1.5)
        x = _observer(event, 2.0, _direction(1.0, 0.5))
        sol = retarded_null_vector(charge.line, x)
        assert abs(sol.tau_retarded - 1.5) < 1e-9
        e1, e2 = charge.line.events[5].as_array(), charge.line.events[6].as_array()
        assert_allclose(sol.u.as_array(), e2 - e1, atol=1e-15)


class TestZetaBatch:
    """_zeta_quotients against the quotient identities and the scalar
    classes."""

    @given(
        kind=st.sampled_from(["rest", "uniform", "sampled"]),
        v3=_speeds,
        sights=st.lists(_sights, min_size=1, max_size=10),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_zeta_of(self, kind, v3, sights):
        # zeta solves both quotient identities zeta (a0 + a3) = a1 - i a2
        # and zeta (a1 + i a2) = a0 - a3 to rounding, down to 1e-7 rad off
        # either axis: a wrongly chosen quotient fails one of them by far
        xs = [_sight(kind, v3, s)[1].as_array() for s in sights]
        charge = _sight(kind, v3, sights[0])[0]
        _, A, _ = retarded_null_vectors(charge.line, np.array(xs))
        num, den, pick, failure = _zeta_quotients(A)
        assert not failure.any()
        # the chosen linear forms give num and den
        assert_allclose(np.einsum("ni,ni->n", _NUMERATORS[pick], A), num, rtol=1e-15)
        assert_allclose(np.einsum("ni,ni->n", _DENOMINATORS[pick], A), den, rtol=1e-15)
        z = num / den
        for i, a in enumerate(A):
            # the sums formed here round by eps * |a|, scaled up by |zeta|
            tol = 1e-14 * np.abs(a).max() * max(1.0, abs(z[i]))
            assert abs(z[i] * (a[0] + a[3]) - (a[1] - 1j * a[2])) <= tol
            assert abs(z[i] * (a[1] + 1j * a[2]) - (a[0] - a[3])) <= tol
            assert zeta_of(a).value == z[i]

    @given(
        kind=st.sampled_from(["rest", "uniform", "sampled"]),
        v3=_speeds,
        sights=st.lists(_sights, min_size=0, max_size=6),
        where=st.integers(0, 6),
        side=st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_on_axis_row_raises_scalar_class(self, kind, v3, sights, where, side):
        # the batch flags the on-axis row alone; the scalar call and a
        # raising batch both give SingularAxisError
        charge, event = _charge_of_kind(kind, 1.0, v3, 0.5)
        x_bad = _observer(event, 1.5, np.array([0.0, 0.0, side]))
        with pytest.raises(SingularAxisError):
            zeta_at(charge, x_bad)
        xs = [_sight(kind, v3, s)[1].as_array() for s in sights]
        i_bad = where % (len(xs) + 1)
        xs.insert(i_bad, x_bad.as_array())
        _, A, _ = retarded_null_vectors(charge.line, np.array(xs))
        num, den, _, failure = _zeta_quotients(A)
        assert list(np.flatnonzero(failure)) == [i_bad]
        assert ROW_FAILURES[failure[i_bad]][0] is SingularAxisError
        assert np.isnan(num[i_bad]) and np.isnan(den[i_bad])
        with pytest.raises(SingularAxisError):
            _zeta_rows(charge, np.array(xs))

    def test_not_null_row_raises(self):
        # a numerical failure raises for the whole batch
        A = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0]])
        with pytest.raises(NotNullError):
            zeta_of(A[1])
        with pytest.raises(NotNullError):
            _zeta_quotients(A)


_null_dirs = st.tuples(*[st.floats(-5.0, 5.0)] * 3).filter(
    lambda k: math.hypot(k[0], k[1]) >= 1e-3 * max(math.hypot(*k), 1e-3))


def _null_rows(dirs):
    """Future-pointing null vectors (|k|, k), one row per direction."""
    K = np.array(dirs, dtype=float)
    return np.column_stack([np.linalg.norm(K, axis=1), K])


class TestZetaProperties:
    """The paper's invariances of zeta, on the batched quotient."""

    @given(dirs=st.lists(_null_dirs, min_size=1, max_size=20),
           j=st.integers(1, 3), psi=st.floats(-2.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_half_boosts(self, dirs, j, psi):
        A = _null_rows(dirs)
        z0 = zetas_of(A)
        z1 = zetas_of(A.astype(complex) @ upsilon(j, psi).T)
        assert (np.abs(z1 - z0) <= 1e-10 * np.maximum(1.0, np.abs(z0))).all()

    @given(dirs=st.lists(_null_dirs, min_size=1, max_size=20),
           theta=st.floats(-math.pi, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_rotation_about_x3_is_a_phase(self, dirs, theta):
        # a1 - i a2 turns by exp(-i theta); a0 and a3 stay
        A = _null_rows(dirs)
        c, s_ = math.cos(theta), math.sin(theta)
        R = np.array([[1, 0, 0, 0], [0, c, -s_, 0], [0, s_, c, 0], [0, 0, 0, 1]])
        z0, z1 = zetas_of(A), zetas_of(A @ R.T)
        assert_allclose(np.abs(z1), np.abs(z0), rtol=1e-13)
        assert_allclose(z1 / z0, np.exp(-1j * theta), rtol=1e-13)

    @given(
        kinds=st.lists(st.sampled_from(["rest", "uniform", "sampled"]), min_size=1, max_size=4),
        qs=st.lists(st.sampled_from([-1.5, -0.4, 0.7, 2.0]), min_size=4, max_size=4),
        v3=_speeds,
        sights=st.lists(_sights, min_size=1, max_size=6),
        bad=st.integers(0, 9),
        early=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_system_jet_is_sum_of_charge_jets(self, kinds, qs, v3, sights, bad, early):
        # the system's one solve gives every row the bits of the one-charge
        # jets added onto zeros in charge order, NaN rows included. One
        # extra row on charge `bad`'s axis fails, and an early one precedes
        # the sampled line's range; a failing row takes the code of the
        # first charge that fails there
        charges, events = zip(*(_charge_of_kind(k, q, v3, 0.5) for k, q in zip(kinds, qs)))
        X = [_sight(kinds[0], v3, s)[1].as_array() for s in sights]
        k_bad = bad % len(charges)
        X.append(_observer(events[k_bad], 1.5, np.array([0.0, 0.0, 1.0])).as_array())
        if early:
            X.append(np.array([-20.0, 0.5, 0.5, 0.5]))
        X = np.array(X)
        jet, failure = prepotential_jets(ChargeSystem(charges), X)
        parts = [_jet_rows(ChargeSystem((c,)), X) for c in charges]
        first = np.zeros(len(X), dtype=np.int8)
        for _, fail in reversed(parts):
            first = np.where(fail != 0, fail, first)
        assert_array_equal(failure, first)
        assert failure[len(sights)] != 0
        assert np.isnan(jet.value[failure != 0]).all()
        for name in ("value", "hessian", "field"):
            want = np.zeros_like(getattr(parts[0][0], name))
            for part, _ in parts:
                want += getattr(part, name)
            assert getattr(jet, name).tobytes() == want.tobytes()

    def test_signed_zeros_sum_onto_zeros(self):
        # each charge's E2 at (0, 1, 0, 0.5) is -0.0; a sum that started
        # from the first charge's rows would keep the sign
        charges = (rest_charge(), rest_charge(0.5))
        X = np.array([[0.0, 1.0, 0.0, 0.5]])
        parts = [_jet_rows(ChargeSystem((c,)), X)[0].field for c in charges]
        assert all(math.copysign(1.0, p[0, 1].real) == -1.0 for p in parts)
        field = prepotential_jets(ChargeSystem(charges), X)[0].field
        assert field.tobytes() == (np.zeros_like(parts[0]) + parts[0] + parts[1]).tobytes()
        assert math.copysign(1.0, field[0, 1].real) == 1.0

    def test_charge_of_a_failing_quotient(self, monkeypatch):
        # a batch-level error names the lowest charge whose rows raise it
        # alone: charge 1 is the only one whose retarded vectors reach |a| = 50
        charges = (rest_charge(), rest_charge(0.5, (100.0, 0.0, 0.0)), rest_charge(0.5))
        quotients = potential._zeta_quotients

        def failing(A):
            if (np.abs(A) > 50.0).any():
                raise NotNullError("far rows")
            return quotients(A)

        monkeypatch.setattr(potential, "_zeta_quotients", failing)
        X = np.array([[0.0, 1.0, 2.0, 0.5], [1.0, -1.0, 0.5, 0.5]])
        with pytest.raises(ChargeSystemError, match=r"^charge 1: far rows$") as err:
            prepotential_jets(ChargeSystem(charges), X)
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, NotNullError)


class TestDeltaSAlongPath:
    def test_full_turn_counterclockwise(self):
        q = 1.0
        loop = circle_path(1.0, 0.4)
        delta = delta_S_along_path(rest_charge(q), loop)
        assert abs(delta - (-2j * math.pi * q)) < 1e-10

    def test_loop_not_enclosing_axis(self):
        loop = circle_path(0.8, 0.4, center=(2.5, 0.0))
        delta = delta_S_along_path(rest_charge(), loop)
        assert abs(delta) < 1e-10

    def test_two_turns(self):
        q = 0.7
        loop = circle_path(1.0, 0.3, turns=2)
        delta = delta_S_along_path(rest_charge(q), loop)
        assert abs(delta - (-4j * math.pi * q)) < 1e-10

    def test_clockwise_turn_flips_sign(self):
        q = 1.0
        loop = circle_path(1.0, 0.3, turns=-1)
        delta = delta_S_along_path(rest_charge(q), loop)
        assert abs(delta - (2j * math.pi * q)) < 1e-10

    def test_concatenation_additive(self):
        c = rest_charge(1.0)
        pts = tuple(
            V(0.0, 1.5 * math.cos(p), 1.5 * math.sin(p), 0.5)
            for p in np.linspace(0.0, 2.0, 41)
        )
        whole = delta_S_along_path(c, Path(pts))
        first = delta_S_along_path(c, Path(pts[:21]))
        second = delta_S_along_path(c, Path(pts[20:]))
        assert abs(whole - (first + second)) < 1e-12

    def test_reversal_negates(self):
        c = rest_charge(1.0)
        pts = tuple(
            V(0.0, 1.0 + 0.1 * k, 0.5 - 0.05 * k, 0.3) for k in range(12)
        )
        fwd = delta_S_along_path(c, Path(pts))
        bwd = delta_S_along_path(c, Path(tuple(reversed(pts))))
        assert abs(fwd + bwd) < 1e-12

    def test_coarse_loop_refines_to_same_answer(self):
        q = 1.0
        coarse = circle_path(1.0, 0.4, samples=8)
        delta = delta_S_along_path(rest_charge(q), coarse)
        assert abs(delta - (-2j * math.pi * q)) < 1e-10

    def test_path_through_axis(self):
        pts = (V(0, 1, 0, 0.5), V(0, 0, 0, 0.5), V(0, -1, 0, 0.5))
        with pytest.raises(PathThroughSingularAxisError):
            delta_S_along_path(rest_charge(), Path(pts))


class TestSampledLinePipeline:
    """A tabulated straight world-line must behave exactly like the
    uniform line it samples, through every operation."""

    def setup_method(self):
        self.speed = 0.3
        self.u = four_velocity_from_3velocity([0, 0, self.speed])
        uarr = self.u.as_array()
        taus = tuple(np.linspace(-30.0, 30.0, 1201))
        events = tuple(FourVector.from_array(t * uarr) for t in taus)
        from prepotential import SampledLine

        self.sampled = Charge(1.0, SampledLine(taus, events))
        self.uniform = Charge(1.0, UniformLine(V(0, 0, 0, 0), self.u))
        self.x = V(0.4, 1.2, -0.8, 0.9)

    def test_potential_matches(self):
        s1 = prepotential_point(self.sampled, self.x).value
        s2 = prepotential_point(self.uniform, self.x).value
        assert abs(s1 - s2) < 1e-12

    def test_jet_matches(self):
        j1, j2 = jet_at(self.sampled, self.x), jet_at(self.uniform, self.x)
        assert np.abs(j1.hessian - j2.hessian).max() < 1e-9
        assert np.abs(j1.field - j2.field).max() < 1e-9

    def test_local_scale_matches(self):
        assert abs(local_scale(self.sampled, self.x)
                   - local_scale(self.uniform, self.x)) < 1e-9

    def test_loop_phase_around_sampled_charge(self):
        phis = np.linspace(0, 2 * math.pi, 241)[:-1]
        loop = Path(tuple(
            V(0.0, math.cos(p), math.sin(p), 0.4) for p in phis
        ), closed=True)
        delta = delta_S_along_path(self.sampled, loop)
        assert abs(delta - (-2j * math.pi)) < 1e-10
        # a root counts only on the segment that holds its retarded point,
        # so the 1200 segments sample the edges as the one uniform line does
        sampled, uniform = (ab_phase_report(c, loop) for c in (self.sampled, self.uniform))
        assert sampled.samples_used == uniform.samples_used == 248
        assert sampled.delta_S == delta


class TestLocalScale:
    def test_rest_scale_is_min_of_radius_and_axis_distance(self):
        c = rest_charge()
        x = V(0.0, 0.3, 0.4, 2.0)
        r = np.linalg.norm([0.3, 0.4, 2.0])
        assert abs(local_scale(c, x) - min(r, 0.5)) < 1e-12

    def test_path_validation(self):
        with pytest.raises(ValueError):
            Path((V(0, 1, 0, 0),))
        with pytest.raises(ValueError):
            Path((V(0, 1, 0, 0), V(0, 1, 0, 0)))
        with pytest.raises(ValueError):
            Path((V(0, 1, 0, 0), V(0, 0, 1, 0)), closed=True)

    def test_path_equality_by_value(self):
        events = (V(0, 1, 0, 0), V(0, 0, 1, 0), V(0, -0.0, 0, 1))
        a = Path(events, closed=True)
        b = Path(np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), closed=True)
        assert a == b and hash(a) == hash(b)
        assert a != Path(events, closed=False)
        assert a != Path(events[:2])
        assert a != Path((V(0, 1, 0, 0), V(0, 0, 1, 0), V(0, 0, 0, 2)), closed=True)
