"""The invariant ratio, the scalar potential, gradients, and path phases."""

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
    POTENTIAL_FIELD_SCALE,
    RefinementLimitExceededError,
    RestLine,
    SampledLine,
    ScalarField,
    SingularAxisError,
    StepTooLargeError,
    UniformLine,
    boosted_coulomb_oracle,
    conjugation_C,
    coulomb_oracle,
    delta_S_along_path,
    faraday_from_hessian,
    four_velocity_from_3velocity,
    gradient_S,
    local_scale,
    potential_A,
    prepotential_jet,
    prepotential_jet_system,
    prepotential_point,
    prepotential_system,
    retarded_null_vector,
    second_partials,
    upsilon,
    zeta_at,
    zeta_of,
)
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
from prepotential.spacetime import retarded_null_vectors


def V(*c):
    return FourVector(*map(float, c))


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
        assert abs(f1 - f2) <= 1e-10 * max(abs(f1), abs(f2), 1e-30)
        z = zeta_of(a).value
        assert abs(z - f1) <= 1e-10 * max(abs(f1), 1e-30)

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
        assert s.branch_index == 0

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


class TestGradient:
    def test_rest_closed_form_values(self):
        q = 1.4
        x = np.array([1.1, -0.6, 0.8])
        r = float(np.linalg.norm(x))
        rho2 = x[0] ** 2 + x[1] ** 2
        g = gradient_S(rest_charge(q), V(0.7, *x))
        assert g[0] == 0.0
        assert abs(g[3] - (-q / r)) < 1e-15
        assert abs(g[1] - (q / rho2) * (x[0] * x[2] / r + 1j * x[1])) < 1e-14
        assert abs(g[2] - (q / rho2) * (x[1] * x[2] / r - 1j * x[0])) < 1e-14

    def test_finite_difference_matches_closed_form(self, rng):
        q = -2.1
        c = rest_charge(q)
        for _ in range(15):
            x = rng.uniform(-2, 2, size=3)
            r = np.linalg.norm(x)
            if r < 0.5 or math.hypot(x[0], x[1]) < 0.3 * r:
                continue
            ev = V(0.0, *x)
            exact = gradient_S(c, ev)
            fd = gradient_S(c, ev, step=1e-5 * r)
            assert np.abs(fd - exact).max() < 1e-6 * np.abs(exact).max()

    def test_moving_charge_gradient_is_finite(self):
        u = four_velocity_from_3velocity([0, 0, 0.6])
        c = Charge(1.0, UniformLine(V(0, 0, 0, 0), u))
        g = gradient_S(c, V(0.3, 1.2, 0.4, -0.5))
        assert np.all(np.isfinite(g.view(float)))

    def test_axis_rejected(self):
        with pytest.raises(SingularAxisError):
            gradient_S(rest_charge(), V(0.0, 0.0, 0.0, 2.0))

    def test_absurd_step_raises(self):
        with pytest.raises(StepTooLargeError):
            gradient_S(rest_charge(), V(0.0, 1.0, 0.0, 0.0), step=1.9)


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
        H = prepotential_jet(charge, x).hessian
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
        F = prepotential_jet(charge, x).field
        if kind == "rest":
            want = coulomb_oracle(-1.3, x.spatial - event[1:]).as_array()
        else:
            line = charge.line
            v = line.velocity_u.spatial / line.velocity_u.x0
            want = boosted_coulomb_oracle(-1.3, v, x, line.reference_event).as_array()
        assert np.abs(F - want).max() <= 1e-9 * np.abs(want).max()

    def test_field_is_contracted_hessian(self, rng):
        for kind in ("rest", "uniform", "sampled"):
            charge, event = _charge_of_kind(kind, 1.1, (0.3, -0.4, 0.5), 0.5)
            for _ in range(10):
                theta = rng.uniform(0.2, math.pi - 0.2)
                x = _observer(event, rng.uniform(0.5, 3.0),
                              _direction(theta, rng.uniform(0, 2 * math.pi)))
                jet = prepotential_jet(charge, x)
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
                    jet = prepotential_jet(charge, x)
                    F = faraday_from_hessian(jet.hessian).as_array()
                    assert np.abs(F - jet.field).max() <= 1e-7 * np.abs(jet.field).max()

    def test_retarded_solution_velocity(self):
        charge, event = _charge_of_kind("sampled", 1.0, (0.3, 0.2, 0.0), 1.5)
        x = _observer(event, 2.0, _direction(1.0, 0.5))
        sol = retarded_null_vector(charge.line, x)
        assert abs(sol.tau_retarded - 1.5) < 1e-9
        e1, e2 = charge.line.events[5].as_array(), charge.line.events[6].as_array()
        assert_allclose(sol.u.as_array(), e2 - e1, atol=1e-15)

    def test_system_value_is_prepotential_system(self):
        system = ChargeSystem((
            rest_charge(1.0, (0.0, 0.0, 0.0)),
            Charge(-0.7, UniformLine(V(0, 0.5, 0, 0),
                                     four_velocity_from_3velocity([0.2, 0.0, 0.4]))),
        ))
        x = V(0.3, 1.2, -0.8, 0.9)
        jet = prepotential_jet_system(system, x)
        assert jet.value == prepotential_system(system, x).value
        parts = [prepotential_jet(c, x) for c in system]
        assert_allclose(jet.hessian, parts[0].hessian + parts[1].hessian, rtol=1e-15)
        assert_allclose(jet.field, parts[0].field + parts[1].field, rtol=1e-15)

    def test_system_failure_keeps_root_cause(self):
        good = rest_charge(1.0, (0.0, 0.0, 0.0))
        bad = rest_charge(1.0, (5.0, 0.0, 0.0))
        with pytest.raises(ChargeSystemError) as err:
            prepotential_jet_system(ChargeSystem((good, bad)), V(0.0, 5.0, 0.0, 1.0))
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, SingularAxisError)


_sights = st.tuples(
    st.integers(-3, 3), st.floats(0.3, 0.7), st.floats(0.5, 3.0),
    st.floats(-7.0, 0.0), st.floats(0.0, 2.0 * math.pi), st.sampled_from([1.0, -1.0]))


def _sight(kind, v3, sight):
    """The charge and an observer seeing its line at parameter
    knot + frac, from `distance` at 10**log_theta rad off the axis."""
    knot, frac, distance, log_theta, phi, side = sight
    charge, event = _charge_of_kind(kind, 1.0, v3, knot + frac)
    return charge, _observer(event, distance, _direction(10.0**log_theta, phi, side))


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
        kinds=st.lists(st.sampled_from(["rest", "uniform", "sampled"]), min_size=1, max_size=3),
        qs=st.lists(st.sampled_from([-1.5, -0.4, 0.7, 2.0]), min_size=3, max_size=3),
        v3=_speeds,
        sights=st.lists(_sights, min_size=1, max_size=6),
        bad=st.integers(0, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_system_jet_is_sum_of_charge_jets(self, kinds, qs, v3, sights, bad):
        # one extra row on charge `bad`'s axis fails; a failing row takes
        # the code of the first charge that fails there
        charges, events = zip(*(_charge_of_kind(k, q, v3, 0.5) for k, q in zip(kinds, qs)))
        X = [_sight(kinds[0], v3, s)[1].as_array() for s in sights]
        k_bad = bad % len(charges)
        X.append(_observer(events[k_bad], 1.5, np.array([0.0, 0.0, 1.0])).as_array())
        X = np.array(X)
        jet, failure = prepotential_jets(ChargeSystem(charges), X)
        parts = [_jet_rows(c, X) for c in charges]
        first = np.zeros(len(X), dtype=np.int8)
        for _, fail in reversed(parts):
            first = np.where(fail != 0, fail, first)
        assert_array_equal(failure, first)
        assert failure[-1] != 0
        ok = failure == 0
        assert np.isnan(jet.value[~ok]).all()
        for name in ("value", "gradient", "hessian", "field"):
            got = getattr(jet, name)[ok]
            want = sum(getattr(p, name)[ok] for p, _ in parts)
            assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max(initial=0.0))


class TestPotentialA:
    def test_conjugation_applied_twice_restores_gradient(self):
        c = rest_charge(1.0)
        x = V(0.0, 1.5, 0.0, 0.0)
        grad = gradient_S(c, x)
        cc = conjugation_C()
        assert_allclose(cc @ (cc @ grad), grad, atol=1e-16)

    def test_matches_scaled_lowered_conjugation_times_gradient(self):
        c = rest_charge(-1.2)
        x = V(0.4, 0.9, -1.1, 0.6)
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        want = POTENTIAL_FIELD_SCALE * (eta @ conjugation_C() @ eta) @ gradient_S(c, x)
        assert_allclose(potential_A(c, x), want, atol=1e-16)

    def test_no_nans_on_grid_off_axis(self):
        c = rest_charge(1.0)
        for x1 in np.linspace(-2, 2, 7):
            for x2 in np.linspace(-2, 2, 7):
                if math.hypot(x1, x2) < 0.4:
                    continue
                a = potential_A(c, V(0.0, x1, x2, 0.7))
                assert np.all(np.isfinite(a.view(float)))


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

    def test_refinement_limit(self):
        loop = circle_path(1.0, 0.4, samples=3)
        with pytest.raises(RefinementLimitExceededError):
            delta_S_along_path(rest_charge(), loop, max_depth=0)

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

    def test_gradient_matches(self):
        g1 = gradient_S(self.sampled, self.x)
        g2 = gradient_S(self.uniform, self.x)
        assert np.abs(g1 - g2).max() < 1e-9

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
