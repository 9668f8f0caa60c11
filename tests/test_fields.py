"""Field derivation routes, oracles, residual stencils, covariance."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prepotential import (
    Charge,
    ChargeSystem,
    CovarianceCheck,
    DegenerateDenominatorError,
    FaradayVector,
    FourVector,
    NotNullError,
    POTENTIAL_FIELD_SCALE,
    PrepotentialError,
    RestLine,
    SampledLine,
    ScalarField,
    SingularStencilError,
    StepTooLargeError,
    UNIFORM_FIELD_CALIBRATION,
    UniformLine,
    boosted_coulomb_oracle,
    claim1_covariance_check,
    claim1_covariance_rows,
    conjugation_C,
    coulomb_oracle,
    faraday_from_A,
    faraday_from_S,
    faraday_from_hessian,
    faraday_from_hessian_rows,
    faraday_uniform,
    four_velocity_from_3velocity,
    potential_field,
    local_scale,
    prepotential_jets,
    local_scales,
    minkowski_dot,
    retarded_null_vector,
    rho,
    second_partials,
    second_partials_rows,
    upsilon,
    upsilon_bar,
    vacuum_maxwell_residual,
    wave_residual,
)
from prepotential.fields import (
    RESIDUAL_STEP_FACTOR,
    _contract_dA,
    _diagonal_partials,
    _hessian_level,
)
from prepotential.matrices import METRIC
from prepotential.spacetime import METRIC_SIGNS


def V(*c):
    return FourVector(*map(float, c))


def rest_field(q=1.0, pos=(0.0, 0.0, 0.0)):
    return ScalarField.from_charge(Charge(q, RestLine(pos)))


def function_field(f, scale=1.0):
    """The ScalarField of a plain function of one event, with a constant
    stencil scale."""

    def delta(X, ib, ia):
        S = np.array([f(FourVector.from_array(x)) for x in X], dtype=complex)
        return S[ib] - S[ia]

    return ScalarField(value=f, delta=delta, scale=lambda X: np.full(len(X), scale))


def shell_points(rng, n, rmin=0.5, rmax=4.0, guard=0.4):
    pts = []
    while len(pts) < n:
        v = rng.normal(size=3)
        nv = np.linalg.norm(v)
        if nv < 1e-9 or math.hypot(v[0], v[1]) / nv < guard:
            continue
        pts.append(rng.uniform(rmin, rmax) * v / nv)
    return pts


class TestSecondPartials:
    def test_rest_hessian_matches_known_derivatives(self):
        q = 1.0
        x = np.array([1.1, -0.6, 0.8])
        r = float(np.linalg.norm(x))
        H = second_partials(rest_field(q), V(0.0, *x))
        # static: every time derivative vanishes identically
        assert abs(H[0, 0]) == 0.0
        assert abs(H[0, 3]) == 0.0
        # transverse pair sums against the axial second derivative
        assert abs(H[1, 1] + H[2, 2] - (-q * x[2] / r**3)) < 1e-6
        assert abs(H[3, 3] - q * x[2] / r**3) < 1e-6
        assert abs(H[1, 3] - q * x[0] / r**3) < 1e-6

    def test_symmetric(self, rng):
        H = second_partials(rest_field(), V(0.0, 1.3, 0.6, -0.4))
        assert_allclose(H, H.T, atol=0)

    def test_exact_on_quadratic(self, rng):
        # polynomial oracle: for f = x^T C x the Hessian is C + C^T exactly
        C = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

        def f(x):
            v = x.as_array()
            return complex(v @ C @ v)

        fld = function_field(f)
        H = second_partials(fld, V(0.4, -0.3, 1.1, 0.8))
        assert_allclose(H, C + C.T, atol=1e-9)

    def test_on_axis_raises(self):
        with pytest.raises(SingularStencilError):
            second_partials(rest_field(), V(0.0, 0.0, 0.0, 1.0))


class TestFaradayFromS:
    def test_point_on_x1_axis(self):
        f = faraday_from_S(rest_field(1.0), V(0.0, 2.0, 0.0, 0.0))
        assert_allclose(f.as_array(), [0.25, 0.0, 0.0], atol=2e-8)

    def test_coulomb_field_on_shell(self, rng):
        q = 1.0
        fld = rest_field(q)
        for p in shell_points(rng, 40):
            f = faraday_from_S(fld, V(0.0, *p))
            want = q * p / np.linalg.norm(p) ** 3
            assert np.abs(f.electric - want).max() < 1e-6 * np.abs(want).max()
            assert np.abs(f.magnetic).max() < 1e-8

    def test_third_component_is_axial_coulomb(self, rng):
        q = -1.6
        fld = rest_field(q)
        for p in shell_points(rng, 10):
            f = faraday_from_S(fld, V(0.0, *p))
            want = q * p[2] / np.linalg.norm(p) ** 3
            assert abs(f.F3 - want) < 1e-6 * abs(q)


class TestPotentialFieldScale:
    def test_scale_from_rho_and_C(self, rng):
        # the potential route with s = 1, A_mu = (eta C eta)_mu^lam d_lam S,
        # against the direct contraction of the same Hessian
        bare_matrix = METRIC @ conjugation_C() @ METRIC

        def bare(H):
            return np.array([_contract_dA(h @ bare_matrix.T).as_array() for h in H])

        # exactly, on each symmetric basis matrix E_mn + E_nm
        E = np.eye(4)
        basis = np.array([np.outer(E[m], E[n]) + np.outer(E[n], E[m])
                          for m in range(4) for n in range(m, 4)])
        assert np.array_equal(faraday_from_hessian_rows(basis),
                              POTENTIAL_FIELD_SCALE * bare(basis))
        # and on the closed-form Hessians of a rest charge
        system = ChargeSystem((Charge(1.0, RestLine((0.0, 0.0, 0.0))),))
        X = np.column_stack([np.zeros(10), shell_points(rng, 10)])
        jet, failure = prepotential_jets(system, X)
        assert not failure.any()
        ratio = faraday_from_hessian_rows(jet.hessian) / bare(jet.hessian)
        assert_allclose(ratio, POTENTIAL_FIELD_SCALE, rtol=1e-12)


class TestFaradayFromA:
    def test_potential_route_matches_direct_route(self, rng):
        charge = Charge(1.0, RestLine((0.0, 0.0, 0.0)))
        fld = ScalarField.from_charge(charge)
        A = potential_field(charge)
        for p in shell_points(rng, 25):
            x = V(0.0, *p)
            direct = faraday_from_S(fld, x).as_array()
            via_A = faraday_from_A(A, x).as_array()
            assert np.abs(direct - via_A).max() < 1e-8 * max(1.0, np.abs(direct).max())

    def test_constant_potential_gives_zero_field(self):
        def A(x):
            return np.array([0.3, -0.1 + 0.2j, 0.0, 1.0])

        f = faraday_from_A(A, V(0.0, 1.0, 0.5, -0.3))
        assert np.abs(f.as_array()).max() < 1e-12

    def test_classical_coulomb_potential(self):
        q = 1.0

        def A(x):
            return np.array([q / np.linalg.norm(x.as_array()[1:]), 0.0, 0.0, 0.0])

        x = np.array([1.1, -0.6, 0.8])
        f = faraday_from_A(A, V(0.0, *x))
        want = q * x / np.linalg.norm(x) ** 3
        assert np.abs(f.electric - want).max() < 1e-8
        assert np.abs(f.magnetic).max() < 1e-8

    def test_uniform_magnetic_potential(self):
        # A_vec = B0/2 (-y, x, 0) gives B = B0 z-hat; covariant A_k = -A^k
        b0 = 0.8

        def A(x):
            return np.array([0.0, b0 * x.x2 / 2.0, -b0 * x.x1 / 2.0, 0.0])

        f = faraday_from_A(A, V(0.0, 0.7, -0.2, 0.4))
        assert_allclose(f.as_array(), [0.0, 0.0, 1j * b0], atol=1e-9)


class TestFaradayUniform:
    def test_rest_reduction(self, rng):
        q = 1.3
        u = V(1, 0, 0, 0)
        for p in shell_points(rng, 15):
            r = np.linalg.norm(p)
            a = V(r, *p)
            f = faraday_uniform(q, a, u)
            assert_allclose(f.as_array(), q * p / r**3 + 0j, rtol=1e-12, atol=1e-13)

    def test_unit_distance_trivial(self):
        f = faraday_uniform(2.0, V(1, 1, 0, 0), V(1, 0, 0, 0))
        assert_allclose(f.as_array(), [2.0, 0.0, 0.0], atol=1e-15)

    def test_calibration_constant_pinned(self, rng):
        # recomputed from rho^j for a rest charge (u = e0, a = (r, x)): the
        # bare contraction a_mu rho^j[mu, nu] u^nu / (a.u)^3 against q x / r^3
        u = np.array([1.0, 0.0, 0.0, 0.0])
        for p in shell_points(rng, 10):
            r = np.linalg.norm(p)
            a_low = METRIC_SIGNS * np.array([r, *p])
            bare = np.array([a_low @ rho(j) @ u for j in (1, 2, 3)]) / r**3
            assert not bare.imag.any()
            assert_allclose(p / r**3 / bare.real, UNIFORM_FIELD_CALIBRATION, rtol=1e-14)

    def test_matches_boosted_oracle(self, rng):
        q = -0.9
        for speed in (0.1, 0.5, 0.9):
            u = four_velocity_from_3velocity([0.0, 0.0, speed])
            line = UniformLine(V(0, 0, 0, 0), u)
            for _ in range(20):
                x = rng.uniform(-2, 2, size=4)
                obs = FourVector.from_array(x)
                present = x[1:] - np.array([0, 0, speed]) * x[0]
                if np.linalg.norm(present) < 0.3:
                    continue
                a = retarded_null_vector(line, obs).a
                f = faraday_uniform(q, a, u).as_array()
                want = boosted_coulomb_oracle(q, [0, 0, speed], obs).as_array()
                assert np.abs(f - want).max() < 1e-10 * np.abs(want).max()

    def test_rejects_non_null_a(self):
        with pytest.raises(NotNullError):
            faraday_uniform(1.0, V(1, 0, 0, 0), V(1, 0, 0, 0))

    def test_rejects_nonpositive_cone_denominator(self):
        with pytest.raises(DegenerateDenominatorError):
            faraday_uniform(1.0, V(-1, 1, 0, 0), V(1, 0, 0, 0))

    def test_rejects_non_unit_velocity(self):
        # a is null and a.u positive, so only the u.u check can fire
        with pytest.raises(ValueError, match=r"u\.u = 1") as info:
            faraday_uniform(1.0, V(1, 1, 0, 0), V(2, 0, 0, 0))
        assert type(info.value) is ValueError

    def test_shares_the_uniform_line_velocity_tolerance(self):
        # |u.u - 1| = 1e-10 is over the 1e-12 a UniformLine allows, and
        # faraday_uniform holds u to the same tolerance
        u = V(math.sqrt(1.0 + 1e-10), 0, 0, 0)
        assert abs(abs(minkowski_dot(u, u) - 1.0) - 1e-10) < 1e-15
        with pytest.raises(ValueError, match=r"u\.u = 1"):
            faraday_uniform(1.0, V(1, 1, 0, 0), u)
        with pytest.raises(ValueError, match=r"u\.u = 1"):
            UniformLine(V(0, 0, 0, 0), u)


class TestOracles:
    def test_unit_coulomb(self):
        f = coulomb_oracle(1.0, [1.0, 0.0, 0.0])
        assert_allclose(f.electric, [1, 0, 0], atol=0)
        assert_allclose(f.magnetic, [0, 0, 0], atol=0)

    def test_boosted_reduces_at_zero_speed(self, rng):
        for p in shell_points(rng, 10):
            a = boosted_coulomb_oracle(1.0, [0, 0, 0], V(0.3, *p)).as_array()
            # present position shifts nothing at v = 0
            b = coulomb_oracle(1.0, p).as_array()
            assert_allclose(a, b, rtol=1e-14)

    def test_transverse_enhancement(self):
        v = 0.5
        gamma = 1.0 / math.sqrt(1.0 - v * v)
        f = boosted_coulomb_oracle(1.0, [0, 0, v], V(0.0, 1.0, 0.0, 0.0))
        assert_allclose(f.electric, [gamma, 0.0, 0.0], rtol=1e-14)
        assert_allclose(f.magnetic, np.cross([0, 0, v], [gamma, 0, 0]), rtol=1e-14)

    def test_origin_rejected(self):
        with pytest.raises(DegenerateDenominatorError):
            coulomb_oracle(1.0, [0.0, 0.0, 0.0])


class TestResiduals:
    def test_wave_residual_rest(self, rng):
        q = 1.0
        fld = rest_field(q)
        for p in shell_points(rng, 20):
            x = V(0.0, *p)
            scale = q / np.linalg.norm(p) ** 2
            assert abs(wave_residual(fld, x)) < 1e-5 * scale

    def test_wave_residual_uniform_motion(self, rng):
        q = 1.0
        u = four_velocity_from_3velocity([0, 0, 0.5])
        charge = Charge(q, UniformLine(V(0, 0, 0, 0), u))
        fld = ScalarField.from_charge(charge)
        line = charge.line
        for p in shell_points(rng, 20):
            x = V(0.2, *p)
            a = retarded_null_vector(line, x).a.as_array()
            scale = q / np.linalg.norm(a[1:]) ** 2
            assert abs(wave_residual(fld, x)) < 1e-4 * scale

    def test_wave_residual_high_speed(self, rng):
        # relativistic regime: stencil accuracy degrades but stays well
        # inside the relative envelope for moving charges
        q = 1.0
        u = four_velocity_from_3velocity([0, 0, 0.9])
        charge = Charge(q, UniformLine(V(0, 0, 0, 0), u))
        fld = ScalarField.from_charge(charge)
        line = charge.line
        checked = 0
        while checked < 15:
            t = float(rng.uniform(-1, 1))
            p = rng.uniform(-3, 3, size=3)
            present = p - np.array([0, 0, 0.9]) * t
            r = np.linalg.norm(present)
            if not (0.5 <= r <= 4.0) or math.hypot(present[0], present[1]) < 0.4:
                continue
            checked += 1
            x = V(t, *p)
            a = retarded_null_vector(line, x).a.as_array()
            scale = q / np.linalg.norm(a[1:]) ** 2
            assert abs(wave_residual(fld, x)) < 1e-4 * scale

    def test_constant_field_residual_zero(self):
        fld = function_field(lambda x: 0.7 - 0.2j)
        assert wave_residual(fld, V(0, 1, 1, 1)) == 0.0
        assert vacuum_maxwell_residual(fld, V(0, 1, 1, 1)) == 0.0

    def test_vacuum_residual_rest(self, rng):
        q = 1.0
        fld = rest_field(q)
        for p in shell_points(rng, 20):
            scale = q / np.linalg.norm(p) ** 2
            assert abs(vacuum_maxwell_residual(fld, V(0.0, *p))) < 1e-5 * scale

    def test_vacuum_residual_superposition(self, rng):
        system = ChargeSystem((
            Charge(1.0, RestLine((0.0, 0.0, 1.0))),
            Charge(-0.5, RestLine((0.0, 0.0, -1.0))),
        ))
        fld = ScalarField.from_system(system)
        for p in shell_points(rng, 10, rmin=2.5, rmax=4.0):
            x = V(0.0, *p)
            scale = 1.0 / (np.linalg.norm(p) - 1.0) ** 2
            assert abs(vacuum_maxwell_residual(fld, x)) < 1e-5 * scale

    def test_second_order_convergence(self):
        fld = rest_field(1.0)
        x = V(0.0, 1.2, -0.8, 0.9)
        base = 4e-3
        for residual in (wave_residual, vacuum_maxwell_residual):
            res = [abs(residual(fld, x, step=base / 2**k)) for k in range(3)]
            orders = [math.log2(res[k] / res[k + 1]) for k in range(2)]
            for order in orders:
                assert 1.5 < order < 2.6


class TestComplexTensor:
    def test_mixed_tensor_reproduces_standard_form(self, rng):
        # the complex tensor sum_j F_j rho^j of the covariance check plus
        # its conjugate is the real mixed tensor
        E = rng.normal(size=3)
        B = rng.normal(size=3)
        t = sum((E + 1j * B)[j - 1] * rho(j) for j in (1, 2, 3))
        got = t + t.conj()
        # standard mixed tensor: raise the first index of F_{mu nu} with
        # F_{0k} = E_k and F_{jk} = -eps_{jkl} B_l
        low = np.zeros((4, 4))
        low[0, 1:] = E
        low[1:, 0] = -E
        low[1, 2], low[2, 1] = -B[2], B[2]
        low[2, 3], low[3, 2] = -B[0], B[0]
        low[3, 1], low[1, 3] = -B[1], B[1]
        std = np.diag([1.0, -1.0, -1.0, -1.0]) @ low
        assert np.abs(got - std).max() < 1e-15


class TestClaimOneCovariance:
    def test_random_field_vectors(self, rng):
        for _ in range(100):
            f = FaradayVector.from_array(rng.normal(size=3) + 1j * rng.normal(size=3))
            for j in (1, 2, 3):
                psi = float(rng.uniform(-2, 2))
                assert claim1_covariance_check(f, j, psi).max_deviation < 1e-12

    def test_zero_field(self):
        f = FaradayVector(0j, 0j, 0j)
        assert claim1_covariance_check(f, 1, 1.3).max_deviation == 0.0

    def test_zero_rapidity(self, rng):
        f = FaradayVector.from_array(rng.normal(size=3) + 1j * rng.normal(size=3))
        assert claim1_covariance_check(f, 2, 0.0).max_deviation < 1e-15

    @staticmethod
    def reference(f, j, psi):
        """The check one field vector at a time, in 4x4 matrices."""
        t = sum(f[k - 1] * rho(k) for k in (1, 2, 3))
        tbar = t.conj()
        u, ub = upsilon(j, psi), upsilon_bar(j, psi)
        u_inv, ub_inv = upsilon(j, -psi), upsilon_bar(j, -psi)
        lam, lam_inv = u @ ub, ub_inv @ u_inv
        lhs = lam_inv @ (t + tbar) @ lam
        rhs = u_inv @ t @ u + ub_inv @ tbar @ ub
        return float(np.abs(lhs - rhs).max())

    @given(rows=st.lists(
        st.tuples(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=3, max_size=3),
                  st.sampled_from([1, 2, 3]), st.floats(-3.0, 3.0)),
        min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_reference(self, rows):
        F = np.array([f for f, _, _ in rows], dtype=complex)
        axes = np.array([j for _, j, _ in rows])
        psis = np.array([psi for _, _, psi in rows])
        devs = claim1_covariance_rows(F, axes, psis)
        assert devs.shape == (len(rows),)
        for i, (f, j, psi) in enumerate(rows):
            assert devs[i] == self.reference(F[i], j, psi)
            assert claim1_covariance_check(FaradayVector.from_array(f), j, psi) == (
                CovarianceCheck(j, psi, devs[i]))

    @pytest.mark.parametrize("axis", [0, 4, -1])
    def test_axis_outside_one_to_three_raises(self, rng, axis):
        F = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        message = f"axis index must be 1, 2 or 3, got {axis}"
        with pytest.raises(ValueError, match=message):
            claim1_covariance_rows(F, [1, axis, 2], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match=message):
            claim1_covariance_check(FaradayVector.from_array(F[0]), axis, 0.5)


def _line_and_events(kind, v3):
    """A charge of the given line kind and its event at line parameter
    tau. The rest charge sits at the origin, the uniform one passes it at
    tau = 0 with 3-velocity v3, and the sampled one has knots at integer
    tau from -4 to 4, its velocity turning by 0.3 rad about x3 at each."""
    if kind == "rest":
        return Charge(1.0, RestLine((0.0, 0.0, 0.0))), lambda tau: np.array([tau, 0, 0, 0.0])
    u = four_velocity_from_3velocity(v3).as_array()
    if kind == "uniform":
        return (Charge(-1.3, UniformLine(V(0, 0, 0, 0), FourVector.from_array(u))),
                lambda tau: tau * u)
    events = [np.array([-4.0, 0.0, 0.0, 0.0])]
    for k in range(8):
        c, s = math.cos(0.3 * k), math.sin(0.3 * k)
        events.append(events[-1] + [u[0], c * u[1] - s * u[2], s * u[1] + c * u[2], u[3]])
    line = SampledLine(tuple(np.arange(-4.0, 5.0)), tuple(map(FourVector.from_array, events)))

    def event(tau):
        k = min(int(math.floor(tau)) + 4, 7)
        return events[k] + (tau + 4 - k) * (events[k + 1] - events[k])

    return Charge(0.7, line), event


def _field_of_kind(kind, v3):
    """(field, its charge or None, the event function of the charge the
    stencil points are sighted from)."""
    if kind in ("rest", "uniform", "sampled"):
        charge, event = _line_and_events(kind, v3)
        return ScalarField.from_charge(charge), charge, event
    rest, event = _line_and_events("rest", v3)
    if kind == "system":
        u = four_velocity_from_3velocity(v3)
        other = Charge(-0.6, UniformLine(V(0.0, 1.5, -0.5, 0.2), u))
        return ScalarField.from_system(ChargeSystem((rest, other))), None, event

    def f(x):
        v = x.as_array()
        return complex(np.exp(0.3j * v[0]) * (v[1] + 2j * v[2]) * (1.0 + v[3] ** 2))

    return function_field(f, scale=0.8), None, event


_row_speeds = st.tuples(*[st.floats(-0.5, 0.5)] * 3).filter(
    lambda v: float(np.dot(v, v)) <= 0.64)
# (tau, distance, theta, phi) of a stencil point sighted from the charge's
# event at tau, at least 0.3 rad off its singular axis
_sights = st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.5, 3.0),
                             st.floats(0.3, math.pi - 0.3), st.floats(0.0, 2 * math.pi)),
                   min_size=1, max_size=6)


def _sighted(event, tau, distance, theta, phi):
    direction = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                 math.cos(theta)]
    return event(tau) + distance * np.array([1.0, *direction])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrepotentialError as exc:
        return exc


class TestStencilRows:
    """Row i of every row stencil equals the one-point call at X[i], bit
    for bit, and a batch fails exactly as its first failing point does."""

    @given(kind=st.sampled_from(["rest", "uniform", "sampled", "system", "function"]),
           v3=_row_speeds, sights=_sights)
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_single_points(self, kind, v3, sights):
        field, charge, event = _field_of_kind(kind, v3)
        X = np.array([_sighted(event, *s) for s in sights])
        scales = field.scale(X)
        H = second_partials_rows(field, X)
        F = faraday_from_hessian_rows(H)
        D = _diagonal_partials(field, X, None)
        if charge is not None:
            assert np.array_equal(local_scales(charge, X), scales)
        for i, row in enumerate(X):
            x = FourVector.from_array(row)
            assert scales[i] == field.scale(X[i:i + 1])[0]
            if charge is not None:
                assert scales[i] == local_scale(charge, x)
            assert np.array_equal(H[i], second_partials(field, x))
            assert np.array_equal(F[i], faraday_from_hessian(H[i]).as_array())
            assert np.array_equal(F[i], faraday_from_S(field, x).as_array())
            assert wave_residual(field, x) == complex(D[i, 0] - D[i, 1] - D[i, 2] - D[i, 3])
            assert vacuum_maxwell_residual(field, x) == complex(D[i, 1] + D[i, 2] + D[i, 3])

    @given(kind=st.sampled_from(["rest", "uniform", "sampled"]), v3=_row_speeds,
           sights=_sights, step=st.sampled_from([None, 0.05]),
           bad=st.lists(st.tuples(st.integers(0, 6), st.sampled_from(["axis", "near", "line"]),
                                  st.floats(-1.5, 1.5), st.sampled_from([1.0, -1.0])),
                        min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_batch_fails_as_first_failing_point(self, kind, v3, sights, step, bad):
        # failing points: on the singular axis, 0.01 rad off it (the fixed
        # step then swings the phase too far), or on the world-line
        field, _, event = _field_of_kind(kind, v3)
        X = [_sighted(event, *s) for s in sights]
        for at, how, tau, side in bad:
            off = 0.01 if how == "near" else 0.0
            theta = off if side > 0 else math.pi - off
            X.insert(at, _sighted(event, tau, 0.0 if how == "line" else 1.0, theta, 0.0))
        X = np.array(X)
        for stencil, one in [
            (lambda Y: second_partials_rows(field, Y, step),
             lambda x: second_partials(field, x, step)),
            (lambda Y: _diagonal_partials(field, Y, step),
             lambda x: wave_residual(field, x, step)),
        ]:
            outcomes = [_outcome(one, FourVector.from_array(row)) for row in X]
            first = next((o for o in outcomes if isinstance(o, PrepotentialError)), None)
            if first is None:
                stencil(X)
                continue
            with pytest.raises(PrepotentialError) as info:
                stencil(X)
            assert type(info.value) is type(first)
            assert isinstance(first, (SingularStencilError, StepTooLargeError))
            assert str(info.value) == str(first)


def _termwise_events(X, h):
    """The 33 stencil events per row of X at steps h, built one term at
    a time as the stencil's comment writes them (x + h e_m, then
    + h e_n, ...): the reference for _hessian_level's offset table."""
    C = X[:, None, :]
    E = h[:, None, None] * np.eye(4)
    plus, minus = C + E, C - E
    m, n = np.triu_indices(4, 1)
    pm, mm, En = plus[:, m], minus[:, m], E[:, n]
    return np.concatenate([C, plus, minus, pm + En, pm - En, mm + En, mm - En], axis=1)


_coordinate = st.floats(min_value=-1e300, max_value=1e300)


@given(X=st.lists(st.lists(_coordinate, min_size=4, max_size=4), min_size=1, max_size=5),
       h=st.floats(min_value=1e-150, max_value=1e150))
@example(X=[[-0.0, -0.0, -0.0, -0.0], [0.0, -0.0, 1.5, -0.0], [2.0, -0.0, 0.0, -3.0]], h=1e-3)
@settings(max_examples=200, deadline=None)
def test_stencil_events_have_the_termwise_bits(X, h):
    # signed zeros included: a coordinate -0.0 stays -0.0 exactly in the
    # events where the termwise sums keep it
    X = np.array(X)
    steps = np.full(len(X), h)
    seen = []

    def delta(events, ib, ia):
        seen.append(events.copy())
        return np.zeros(len(ib), dtype=complex)

    _hessian_level(ScalarField(value=None, delta=delta, scale=None), X, steps)
    want = _termwise_events(X, steps).reshape(-1, 4)
    assert np.array_equal(seen[0].view(np.int64), want.view(np.int64))


def _plain_diagonal(field, x, step):
    """S_{,mu mu} (4,) at x from the plain central second differences of
    field.delta over the 9 events x and x +- h e_mu, h the residual step:
    the reference for the residual stencils."""
    X = x.as_array()[None]
    h = step if step is not None else RESIDUAL_STEP_FACTOR * field.scale(X)[0]
    E = h * np.eye(4)
    d = field.delta(np.vstack([X, X + E, X - E]), np.arange(1, 9), np.zeros(8, dtype=np.intp))
    return (d[:4] + d[4:]) / (h * h)


@pytest.mark.parametrize("kind", ["rest", "uniform", "sampled"])
@pytest.mark.parametrize("step", [None, 0.05])
def test_residuals_are_plain_central_differences(kind, step):
    # the residuals read the diagonal of the full 33-event stencil; on
    # events 0.3 rad or more off the axis its values equal the 9-event
    # diagonal stencil's bit for bit
    field, _, event = _field_of_kind(kind, (0.3, -0.2, 0.5))
    rng = np.random.default_rng(7)
    for _ in range(20):
        sight = (rng.uniform(-1.5, 1.5), rng.uniform(0.5, 3.0),
                 rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.0, 2 * math.pi))
        x = FourVector.from_array(_sighted(event, *sight))
        D = _plain_diagonal(field, x, step)
        assert wave_residual(field, x, step) == complex(D[0] - D[1] - D[2] - D[3])
        assert vacuum_maxwell_residual(field, x, step) == complex(D[1] + D[2] + D[3])


_HYPERBOLIC_G = 0.5


def _hyperbolic(tau):
    """Hyperbolic motion along x3 with proper acceleration 0.5, at rest at
    the origin at tau = 0."""
    g = _HYPERBOLIC_G
    return np.array([math.sinh(g * tau) / g, 0.0, 0.0, (math.cosh(g * tau) - 1.0) / g])


def _lienard_wiechert(x, velocity_only=False):
    """E + iB of a unit charge in hyperbolic motion at x, from its retarded
    time by bisection; velocity_only drops the radiation term."""
    g = _HYPERBOLIC_G
    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        e = _hyperbolic(mid)
        if x[0] - e[0] > np.linalg.norm(x[1:] - e[1:]):
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    rel = x[1:] - _hyperbolic(tau)[1:]
    R = np.linalg.norm(rel)
    n = rel / R
    beta = np.array([0.0, 0.0, math.tanh(g * tau)])
    kappa = 1.0 - n @ beta
    E = (n - beta) * (1.0 - beta @ beta) / (kappa**3 * R**2)
    if not velocity_only:
        accel = np.array([0.0, 0.0, g / math.cosh(g * tau) ** 3])
        E = E + np.cross(n, np.cross(n - beta, accel)) / (kappa**3 * R)
    return E + 1j * np.cross(n, E)


def test_sampled_line_has_no_radiation_field():
    # a sampled line is uniform within each segment: tabulated hyperbolic
    # motion gives the velocity field of the segment holding the retarded
    # point, and finer knots do not bring the radiation term back
    X = np.array([[0.0, 1.5, 0.3, 1.0], [2.0, 0.0, 3.0, 0.5]])
    off_lw = {0.1: [], 0.005: []}
    for spacing in off_lw:
        taus = np.arange(-12.0, 12.0 + spacing / 2, spacing)
        line = SampledLine(tuple(taus), tuple(FourVector.from_array(_hyperbolic(t))
                                              for t in taus))
        jet, failure = prepotential_jets(ChargeSystem((Charge(1.0, line),)), X)
        assert not failure.any()
        for x, F in zip(X, jet.field):
            full, velocity = _lienard_wiechert(x), _lienard_wiechert(x, velocity_only=True)
            off_lw[spacing].append(np.abs(F - full).max() / np.abs(full).max())
            if spacing == 0.005:
                assert np.abs(F - velocity).max() < 2e-3 * np.abs(velocity).max()
    for off in off_lw.values():
        assert off == [pytest.approx(0.53, abs=0.01), pytest.approx(1.20, abs=0.01)]
