"""Metric, boosts, and the retarded null-vector solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from prepotential import (
    FourVector,
    NoRetardedIntersectionError,
    ObserverOnWorldLineError,
    PrepotentialError,
    RestLine,
    SampledLine,
    UniformLine,
    four_velocity_from_3velocity,
    fundamental_boost,
    minkowski_dot,
    retarded_null_vector,
)
from prepotential.errors import BEFORE_RANGE, BEYOND_RANGE, NOT_NULL, ON_LINE, ROW_FAILURES
from prepotential.spacetime import retarded_null_vectors, retarded_rows


def V(*c):
    return FourVector(*map(float, c))


class TestMinkowskiDot:
    def test_timelike_unit(self):
        assert minkowski_dot(V(1, 0, 0, 0), V(1, 0, 0, 0)) == 1.0

    def test_null_vector(self):
        assert minkowski_dot(V(1, 1, 0, 0), V(1, 1, 0, 0)) == 0.0

    def test_mixed_pair(self):
        # 2*1 - 1*2 - 1*0 - 1*0
        assert minkowski_dot(V(2, 1, 1, 1), V(1, 2, 0, 0)) == 0.0

    def test_accepts_arrays_and_complex(self):
        a = np.array([1.0, 2.0, 0.0, 1.0])
        assert minkowski_dot(a, a) == 1.0 - 4.0 - 1.0
        z = np.array([1j, 0, 0, 1j])
        assert minkowski_dot(z, z) == 0j


class TestFundamentalBoost:
    def test_zero_rapidity_is_identity(self):
        assert_allclose(fundamental_boost(3, 0.0), np.eye(4))

    def test_rest_vector_gains_rapidity(self):
        psi = 0.83
        out = fundamental_boost(1, psi) @ np.array([1.0, 0, 0, 0])
        assert_allclose(out, [np.cosh(psi), np.sinh(psi), 0, 0], atol=1e-15)

    def test_determinant_one(self):
        for j in (1, 2, 3):
            assert_allclose(np.linalg.det(fundamental_boost(j, 1.7)), 1.0, rtol=1e-12)

    def test_preserves_dot_on_random_pairs(self, rng):
        for _ in range(100):
            j = int(rng.integers(1, 4))
            psi = float(rng.uniform(-2.5, 2.5))
            m = fundamental_boost(j, psi)
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            before = minkowski_dot(a, b)
            after = minkowski_dot(m @ a, m @ b)
            assert abs(after - before) < 1e-12 * max(1.0, abs(before))

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            fundamental_boost(0, 1.0)


class TestRetardedRest:
    def test_rest_charge_null_vector_is_radial(self):
        sol = retarded_null_vector(RestLine((0, 0, 0)), V(7.0, 1.0, -2.0, 2.0))
        r = np.sqrt(1 + 4 + 4)
        assert_allclose(sol.a.as_array(), [r, 1, -2, 2], rtol=1e-15)
        assert_allclose(sol.tau_retarded, 7.0 - r, rtol=1e-15)

    def test_three_four_five(self):
        sol = retarded_null_vector(RestLine((0, 0, 0)), V(5, 3, 0, 4))
        assert_allclose(sol.a.as_array(), [5, 3, 0, 4], rtol=1e-15)

    def test_shifted_rest_position(self):
        sol = retarded_null_vector(RestLine((1, 1, 1)), V(0, 2, 1, 1))
        assert_allclose(sol.a.as_array(), [1, 1, 0, 0], atol=1e-15)

    def test_observer_on_line(self):
        with pytest.raises(ObserverOnWorldLineError):
            retarded_null_vector(RestLine((1, 0, 0)), V(3, 1, 0, 0))


def bisect_retarded(event_at, x, lo, hi, iters=200):
    """Independent bracketing bisection on g(tau) = (x0 - e0) - |xvec - evec|."""

    def g(tau):
        e = event_at(tau)
        return (x[0] - e[0]) - np.linalg.norm(x[1:] - e[1:])

    glo, ghi = g(lo), g(hi)
    assert glo > 0 > ghi, "bracket must straddle the root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRetardedUniform:
    def setup_method(self):
        self.u = four_velocity_from_3velocity([0.3, -0.1, 0.55])
        self.line = UniformLine(V(0, 0, 0, 0), self.u)

    def test_matches_bisection_oracle(self, rng):
        uarr = self.u.as_array()
        for _ in range(25):
            x = rng.uniform(-3, 3, size=4)
            x[0] = rng.uniform(-1, 1)
            obs = FourVector.from_array(x)
            try:
                sol = retarded_null_vector(self.line, obs)
            except ObserverOnWorldLineError:
                continue
            tau = bisect_retarded(lambda t: t * uarr, x, sol.tau_retarded - 5.0,
                                  sol.tau_retarded + 5.0)
            assert abs(tau - sol.tau_retarded) < 1e-10 * max(1.0, abs(tau))
            a = x - tau * uarr
            assert_allclose(sol.a.as_array(), a, rtol=0, atol=1e-9)

    def test_null_and_future_pointing(self, rng):
        for _ in range(50):
            x = rng.uniform(-4, 4, size=4)
            obs = FourVector.from_array(x)
            try:
                sol = retarded_null_vector(self.line, obs)
            except ObserverOnWorldLineError:
                continue
            a = sol.a.as_array()
            assert a[0] > 0
            assert abs(minkowski_dot(a, a)) <= 1e-10 * a[0] ** 2

    def test_reduces_to_rest(self):
        line = UniformLine(V(0, 0, 0, 0), V(1, 0, 0, 0))
        sol = retarded_null_vector(line, V(2.0, 0.6, -0.8, 0.0))
        assert_allclose(sol.a.as_array(), [1.0, 0.6, -0.8, 0.0], rtol=1e-14)


class TestRetardedSampled:
    def make_sampled(self, u, n=81, span=10.0):
        taus = np.linspace(-span, span, n)
        uarr = u.as_array()
        events = tuple(FourVector.from_array(t * uarr) for t in taus)
        return SampledLine(tuple(taus), events)

    def test_sampled_agrees_with_uniform_closed_form(self, rng):
        u = four_velocity_from_3velocity([0.2, 0.4, -0.3])
        uniform = UniformLine(V(0, 0, 0, 0), u)
        sampled = self.make_sampled(u)
        for _ in range(30):
            x = rng.uniform(-2, 2, size=4)
            obs = FourVector.from_array(x)
            ref = retarded_null_vector(uniform, obs)
            got = retarded_null_vector(sampled, obs)
            scale = max(1.0, float(np.abs(ref.a.as_array()).max()))
            assert np.abs(got.a.as_array() - ref.a.as_array()).max() < 1e-10 * scale
            assert abs(got.tau_retarded - ref.tau_retarded) < 1e-9

    def test_sampled_rest_table_agrees_with_rest_line(self):
        taus = tuple(np.linspace(-5.0, 15.0, 41))
        events = tuple(V(t, 1.0, 0.0, 0.5) for t in taus)
        sampled = SampledLine(taus, events)
        obs = V(4.0, 2.5, -1.0, 0.5)
        got = retarded_null_vector(sampled, obs)
        ref = retarded_null_vector(RestLine((1.0, 0.0, 0.5)), obs)
        assert np.abs(got.a.as_array() - ref.a.as_array()).max() < 1e-10

    def test_before_range_raises(self):
        u = four_velocity_from_3velocity([0, 0, 0.5])
        sampled = self.make_sampled(u, span=1.0)
        with pytest.raises(NoRetardedIntersectionError):
            retarded_null_vector(sampled, V(-5.0, 1.0, 0.0, 0.0))

    def test_beyond_range_raises(self):
        u = four_velocity_from_3velocity([0, 0, 0.5])
        sampled = self.make_sampled(u, span=1.0)
        with pytest.raises(NoRetardedIntersectionError):
            retarded_null_vector(sampled, V(50.0, 1.0, 0.0, 0.0))

    def test_validation_rejects_bad_tables(self):
        e0, e1 = V(0, 0, 0, 0), V(1, 0, 0, 0)
        with pytest.raises(ValueError):
            SampledLine((0.0, 0.0), (e0, e1))  # non-increasing tau
        with pytest.raises(ValueError):
            SampledLine((0.0, 1.0), (e0, V(0.5, 2.0, 0, 0)))  # spacelike step
        with pytest.raises(ValueError):
            SampledLine((0.0, 1.0), (e1, e0))  # decreasing x0


class TestWorldLineValidation:
    def test_uniform_velocity_must_be_normalized(self):
        with pytest.raises(ValueError):
            UniformLine(V(0, 0, 0, 0), V(1.0, 0.5, 0, 0))

    def test_four_velocity_from_3velocity(self):
        u = four_velocity_from_3velocity([0.3, 0.2, -0.4])
        assert abs(minkowski_dot(u, u) - 1.0) < 1e-12

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            four_velocity_from_3velocity([0.9, 0.9, 0.9])

    def test_four_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            FourVector(float("nan"), 0, 0, 0)


_speeds = st.tuples(*[st.floats(-0.9, 0.9)] * 3).filter(
    lambda v: float(np.dot(v, v)) <= 0.81)
_events = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


def _line(kind, v3, turn):
    """A world-line of the kind and the events that lie on it exactly: the
    rest position, the uniform line's reference event, the sampled line's
    knots. The 24-knot sampled line turns its velocity by `turn` about x3
    at every knot and passes through the origin at its middle knot."""
    if kind == "rest":
        pos = (0.3, -0.2, 0.1)
        return RestLine(pos), [np.array([t, *pos]) for t in (-1.0, 0.5)]
    u = four_velocity_from_3velocity(v3).as_array()
    if kind == "uniform":
        ref = np.array([0.2, -0.1, 0.4, 0.3])
        line = UniformLine(FourVector.from_array(ref), FourVector.from_array(u))
        return line, [ref]
    steps = []
    for k in range(23):
        c, s_ = math.cos(turn * k), math.sin(turn * k)
        steps.append([u[0], c * u[1] - s_ * u[2], s_ * u[1] + c * u[2], u[3]])
    knots = np.vstack([np.zeros(4), np.cumsum(steps, axis=0)])
    knots -= knots[12]
    taus = tuple(float(t) for t in range(-12, 12))
    line = SampledLine(taus, tuple(FourVector.from_array(e) for e in knots))
    return line, list(knots[1:-1])


def _scalar(line, x):
    """The scalar solution at x, or the exception it raises."""
    try:
        return retarded_null_vector(line, FourVector.from_array(x))
    except PrepotentialError as exc:
        return exc


def _g(line, x, k):
    """(x0 - e0) - |x - e| at knot k: >= 0 where the knot is on or inside
    the past light cone of x."""
    e = line.events[k].as_array()
    return (x[0] - e[0]) - float(np.linalg.norm(x[1:] - e[1:]))


def _on_line(line, tau):
    """The sampled line's event at parameter tau, interpolated here."""
    knots = np.array([e.as_array() for e in line.events])
    return np.array([np.interp(tau, line.taus, knots[:, m]) for m in range(4)])


def _distance_to_polyline(line, x):
    """Euclidean distance in R^4 from x to the sampled line's polyline."""
    knots = np.array([e.as_array() for e in line.events])
    best = math.inf
    for e0, e1 in zip(knots[:-1], knots[1:]):
        d = e1 - e0
        lam = min(max(float((x - e0) @ d) / float(d @ d), 0.0), 1.0)
        best = min(best, float(np.linalg.norm(x - e0 - lam * d)))
    return best


def _solves_alone(line, x):
    """False for an event so near the line (~1e-6) that the solver's null
    check flags it (NOT_NULL)."""
    return retarded_rows(line, x[None])[3][0] != NOT_NULL


class TestRetardedBatch:
    """The one retarded solver against oracles that do not use it."""

    @given(
        v3=_speeds,
        steps=st.lists(st.floats(0.25, 2.0), min_size=1, max_size=20),
        start=st.floats(-12.0, -2.0),
        events=st.lists(_events, min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_sampled_on_one_uniform_line_matches_it(self, v3, steps, start, events):
        # knots at proper times tau_k on the line through the origin with
        # 4-velocity u: the sampled line is that UniformLine, tau included
        u = four_velocity_from_3velocity(v3)
        taus = start + np.concatenate([[0.0], np.cumsum(steps)])
        knots = tuple(FourVector.from_array(t * u.as_array()) for t in taus)
        sampled = SampledLine(tuple(taus), knots)
        uniform = UniformLine(V(0, 0, 0, 0), u)
        # rest-frame distance from the line at least 1e-3, computed here:
        # nearer, a keeps too few digits for the solver's null check
        X = np.array([x for x in events
                      if minkowski_dot(x, u) ** 2 - minkowski_dot(x, x) > 1e-6])
        if not len(X):
            return
        tau_s, A_s, U_s, fail = retarded_rows(sampled, X)
        tau_u, A_u, U_u, _ = retarded_rows(uniform, X)
        for i in range(len(X)):
            if tau_u[i] < taus[0] - 1e-9:
                assert fail[i] == BEFORE_RANGE
            elif tau_u[i] > taus[-1] + 1e-9:
                assert fail[i] == BEYOND_RANGE
            elif taus[0] + 1e-9 < tau_u[i] < taus[-1] - 1e-9:
                assert fail[i] == 0
                scale = max(1.0, float(np.abs(A_u[i]).max()), float(np.abs(X[i]).max()))
                assert np.abs(A_s[i] - A_u[i]).max() <= 1e-13 * scale
                assert abs(tau_s[i] - tau_u[i]) <= 1e-13 * max(1.0, abs(tau_u[i]))
                assert np.abs(U_s[i] - U_u[i]).max() <= 1e-13 * u.x0

    @given(
        v3=_speeds,
        turn=st.floats(-0.4, 0.4),
        events=st.lists(_events, min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_generic_sampled_rows_are_retarded(self, v3, turn, events):
        # a null, future-pointing a = x - line(tau), with tau in the
        # segment where g changes sign; rows missing the range flagged
        line, _ = _line("sampled", v3, turn)
        # closer than ~1e-6 to the line, a = x - line(tau) keeps too few
        # digits to pass the solver's null check, which flags the row
        X = np.array([e for e in events
                      if not 0 < _distance_to_polyline(line, np.array(e)) < 1e-5])
        if not len(X):
            return
        tau, A, U, fail = retarded_rows(line, X)
        last = len(line.taus) - 1
        for i, x in enumerate(X):
            g = [_g(line, x, k) for k in range(last + 1)]
            if g[0] < 0:
                assert fail[i] == BEFORE_RANGE
                assert np.isnan(A[i]).all() and np.isnan(tau[i])
                continue
            if g[last] > 0:
                assert fail[i] == BEYOND_RANGE
                continue
            if fail[i] == ON_LINE:
                assert _distance_to_polyline(line, x) < 1e-9
                continue
            assert fail[i] == 0
            a = A[i]
            assert a[0] > 0
            # rounding of order eps * |x - knot| on each component of a
            scale = max(1.0, float(np.abs(x).max()))
            assert abs(minkowski_dot(a, a)) <= 1e-13 * scale * a[0]
            assert np.abs(a - (x - _on_line(line, tau[i]))).max() <= 1e-13 * scale
            k = max(k for k in range(last) if g[k] >= 0)
            t0, t1 = line.taus[k], line.taus[k + 1]
            assert t0 - 1e-12 <= tau[i] <= t1 + 1e-12
            assert minkowski_dot(U[i], U[i]) == pytest.approx(1.0, abs=1e-14)

    @given(
        pos=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        events=st.lists(_events, min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_rest_line_is_uniform_motion_at_rest(self, pos, events):
        X = np.array(events, dtype=float)
        rest = retarded_rows(RestLine(pos), X)
        uniform = retarded_rows(UniformLine(V(0, *pos), V(1, 0, 0, 0)), X)
        for got, want in zip(rest[:3], uniform[:3]):
            assert_array_equal(got, want)
        # the same rows fail, with the same class (the messages name the kind)
        assert [ROW_FAILURES[f] and ROW_FAILURES[f][0] for f in rest[3]] == \
            [ROW_FAILURES[f] and ROW_FAILURES[f][0] for f in uniform[3]]
        # and the closed form of a rest charge
        tau, A, _, fail = rest
        ok = fail == 0
        rel = X[ok, 1:] - np.array(pos)
        r = np.linalg.norm(rel, axis=1)
        assert_allclose(A[ok], np.column_stack([r, rel]), rtol=1e-15, atol=0)
        assert_allclose(tau[ok], X[ok, 0] - r, rtol=1e-15, atol=1e-15)

    @given(
        kind=st.sampled_from(["rest", "uniform", "sampled"]),
        v3=_speeds,
        turn=st.floats(-0.4, 0.4),
        events=st.lists(_events, min_size=0, max_size=8),
        bad=st.integers(0, 100),
        where=st.integers(0, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_failing_row_is_flagged_alone(self, kind, v3, turn, events, bad, where):
        # a failing row is data: it does not disturb the other rows, which
        # come out as they do when solved one at a time
        line, on_line = _line(kind, v3, turn)
        offenders = on_line + ([np.array([-100.0, 0, 0, 0]), np.array([100.0, 0, 0, 0])]
                               if kind == "sampled" else [])
        X = np.array([x for x in np.array(events, dtype=float).reshape(-1, 4)
                      if _solves_alone(line, x)]).reshape(-1, 4)
        i_bad = where % (len(X) + 1)
        X = np.insert(X, i_bad, offenders[bad % len(offenders)], axis=0)
        tau, A, U, fail = retarded_rows(line, X)
        assert fail[i_bad] != 0
        assert np.isnan(A[i_bad]).all()
        for i, x in enumerate(X):
            one = retarded_rows(line, x[None])
            assert fail[i] == one[3][0]
            if not fail[i]:
                assert_array_equal(A[i], one[1][0])
                assert tau[i] == one[0][0]

    def test_null_check_failure_is_flagged_alone(self):
        # 3e-8 from a segment moving at v = 0.5, a = x - line(tau) carries
        # rounding of order eps * |x - knot| against a0 ~ 3e-8
        u = four_velocity_from_3velocity([0.5, 0.0, 0.0]).as_array()
        taus = (-10.0, -4.0, 2.0)
        line = SampledLine(taus, tuple(FourVector.from_array(t * u) for t in taus))
        X = np.array([[0.0, 0.0, 1.0, 0.5], 0.3 * u + [0.0, 0.0, 3e-8, 0.0],
                      [0.5, -1.0, 0.0, 2.0]])
        tau, A, U, fail = retarded_rows(line, X)
        assert fail.tolist() == [0, NOT_NULL, 0]
        assert np.isnan(A[1]).all() and np.isnan(tau[1])
        for i in (0, 2):
            assert_array_equal(A[i], retarded_rows(line, X[i][None])[1][0])
        with pytest.raises(PrepotentialError,
                           match="retarded solver produced an invalid null vector"):
            retarded_null_vectors(line, X)

    @given(
        kind=st.sampled_from(["rest", "uniform", "sampled"]),
        v3=_speeds,
        turn=st.floats(-0.4, 0.4),
        events=st.lists(_events, min_size=0, max_size=8),
        bad=st.integers(0, 100),
        where=st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_offending_row_raises_scalar_class(self, kind, v3, turn, events, bad, where):
        # an event on the line, or for a sampled line one whose past cone
        # misses the sampled range, among events retarded_null_vector accepts
        line, on_line = _line(kind, v3, turn)
        offenders = on_line + ([np.array([-100.0, 0, 0, 0]), np.array([100.0, 0, 0, 0])]
                               if kind == "sampled" else [])
        x_bad = offenders[bad % len(offenders)]
        expected = _scalar(line, x_bad)
        assert isinstance(expected, PrepotentialError)
        good = [x for x in np.array(events, dtype=float).reshape(-1, 4)
                if not isinstance(_scalar(line, x), PrepotentialError)]
        good.insert(where % (len(good) + 1), x_bad)
        with pytest.raises(type(expected)) as info:
            retarded_null_vectors(line, np.array(good))
        assert type(info.value) is type(expected)
