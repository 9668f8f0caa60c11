"""Metric, boosts, and the retarded null-vector solver."""

import math
from decimal import Decimal, localcontext

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
from prepotential.errors import (
    BEFORE_RANGE,
    BEYOND_RANGE,
    ON_AXIS,
    ON_LINE,
    ROW_FAILURES,
    NotNullError,
)
from prepotential.potential import (
    NULL_TOL,
    SINGULAR_AXIS_FLOOR,
    _reduce_rows,
    _zeta_quotients,
)
from prepotential.spacetime import (
    _ON_LINE_FLOOR,
    _bisect,
    _mdot_rows,
    _retarded_table_rows,
    _segment_table,
    retarded_null_vectors,
    retarded_rows,
)


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

    @pytest.mark.parametrize("k", [0, 3, 6])
    @pytest.mark.parametrize("rule, message", [
        ("tau", "sample parameters must be strictly increasing"),
        ("x0", "sampled events must be strictly increasing in x0"),
        ("timelike", "consecutive samples {k}..{k1} are not timelike-separated"),
    ])
    def test_first_bad_pair_names_its_rule(self, k, rule, message):
        # 8 knots, pairs 0..6; pair k breaks `rule`, and for k < 6 the last
        # pair breaks every rule, which must not be the one reported
        taus = [float(t) for t in range(8)]
        knots = [[float(t), 0.1 * t, 0.0, 0.0] for t in range(8)]

        def spoil(j, rule):
            if rule == "tau":
                taus[j + 1] = taus[j]
            elif rule == "x0":
                knots[j + 1][0] = knots[j][0] - 0.5
            else:
                knots[j + 1][2] = 2.0

        if k < 6:
            for other in ("tau", "x0", "timelike"):
                spoil(6, other)
        spoil(k, rule)
        with pytest.raises(ValueError) as info:
            SampledLine(tuple(taus), tuple(V(*e) for e in knots))
        assert str(info.value) == message.format(k=k, k1=k + 1)


class TestWorldLineValidation:
    def test_uniform_velocity_must_be_normalized(self):
        with pytest.raises(ValueError):
            UniformLine(V(0, 0, 0, 0), V(1.0, 0.5, 0, 0))

    def test_segments_of_rest_and_uniform_lines(self):
        # one knot at parameter 0 and one unbounded segment of rate 1
        u = four_velocity_from_3velocity([0.3, -0.2, 0.1])
        for line, event, velocity in [
            (RestLine((0.5, -1.0, 2.0)), [0.0, 0.5, -1.0, 2.0], [1.0, 0.0, 0.0, 0.0]),
            (UniformLine(V(1, 2, 3, 4), u), [1.0, 2.0, 3.0, 4.0], u.as_array()),
        ]:
            taus, E, U, rate = line.segments
            assert_array_equal(taus, [0.0])
            assert_array_equal(E, [event])
            assert_array_equal(U, [velocity])
            assert_array_equal(rate, [1.0])

    def test_segments_of_a_sampled_line(self):
        # one segment per consecutive pair of knots; the last knot starts
        # none, so its U and rate are NaN
        line = SampledLine((0.0, 1.0, 3.0), (V(0, 0, 0, 0), V(1, 0.5, 0, 0), V(3, 0.5, 1, 0)))
        taus, E, U, rate = line.segments
        assert_array_equal(taus, [0.0, 1.0, 3.0])
        assert_array_equal(E, [[0, 0, 0, 0], [1, 0.5, 0, 0], [3, 0.5, 1, 0]])
        nan = [np.nan] * 4
        assert_allclose(U, [[1 / 0.75**0.5, 0.5 / 0.75**0.5, 0, 0], [2 / 3**0.5, 0, 1 / 3**0.5, 0],
                            nan], rtol=1e-15)
        assert_allclose(rate, [1 / 0.75**0.5, 2 / 3**0.5, np.nan], rtol=1e-15)

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


def _exact_retarded(line, x):
    """The sampled line's retarded vector at x from the exact values of
    the float knots and x, to 60 digits: per segment, the past root lam
    in [0, 1] of (D - lam W).(D - lam W) = 0 with D = x - knot_k and W
    the segment's step."""
    signs = (1, -1, -1, -1)

    def dot(a, b):
        return sum(s * p * q for s, p, q in zip(signs, a, b))

    with localcontext() as ctx:
        ctx.prec = 60
        xs = [Decimal(float(c)) for c in x]
        knots = [[Decimal(float(c)) for c in e.as_array()] for e in line.events]
        for e0, e1 in zip(knots[:-1], knots[1:]):
            D = [p - q for p, q in zip(xs, e0)]
            W = [p - q for p, q in zip(e1, e0)]
            dw, ww = dot(D, W), dot(W, W)
            lam = (dw - (dw * dw - ww * dot(D, D)).sqrt()) / ww
            if 0 <= lam <= 1:
                return np.array([float(d - lam * w) for d, w in zip(D, W)])
    raise ValueError("the past light cone misses the sampled range")


def _distance_to_polyline(line, x):
    """Euclidean distance in R^4 from x to the sampled line's polyline."""
    knots = np.array([e.as_array() for e in line.events])
    best = math.inf
    for e0, e1 in zip(knots[:-1], knots[1:]):
        d = e1 - e0
        lam = min(max(float((x - e0) @ d) / float(d @ d), 0.0), 1.0)
        best = min(best, float(np.linalg.norm(x - e0 - lam * d)))
    return best


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
        X = np.array(events, dtype=float)
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
        X = np.array(events, dtype=float)
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
        # the same rows fail, with the same codes
        for got, want in zip(rest, uniform):
            assert_array_equal(got, want)
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
        X = np.array(events, dtype=float).reshape(-1, 4)
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

    @pytest.mark.parametrize("kind", ["rest", "uniform", "sampled"])
    def test_events_on_the_line_share_one_code(self, kind):
        # one code for every line kind, with a message that names none
        line, on_line = _line(kind, (0.3, -0.2, 0.1), 0.2)
        fail = retarded_rows(line, np.array(on_line))[3]
        assert fail.tolist() == [ON_LINE] * len(on_line)
        message = "observer lies on the charge's world-line"
        assert ROW_FAILURES[ON_LINE] == (ObserverOnWorldLineError, message)
        for x in on_line:
            with pytest.raises(ObserverOnWorldLineError) as info:
                retarded_null_vector(line, FourVector.from_array(x))
            assert str(info.value) == message

    def test_near_line_row_is_exact(self):
        # 3e-8 from a segment moving at v = 0.5 and about 5 from its knot
        u = four_velocity_from_3velocity([0.5, 0.0, 0.0]).as_array()
        taus = (-10.0, -4.0, 2.0)
        line = SampledLine(taus, tuple(FourVector.from_array(t * u) for t in taus))
        X = np.array([[0.0, 0.0, 1.0, 0.5], 0.3 * u + [0.0, 0.0, 3e-8, 0.0],
                      [0.5, -1.0, 0.0, 2.0]])
        tau, A, U, fail = retarded_rows(line, X)
        assert fail.tolist() == [0, 0, 0]
        for i in range(3):
            assert np.abs(A[i] - _exact_retarded(line, X[i])).max() <= 1e-14
            assert_array_equal(A[i], retarded_rows(line, X[i][None])[1][0])
        assert abs(minkowski_dot(A[1], A[1])) <= 1e-12 * A[1][0] ** 2

    @given(
        kind=st.sampled_from(["rest", "uniform", "sampled"]),
        v3=_speeds,
        turn=st.floats(-0.4, 0.4),
        at=st.floats(-10.0, 10.0),
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
            lambda w: float(np.dot(w, w)) > 1e-4),
        log_distance=st.floats(-9.0, 0.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_near_the_line_are_null(self, kind, v3, turn, at, direction, log_distance):
        # x = e + d (u + n), with e on the line, u its 4-velocity there and
        # n a unit vector orthogonal to u: the rest-frame distance is d,
        # and the retarded vector is d (u + n); on a uniform line, e lies
        # up to about 10 from the reference event
        line, _ = _line(kind, v3, turn)
        if kind == "rest":
            e, u = np.array([at, *line.position]), np.array([1.0, 0.0, 0.0, 0.0])
        elif kind == "uniform":
            u = line.velocity_u.as_array()
            e = line.reference_event.as_array() + at * u
        else:
            e = _on_line(line, at)
            k = int(np.searchsorted(line.taus, at)) - 1
            u = line.segments[2][k]
        w = np.array([0.0, *direction])
        n = w - minkowski_dot(w, u) * u
        n /= math.sqrt(-minkowski_dot(n, n))
        x = e + 10.0**log_distance * (u + n)
        _, A, _, fail = retarded_rows(line, x[None])
        a = A[0]
        assert fail[0] == 0
        assert a[0] > 0
        assert abs(minkowski_dot(a, a)) <= 1e-12 * a[0] ** 2

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


def _row_retarded_rows(line, X):
    """retarded_rows computed on (N, 4) rows of one line, as before the
    solve moved to (4, C, N) component columns: the oracle the column form
    matches bit for bit. A line of several knots bisects over them."""
    X = np.asarray(X, dtype=float)
    taus, E, seg_u, seg_rate = line.segments
    k, failure = np.zeros(1, dtype=np.intp), np.zeros(len(X), dtype=np.int8)
    if len(E) > 1:
        k, failure = _bisect(E, X, np.zeros((1, len(X)), dtype=np.intp), np.array([[len(E) - 1]]))
        k, failure = k[0], failure[0]
    R, t, rate, U = E[k], taus[k], seg_rate[k], seg_u[k]
    U = np.broadcast_to(U, X.shape)
    D = X - R
    s = _mdot_rows(D, U)
    P = D - U * s[:, None]
    P -= U * _mdot_rows(P, U)[:, None]
    r2 = -_mdot_rows(P, P)
    failure[(failure == 0) & (r2 < _ON_LINE_FLOOR**2 * np.maximum(1.0, s * s))] = ON_LINE
    r = np.sqrt(np.maximum(r2, 0.0))
    A = P + U * r[:, None]
    tau = t + rate * (s - r)
    if failure.any():
        A[failure != 0] = np.nan
        tau[failure != 0] = np.nan
    return tau, A, U, failure


def _row_zeta_quotients(A):
    """_zeta_quotients with a.a summed along rows of 4 by _mdot_rows, as
    before its null check summed it column by column: the oracle the
    column form matches bit for bit."""
    A = np.asarray(A)
    sq = np.abs(A)
    scale = _reduce_rows(np.maximum, sq) ** 2
    if (scale == 0.0).any():
        raise NotNullError("zero vector has no invariant ratio")
    nn = np.abs(_mdot_rows(A, A))
    if (nn > NULL_TOL * scale).any():
        i = int(np.argmax(nn > NULL_TOL * scale))
        raise NotNullError(f"vector is not null: |a.a| = {nn[i]:.3e} at scale {scale[i]:.3e}")
    sq *= sq
    on_axis = sq[:, 1] + sq[:, 2] < SINGULAR_AXIS_FLOOR * (sq[:, 0] + sq[:, 3])
    den1 = A[:, 0] + A[:, 3]
    den2 = A[:, 1] + 1j * A[:, 2]
    first = np.abs(den1) >= np.abs(den2)
    num = np.where(first, A[:, 1] - 1j * A[:, 2], A[:, 0] - A[:, 3])
    den = np.where(first, den1, den2)
    failure = on_axis.astype(np.int8)
    if failure.any():
        num[on_axis] = den[on_axis] = np.nan
        failure *= ON_AXIS
    return num, den, (~first).astype(np.intp), failure


def _laid_out(X, layout):
    """X as a C-ordered array, an F-ordered array, or every second row of
    a twice as long array."""
    if layout == "C":
        return np.ascontiguousarray(X)
    if layout == "F":
        return np.asfortranarray(X)
    X2 = np.full((2 * len(X), X.shape[1]), 7.0, dtype=X.dtype)
    X2[::2] = X
    return X2[::2]


def _on_axis(line, at, d):
    """An event d past the line's point at `at` along (1, 0, 0, +-1): its
    retarded vector lies on the singular axis a1 = a2 = 0."""
    if isinstance(line, RestLine):
        e = np.array([at, *line.position])
    elif isinstance(line, UniformLine):
        e = line.reference_event.as_array() + at * line.velocity_u.as_array()
    else:
        e = _on_line(line, at)
    return e + np.array([abs(d), 0.0, 0.0, d])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotNullError as exc:
        return exc


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


class TestColumnKernels:
    """The retarded solve computes on (4, N) component columns, and the
    zeta quotient sums a.a column by column; both give every bit, NaN and
    failure code of their row forms, whatever the memory layout of the
    input."""

    @given(
        kind=st.sampled_from(["rest", "uniform", "sampled"]),
        v3=_speeds,
        turn=st.floats(-0.4, 0.4),
        events=st.lists(_events, min_size=0, max_size=10),
        on_line=st.integers(0, 3),
        axis=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-3.0, 3.0)), max_size=3),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_match_the_row_form(self, kind, v3, turn, events, on_line, axis, layout):
        line, on = _line(kind, v3, turn)
        rows = list(events) + on[:on_line] + [_on_axis(line, at, d) for at, d in axis]
        if kind == "sampled":
            rows += [np.array([-100.0, 0, 0, 0]), np.array([100.0, 0, 0, 0])]
        X = _laid_out(np.array(rows, dtype=float).reshape(-1, 4), layout)
        before = X.copy()
        got = retarded_rows(line, X)
        assert_array_equal(X, before)  # the input is not written
        want = _row_retarded_rows(line, X)
        _assert_same_bits(got, want)
        assert got[1].flags["C_CONTIGUOUS"]
        A = _laid_out(got[1], layout)
        _assert_same_bits(_zeta_quotients(A), _row_zeta_quotients(A))

    @given(
        angles=st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 4, st.floats(0.1, 5.0)),
                        min_size=1, max_size=12),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_complex_quotients_match_the_row_form(self, angles, layout):
        # s (1, sin t cos p, sin t sin p, cos t) is null for complex t and
        # p; only the null check reads a dot of complex rows
        t = np.array([complex(a, b) for a, b, _, _, _ in angles])
        p = np.array([complex(c, d) for _, _, c, d, _ in angles])
        s = np.array([s for *_, s in angles])
        A = s[:, None] * np.column_stack(
            [np.ones_like(t), np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
        A = _laid_out(A, layout)
        want = _outcome(_row_zeta_quotients, A)
        got = _outcome(_zeta_quotients, A)
        if isinstance(want, NotNullError):
            assert isinstance(got, NotNullError)
        else:
            _assert_same_bits(got, want)

    @pytest.mark.parametrize("row, message", [
        ([0.0, 0.0, 0.0, 0.0], "zero vector has no invariant ratio"),
        ([1.0, 0.5, 0.0, 0.0], "vector is not null: |a.a| = 7.500e-01 at scale 1.000e+00"),
    ])
    def test_rejected_rows_raise_as_the_row_form(self, row, message):
        A = np.array([[1.0, 0.6, 0.0, 0.8], row, [2.0, 0.0, 0.0, -2.0]])
        for layout in ("C", "F", "strided"):
            for form in (_zeta_quotients, _row_zeta_quotients):
                with pytest.raises(NotNullError) as info:
                    form(_laid_out(A, layout))
                assert str(info.value) == message


class TestSegmentTable:
    """The lines of a segment table are solved in one batch, with the bits
    the row form gives each line alone."""

    @given(
        kinds=st.lists(st.sampled_from(["rest", "uniform", "sampled"]), min_size=1, max_size=4),
        v3=_speeds,
        turn=st.floats(-0.4, 0.4),
        events=st.lists(_events, min_size=1, max_size=8),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_match_each_line_alone(self, kinds, v3, turn, events, layout):
        lines = [_line(kind, v3, turn)[0] for kind in kinds]
        on = [_line(kind, v3, turn)[1][0] for kind in kinds]  # on each line
        rows = list(events) + on + [np.array([-100.0, 0, 0, 0]), np.array([100.0, 0, 0, 0])]
        X = _laid_out(np.array(rows, dtype=float), layout)
        before = X.copy()
        tau, A, U, failure = _retarded_table_rows(_segment_table(lines), X)
        assert_array_equal(X, before)
        n = len(X)
        assert U.shape == (len(lines), n, 4)
        for c, line in enumerate(lines):
            want = _row_retarded_rows(line, X)
            got = tuple(a[c * n:(c + 1) * n] for a in (tau, A, failure))
            got = got[:2] + (U[c],) + got[2:]
            _assert_same_bits(got, tuple(np.ascontiguousarray(a) for a in want))

    def test_one_knot_line_keeps_one_frame(self):
        # a rest or uniform line's frame is one row viewed N times, so a
        # batch allocates no (N, 4) array of frames
        u = four_velocity_from_3velocity([0.3, -0.2, 0.1])
        X = np.full((5, 4), 7.0)
        for line in (RestLine((0.5, -1.0, 2.0)), UniformLine(V(1, 2, 3, 4), u)):
            table = _segment_table([line])
            for U in (retarded_rows(line, X)[2], _retarded_table_rows(table, X)[2][0]):
                assert U.shape == (5, 4) and U.strides[0] == 0
