"""The samplers behind `verify`: array draws that give the same points and
leave the generator in the same state as the scalar rejection loops they
replaced, which are kept here as the reference."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepotential import verify
from prepotential.loops import ab_phase_report, ab_phase_reports
from prepotential.matrices import validate_relations
from prepotential.potential import delta_S_along_path

# -- reference: the scalar loops, one point per Python iteration ----------


def ref_shell_points(rng, n, rmin=0.5, rmax=4.0, axis_guard=0.4):
    pts = []
    while len(pts) < n:
        v = rng.normal(size=3)
        nv = math.sqrt(v.dot(v))
        if nv < 1e-12:
            continue
        v /= nv
        if math.hypot(v[0], v[1]) < axis_guard:
            continue
        pts.append(rng.uniform(rmin, rmax) * v)
    return np.array(pts)


def ref_random_null(rng):
    k = rng.normal(size=3)
    n = math.sqrt(k.dot(k))
    while n < 1e-6 or math.hypot(k[0], k[1]) < 1e-3 * n:
        k = rng.normal(size=3)
        n = math.sqrt(k.dot(k))
    k *= rng.uniform(0.2, 5.0) / n
    return np.array([math.sqrt(k.dot(k)), k[0], k[1], k[2]])


def ref_random_nulls(rng, n):
    return np.array([ref_random_null(rng) for _ in range(n)])


def ref_triangle_points(rng, speed, n):
    pts = []
    v = np.array([0.0, 0.0, speed])
    while len(pts) < n:
        t = rng.uniform(-1.0, 1.0)
        x = rng.uniform(-3.0, 3.0, size=3)
        present = x - v * t
        r = math.sqrt(present.dot(present))
        if not (0.5 <= r <= 4.0) or math.hypot(present[0], present[1]) < 0.4:
            continue
        pts.append([t, *x])
    return np.array(pts)


def ref_claim1_draws(rng, vectors):
    D = np.array([(rng.normal(size=3), rng.normal(size=3), rng.uniform(-2.0, 2.0, size=3))
                  for _ in range(vectors)]).reshape(vectors, 3, 3)
    return D[:, 0] + 1j * D[:, 1], D[:, 2].ravel()


def assert_same_draws(draw, ref, seed):
    """draw and ref return equal arrays from generators seeded alike, and
    leave them in the same state."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = draw(a), ref(b)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert a.bit_generator.state == b.bit_generator.state


_seeds = st.integers(0, 2**64 - 1)
_sizes = st.integers(1, 300)
_speeds = st.sampled_from([0.1, 0.5, 0.9])


class TestSamplersMatchScalarLoops:
    @given(seed=_seeds, n=_sizes)
    @settings(max_examples=40, deadline=None)
    def test_random_nulls(self, seed, n):
        assert_same_draws(lambda r: verify._random_nulls(r, n),
                          lambda r: ref_random_nulls(r, n), seed)

    @given(seed=_seeds, n=_sizes)
    @settings(max_examples=40, deadline=None)
    def test_shell_points(self, seed, n):
        assert_same_draws(lambda r: verify._shell_points(r, n),
                          lambda r: ref_shell_points(r, n), seed)

    @given(seed=_seeds, n=_sizes, speed=_speeds)
    @settings(max_examples=60, deadline=None)
    def test_triangle_points(self, seed, n, speed):
        assert_same_draws(lambda r: verify._triangle_points(r, speed, n),
                          lambda r: ref_triangle_points(r, speed, n), seed)

    @given(seed=_seeds)
    @settings(max_examples=20, deadline=None)
    def test_claim1_covariance_draws(self, seed):
        seen = []
        rows = verify.claim1_covariance_rows

        def spy(F, axes, psis):
            seen.append((F, axes, psis))
            return rows(F, axes, psis)

        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "claim1_covariance_rows", spy)
            verify.check_claim1_covariance(a, 1.0, None)
        F, psis = ref_claim1_draws(b, 100)
        ((got_F, axes, got_psis),) = seen
        assert np.array_equal(got_F, np.repeat(F, 3, axis=0))
        assert np.array_equal(axes, np.tile((1, 2, 3), 100))
        assert np.array_equal(got_psis, psis)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("speed", [0.1, 0.5, 0.9])
    def test_triangle_grows_its_draw(self, monkeypatch, speed):
        # blocks of 8 rows: 50 points take several blocks, each drawn
        # after the last, and the replay still stops at the 50th point
        calls = []
        accepts = verify._triangle_accepts

        def counting(t, X, s):
            calls.append(len(t))
            return accepts(t, X, s)

        monkeypatch.setattr(verify, "_TRIANGLE_ROWS_PER_POINT", 0.0)
        monkeypatch.setattr(verify, "_triangle_accepts", counting)
        for seed in (1, 42, 7919):
            calls.clear()
            assert_same_draws(lambda r: verify._triangle_points(r, speed, 50),
                              lambda r: ref_triangle_points(r, speed, 50), seed)
            assert len(calls) > 5 and set(calls) == {8}


def _ref_triangle_accepts(t, x, speed):
    present = x - np.array([0.0, 0.0, speed]) * t
    r = math.sqrt(present.dot(present))
    return 0.5 <= r <= 4.0 and math.hypot(present[0], present[1]) >= 0.4


class TestTriangleGuards:
    def test_rows_on_and_next_to_each_guard(self):
        # present points exactly on r = 0.5, r = 4 and rho = 0.4, and one
        # ulp either side; in the last two, np.hypot and math.hypot round
        # to opposite sides of 0.4 (found by a search over random pairs)
        rows = []
        for speed, t in ((0.0, 0.0), (0.5, 0.25), (0.9, -0.75)):
            for p in ((0.5, 0.0, 0.0), (0.0, 4.0, 0.0), (0.4, 0.0, 1.0),
                      (0.0, 0.4, -2.0), (0.3, 0.4, 0.0),
                      (0.2671557622285405, 0.2977042134537023, 1.0),
                      (0.32951254335710867, 0.22676305644952305, -1.0)):
                i = 0 if p[0] else 1
                for bump in (-np.inf, p[i], np.inf):
                    x = list(p)
                    x[i] = np.nextafter(p[i], bump)
                    x[2] += speed * t
                    rows.append((speed, t, x))
        for speed, t, x in rows:
            got = verify._triangle_accepts(np.array([t]), np.array([x]), speed)
            assert got[0] == _ref_triangle_accepts(t, np.array(x), speed), (speed, t, x)


class _ScriptedNormals:
    """A generator whose first normal triples are given by hand, and which
    then draws from a real stream; it serves both the reference loops'
    calls and the samplers' calls."""

    def __init__(self, seed, triples):
        self._rng = np.random.default_rng(seed)
        self._triples = [np.array(k, dtype=float) for k in triples]

    def _next(self):
        return self._triples.pop(0) if self._triples else self._rng.standard_normal(3)

    def normal(self, size):
        assert size == 3
        return self._next()

    def standard_normal(self, out):
        out[...] = self._next()
        return out

    def uniform(self, lo, hi):
        return self._rng.uniform(lo, hi)

    def random(self):
        return self._rng.random()


class TestRedrawPredicates:
    # real draws almost never reach a redraw, so the triples are made by hand
    NULL_REDRAWS = [
        (1e-4, 2e-4, 0.9),        # 2.5e-4 rad off the x3-axis: too close
        (3e-7, -4e-7, 5e-8),      # |k| below 1e-6
        (0.0, 0.0, -1.3),         # on the axis
    ]
    SHELL_REDRAWS = [
        (2e-13, 0.0, -3e-13),     # |v| below 1e-12
        (0.1, -0.3, 0.95),        # 0.32 rad off the x3-axis, inside the guard
    ]
    KEPT = (0.6, -0.8, 0.25)

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_null_sampler_redraws(self, seed):
        triples = [*self.NULL_REDRAWS, self.KEPT, self.NULL_REDRAWS[0], self.KEPT]
        got = verify._random_nulls(_ScriptedNormals(seed, triples), 6)
        want = ref_random_nulls(_ScriptedNormals(seed, triples), 6)
        assert np.array_equal(got, want)
        # the first two points are the hand-made direction, rescaled
        k = np.array(self.KEPT) / np.linalg.norm(self.KEPT)
        for row in got[:2]:
            np.testing.assert_allclose(row[1:] / row[0], k, rtol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_shell_sampler_redraws(self, seed):
        triples = [*self.SHELL_REDRAWS, self.KEPT, self.SHELL_REDRAWS[1], self.KEPT]
        got = verify._shell_points(_ScriptedNormals(seed, triples), 6)
        want = ref_shell_points(_ScriptedNormals(seed, triples), 6)
        assert np.array_equal(got, want)
        k = np.array(self.KEPT) / np.linalg.norm(self.KEPT)
        for row in got[:2]:
            np.testing.assert_allclose(row / np.linalg.norm(row), k, rtol=1e-15)


class TestFamilyContract:
    def test_every_family_takes_rng_tol_scale_scenario(self):
        for name, family in verify._CHECK_FUNCTIONS.items():
            params = list(inspect.signature(family).parameters)
            assert params == ["rng", "tol_scale", "scenario"], name
        outcome = verify._CHECK_FUNCTIONS["matrix-relations"](
            np.random.default_rng(0), 1.0, None)
        assert len(outcome) == 4 and outcome[2] is True

    @pytest.mark.parametrize("fn", [validate_relations, ab_phase_report, ab_phase_reports,
                                    delta_S_along_path])
    def test_no_tolerance_or_depth_knob(self, fn):
        # each had one value in use; it is a constant of its module
        params = inspect.signature(fn).parameters
        assert not [p for p in params if "tol" in p or "depth" in p]
