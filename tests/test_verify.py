"""The samplers behind `verify`, which draw blocks of candidate rows and keep
those that pass each family's guards, and the seeded families over many
seeds."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prepotential import verify
from prepotential.loops import ab_phase_report, ab_phase_reports
from prepotential.matrices import RelationCheck, RelationReport, validate_relations
from prepotential.potential import delta_S_along_path

# rows are compared with the guards up to a few ulp of rescaling
_SLACK = 1e-15


def assert_shell_points(P, n):
    assert P.shape == (n, 3)
    r = np.linalg.norm(P, axis=1)
    assert (r >= 0.5 * (1 - _SLACK)).all() and (r <= 4.0 * (1 + _SLACK)).all()
    assert (np.hypot(P[:, 0], P[:, 1]) >= 0.4 * r * (1 - _SLACK)).all()


def assert_random_nulls(A, n):
    assert A.shape == (n, 4)
    k = np.linalg.norm(A[:, 1:], axis=1)
    assert (np.abs(A[:, 0] ** 2 - k**2) <= 4 * np.finfo(float).eps * A[:, 0] ** 2).all()
    assert (k >= 0.2 * (1 - _SLACK)).all() and (k <= 5.0 * (1 + _SLACK)).all()
    assert (np.hypot(A[:, 1], A[:, 2]) >= 1e-3 * k * (1 - _SLACK)).all()


def assert_triangle_points(E, speed, n):
    assert E.shape == (n, 4)
    assert ((-1.0 <= E[:, 0]) & (E[:, 0] < 1.0)).all()
    assert ((-3.0 <= E[:, 1:]) & (E[:, 1:] < 3.0)).all()
    present = E[:, 1:] - np.outer(E[:, 0], [0.0, 0.0, speed])
    r = np.linalg.norm(present, axis=1)
    assert (r >= 0.5 * (1 - _SLACK)).all() and (r <= 4.0 * (1 + _SLACK)).all()
    assert (np.hypot(present[:, 0], present[:, 1]) >= 0.4 * (1 - _SLACK)).all()


class _Scripted:
    """A generator whose first block of normals, and of uniforms, starts
    with rows given by hand; the rest of each block, and every later
    block, comes from a real stream."""

    def __init__(self, seed, normals=(), uniforms=()):
        self._rng = np.random.default_rng(seed)
        self._first = {"normal": np.array(normals, dtype=float).reshape(-1, 3),
                       "uniform": np.array(uniforms, dtype=float).reshape(-1, 4)}
        self.blocks = {"normal": 0, "uniform": 0}

    def _block(self, kind, size, draw):
        self.blocks[kind] += 1
        block = draw(size)
        if self.blocks[kind] == 1 and (m := min(len(self._first[kind]), len(block))):
            block[:m] = self._first[kind][:m]
        return block

    def standard_normal(self, size):
        return self._block("normal", size, self._rng.standard_normal)

    def uniform(self, low, high, size):
        return self._block("uniform", size, lambda s: self._rng.uniform(low, high, s))


_seeds = st.integers(0, 2**64 - 1)
_sizes = st.integers(1, 300)
_speeds = st.sampled_from([0.1, 0.5, 0.9])

# normal rows that both direction samplers reject: |v| below 1e-12, on the
# x3-axis, or 2.5e-4 rad off it
_NORMALS_REJECTED = np.resize([(0.0, 0.0, 0.0), (2e-13, 0.0, -3e-13), (0.0, 0.0, -1.3),
                               (1e-4, 2e-4, 0.9)], (300, 3))
# events inside the shell, outside it, and on or near the axis, all at t = 0
_EVENTS_REJECTED = np.resize([(0.0, 0.0, 0.0, 0.0), (0.0, 0.2, -0.1, 0.3),
                              (0.0, 2.9, 2.9, 2.9), (0.0, 0.0, 0.0, 2.0),
                              (0.0, 0.1, 0.1, -2.0)], (300, 4))


class TestSamplers:
    @given(seed=_seeds, n=_sizes)
    @settings(max_examples=40, deadline=None)
    def test_random_nulls(self, seed, n):
        A = verify._random_nulls(np.random.default_rng(seed), n)
        assert_random_nulls(A, n)
        assert np.array_equal(A, verify._random_nulls(np.random.default_rng(seed), n))

    @given(seed=_seeds, n=_sizes)
    @settings(max_examples=40, deadline=None)
    def test_shell_points(self, seed, n):
        P = verify._shell_points(np.random.default_rng(seed), n)
        assert_shell_points(P, n)
        assert np.array_equal(P, verify._shell_points(np.random.default_rng(seed), n))

    @given(seed=_seeds, n=_sizes, speed=_speeds)
    @settings(max_examples=60, deadline=None)
    def test_triangle_points(self, seed, n, speed):
        E = verify._triangle_points(np.random.default_rng(seed), speed, n)
        assert_triangle_points(E, speed, n)
        assert np.array_equal(E, verify._triangle_points(np.random.default_rng(seed), speed, n))

    @given(seed=_seeds)
    @settings(max_examples=20, deadline=None)
    def test_claim1_covariance_draws(self, seed):
        seen = []
        rows = verify.claim1_covariance_rows

        def spy(F, axes, psis):
            seen.append((F, axes, psis))
            return rows(F, axes, psis)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "claim1_covariance_rows", spy)
            for _ in range(2):
                verify.check_claim1_covariance(np.random.default_rng(seed), None)
        (F, axes, psis), again = seen
        assert F.shape == (300, 3) and np.array_equal(F, np.repeat(F[::3], 3, axis=0))
        assert np.array_equal(axes, np.tile((1, 2, 3), 100))
        assert psis.shape == (300,) and ((-2.0 <= psis) & (psis < 2.0)).all()
        assert all(np.array_equal(a, b) for a, b in zip((F, axes, psis), again))

    @given(seed=_seeds, n=_sizes)
    @settings(max_examples=20, deadline=None)
    def test_directions_grow_their_draw(self, seed, n):
        # every row of the first block fails a guard, so all n rows come
        # from the blocks drawn after it
        rng = _Scripted(seed, normals=_NORMALS_REJECTED)
        assert_random_nulls(verify._random_nulls(rng, n), n)
        assert rng.blocks["normal"] >= 2
        rng = _Scripted(seed, normals=_NORMALS_REJECTED)
        assert_shell_points(verify._shell_points(rng, n), n)
        assert rng.blocks["normal"] >= 2

    @pytest.mark.parametrize("speed", [0.1, 0.5, 0.9])
    @given(seed=_seeds, n=_sizes)
    @settings(max_examples=10, deadline=None)
    def test_triangle_grows_its_draw(self, speed, seed, n):
        rng = _Scripted(seed, uniforms=_EVENTS_REJECTED)
        assert_triangle_points(verify._triangle_points(rng, speed, n), speed, n)
        assert rng.blocks["uniform"] >= 2


class TestTriangleGuards:
    def test_rows_on_and_next_to_each_guard(self):
        # present points exactly on r = 0.5, r = 4 and rho = 0.4 are kept;
        # one ulp outside the shell, or nearer the axis, they are not
        for speed, t in ((0.0, 0.0), (0.5, 0.25), (0.9, -0.75)):
            for p, i, inward in (((0.5, 0.0, 0.0), 0, np.inf), ((0.0, 4.0, 0.0), 1, -np.inf),
                                 ((0.4, 0.0, 1.0), 0, np.inf), ((0.0, 0.4, -2.0), 1, np.inf)):
                for bump, kept in ((-inward, False), (p[i], True), (inward, True)):
                    x = list(p)
                    x[i] = np.nextafter(p[i], bump)
                    x[2] += speed * t
                    got = verify._triangle_accepts(np.array([[t, *x]]), speed)
                    assert got.tolist() == [kept], (speed, t, x)


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
        got = verify._random_nulls(_Scripted(seed, normals=triples), 6)
        assert_random_nulls(got, 6)
        # the first two points are the hand-made direction, rescaled
        k = np.array(self.KEPT) / np.linalg.norm(self.KEPT)
        for row in got[:2]:
            np.testing.assert_allclose(row[1:] / row[0], k, rtol=1e-15)
        for v in self.NULL_REDRAWS:
            assert not np.isclose(got[:, 1:] / got[:, :1], v / np.linalg.norm(v)).all(axis=1).any()

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_shell_sampler_redraws(self, seed):
        triples = [*self.SHELL_REDRAWS, self.KEPT, self.SHELL_REDRAWS[1], self.KEPT]
        got = verify._shell_points(_Scripted(seed, normals=triples), 6)
        assert_shell_points(got, 6)
        k = np.array(self.KEPT) / np.linalg.norm(self.KEPT)
        for row in got[:2]:
            np.testing.assert_allclose(row / np.linalg.norm(row), k, rtol=1e-15)
        unit = got / np.linalg.norm(got, axis=1)[:, None]
        for v in self.SHELL_REDRAWS:
            assert not np.isclose(unit, v / np.linalg.norm(v)).all(axis=1).any()


# the families whose points are drawn from the seed
SEEDED = ("zeta-invariance", "rest-charge-field", "uniform-motion-triangle",
          "wave-residual", "claim1-covariance")


def test_seeded_families_keep_a_margin_over_100_seeds():
    # over seeds 0-1499 the worst deviation / tolerance was 0.48, in
    # rest-charge-field; each family must pass well inside its tolerance
    worst = dict.fromkeys(SEEDED, 0.0)
    for seed in range(100):
        for r in verify.run_checks(SEEDED, seed=seed).results:
            assert r.passed and r.max_deviation < r.tolerance, (seed, r)
            worst[r.name] = max(worst[r.name], r.max_deviation / r.tolerance)
    assert max(worst.values()) < 0.9, worst


class TestFamilyContract:
    def test_every_family_takes_rng_scenario(self):
        for name, family in verify._CHECK_FUNCTIONS.items():
            params = list(inspect.signature(family).parameters)
            assert params == ["rng", "scenario"], name
        outcome = verify._CHECK_FUNCTIONS["matrix-relations"](np.random.default_rng(0), None)
        assert len(outcome) == 4 and outcome[2] is True

    @pytest.mark.parametrize("fn", [validate_relations, ab_phase_report, ab_phase_reports,
                                    delta_S_along_path, verify.run_checks,
                                    *verify._CHECK_FUNCTIONS.values()])
    def test_no_tolerance_or_depth_knob(self, fn):
        # each had one value in use; it is a constant of its module, and
        # each verify family checks the tolerance pinned in its own code
        params = inspect.signature(fn).parameters
        assert not [p for p in params if "tol" in p or "depth" in p]


class TestReportedSubcheck:
    """A row reports the sub-check nearest its tolerance, so that its
    verdict is its deviation < its tolerance."""

    @pytest.mark.parametrize("subchecks, index", [
        ([(5e-13, 1e-12), (8e-15, 1e-14)], 1),
        ([(3e-9, 1e-6), (3e-9, 1e-8)], 1),
        ([(2e-9, 1e-8), (1e-9, 1e-8)], 0),
        ([(1e-9, 1e-8), (1e-9, 1e-8)], 0),
        ([(1.0, 1e-8), (np.nan, 1e-6), (np.nan, 1e-8)], 1),
        ([(np.inf, 1e-4), (1e-3, 1e-10)], 0),
    ])
    def test_nearest(self, subchecks, index):
        assert verify._nearest(subchecks) == index

    def test_matrix_relations(self, monkeypatch):
        # the larger deviation is the farther from its tolerance
        monkeypatch.setattr(verify, "validate_relations", lambda: RelationReport(
            (RelationCheck("wide", 5e-13, 1e-12), RelationCheck("tight", 8e-15, 1e-14))))
        (r,) = verify.run_checks(["matrix-relations"]).results
        assert (r.max_deviation, r.tolerance, r.passed) == (8e-15, 1e-14, True)
        assert r.detail == "2 relation families; worst: tight"
        monkeypatch.setattr(verify, "validate_relations", lambda: RelationReport(
            (RelationCheck("wide", 5e-13, 1e-12), RelationCheck("tight", 2e-14, 1e-14))))
        (r,) = verify.run_checks(["matrix-relations"]).results
        assert (r.max_deviation, r.tolerance, r.passed) == (2e-14, 1e-14, False)

    def test_uniform_motion_triangle(self, monkeypatch):
        # a direct field off by 1e-9 relative fails the exact sub-check,
        # which the stencil sub-checks, at about 1e-7 of 1e-4, pass
        fields = verify._velocity_fields
        monkeypatch.setattr(verify, "_velocity_fields",
                            lambda *args: fields(*args) * (1 + 1e-9))
        (r,) = verify.run_checks(["uniform-motion-triangle"]).results
        assert not r.passed and not r.max_deviation < r.tolerance
        assert r.tolerance == 1e-10 and r.max_deviation > 5e-10
