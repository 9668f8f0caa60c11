"""Winding numbers by crossing count and loop phase reports."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prepotential import (
    Charge,
    ChargeSystem,
    ChargeSystemError,
    FourVector,
    Path,
    PathThroughSingularAxisError,
    PrepotentialError,
    RefinementLimitExceededError,
    RestLine,
    SampledLine,
    UniformLine,
    ab_phase_report,
    ab_phase_reports,
    delta_S_along_path,
    four_velocity_from_3velocity,
    two_path_difference,
    winding_number,
)


def V(*c):
    return FourVector(*map(float, c))


def rest_charge(q=1.0):
    return Charge(q, RestLine((0.0, 0.0, 0.0)))


def circle(radius=1.0, height=0.4, samples=240, turns=1, center=(0.0, 0.0), time=0.0):
    sign = 1.0 if turns > 0 else -1.0
    total = samples * abs(turns)
    pts = tuple(
        V(time,
          center[0] + radius * math.cos(sign * 2 * math.pi * abs(turns) * k / total),
          center[1] + radius * math.sin(sign * 2 * math.pi * abs(turns) * k / total),
          height)
        for k in range(total)
    )
    return Path(pts, closed=True)


def polygon(vertices, height=0.4, time=0.0):
    return Path(tuple(V(time, u, v, height) for u, v in vertices), closed=True)


class TestWindingNumber:
    def test_ccw_circle_winds_minus_one(self):
        assert winding_number(circle(), rest_charge()) == -1

    def test_cw_circle_winds_plus_one(self):
        assert winding_number(circle(turns=-1), rest_charge()) == 1

    def test_double_turn(self):
        assert winding_number(circle(turns=2), rest_charge()) == -2

    def test_non_enclosing_loop(self):
        assert winding_number(circle(radius=0.7, center=(2.5, 0.0)), rest_charge()) == 0

    def test_figure_eight_cancels(self):
        # inner square ccw, outer square cw: encloses the axis once each way
        inner = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        outer = [(2, 2), (2, -2), (-2, -2), (-2, 2)]
        eight = polygon(inner + outer)
        assert winding_number(eight, rest_charge()) == 0

    def test_open_path_rejected(self):
        path = Path((V(0, 1, 0, 0), V(0, 2, 0, 0)))
        with pytest.raises(ValueError):
            winding_number(path, rest_charge())

    def test_sample_on_axis_rejected(self):
        loop = Path((V(0, 1, 0, 0.4), V(0, 0, 0, 0.4), V(0, 0, 1, 0.4)), closed=True)
        with pytest.raises(PathThroughSingularAxisError):
            winding_number(loop, rest_charge())


class TestPhaseReport:
    def test_unit_circle_report(self):
        rep = ab_phase_report(rest_charge(1.0), circle())
        assert rep.winding == -1
        assert abs(rep.delta_S - (-2j * math.pi)) < 1e-8
        assert rep.residual < 1e-8
        assert rep.status == "ok"
        assert rep.samples_used >= 240

    def test_winding_scales_with_charge(self):
        q = -1.7
        rep = ab_phase_report(rest_charge(q), circle(turns=2))
        assert rep.winding == -2
        assert abs(rep.delta_S - 2j * math.pi * q * (-2)) < 1e-8 * abs(q)

    def test_real_part_vanishes_on_closed_loops(self, rng):
        for _ in range(10):
            r = float(rng.uniform(0.5, 2.0))
            h = float(rng.uniform(0.1, 1.0))
            rep = ab_phase_report(rest_charge(), circle(radius=r, height=h))
            assert abs(rep.delta_S.real) < 1e-9

    def test_resampling_invariance(self):
        a = ab_phase_report(rest_charge(), circle(samples=240))
        b = ab_phase_report(rest_charge(), circle(samples=720))
        assert abs(a.delta_S - b.delta_S) < 1e-9

    def test_homotopy_invariance(self):
        c = rest_charge()
        base = ab_phase_report(c, circle()).delta_S
        for height in (0.2, 0.5, 1.0):
            # deformed ellipses and star-shaped polygons around the axis
            ell = Path(tuple(
                V(0.0, 1.6 * math.cos(p), 0.9 * math.sin(p), height)
                for p in np.linspace(0, 2 * math.pi, 181)[:-1]
            ), closed=True)
            star = Path(tuple(
                V(0.0,
                  (1.0 + 0.35 * math.cos(7 * p)) * math.cos(p),
                  (1.0 + 0.35 * math.cos(7 * p)) * math.sin(p),
                  height)
                for p in np.linspace(0, 2 * math.pi, 241)[:-1]
            ), closed=True)
            for loop in (ell, star):
                rep = ab_phase_report(c, loop)
                assert rep.winding == -1
                assert abs(rep.delta_S - base) < 1e-9

    def test_randomized_loops_match_crossing_oracle(self, rng):
        c = rest_charge(1.0)
        agreements = 0
        trials = 20
        for _ in range(trials):
            center = rng.uniform(-1.5, 1.5, size=2)
            radius = float(rng.uniform(0.4, 1.6))
            if abs(np.linalg.norm(center) - radius) < 0.15:
                continue  # keep the axis clearly inside or outside
            turns = int(rng.choice([-2, -1, 1, 2]))
            height = float(rng.uniform(0.2, 1.2))
            rep = ab_phase_report(c, circle(radius, height, 120, turns, tuple(center)))
            rounded = round(rep.delta_S.imag / (2 * math.pi))
            assert rounded == rep.winding
            assert rep.residual < 1e-8
            agreements += 1
        assert agreements >= trials // 2


class TestTwoPathDifference:
    def semicircle(self, upper: bool, samples=120, height=0.3):
        sign = 1.0 if upper else -1.0
        pts = tuple(
            V(0.0, math.cos(p), sign * math.sin(p), height)
            for p in np.linspace(0.0, math.pi, samples)
        )
        return Path(pts)

    def test_homotopic_paths_cancel(self):
        c = rest_charge()
        a = self.semicircle(True)
        # a deformed arc on the same side, sharing the endpoints
        b = Path((a.events[0],) + tuple(
            V(0.0, math.cos(p), math.sin(p) + 0.3 * math.sin(p), 0.3)
            for p in np.linspace(0.0, math.pi, 120)[1:-1]
        ) + (a.events[-1],))
        rep = two_path_difference(c, a, b)
        assert rep.winding == 0
        assert abs(rep.delta_S) < 1e-9

    def test_paths_on_opposite_sides_differ_by_full_branch(self):
        q = 1.0
        c = rest_charge(q)
        upper = self.semicircle(True)
        lower = self.semicircle(False)
        rep = two_path_difference(c, upper, lower)
        assert rep.winding == -1
        assert abs(rep.delta_S - (-2j * math.pi * q)) < 1e-8
        # and the difference equals the explicit closed-loop accumulation
        loop = circle()
        assert abs(rep.delta_S - delta_S_along_path(c, loop)) < 1e-9

    def test_mismatched_endpoints_rejected(self):
        c = rest_charge()
        a = self.semicircle(True)
        shifted = Path(tuple(
            V(0.0, 1.5 * math.cos(p), -math.sin(p), 0.3)
            for p in np.linspace(0.0, math.pi, 60)
        ))
        with pytest.raises(ValueError):
            two_path_difference(c, a, shifted)

    def test_closed_input_rejected(self):
        c = rest_charge()
        with pytest.raises(ValueError):
            two_path_difference(c, circle(), self.semicircle(True))

    @given(
        bulge=st.floats(-1.5, 1.5),
        samples=st.integers(3, 60),
        height=st.floats(0.1, 1.0),
        speed=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_paths_and_the_closed_loop(self, bulge, samples, height, speed):
        # the upper unit semicircle against an arc bulging to either side
        c = axial_charge(1.0, (0.0, 0.0), speed)
        p = np.linspace(0.0, math.pi, samples)
        arc = lambda b: Path(np.column_stack(
            [np.zeros(samples), np.cos(p), b * np.sin(p), np.full(samples, height)]))
        a, b = arc(1.0), arc(bulge)
        assume(abs(bulge) > 0.05 and bulge != 1.0)
        rep = two_path_difference(c, a, b)
        loop = Path(np.concatenate([a.points, b.points[-2:0:-1]]), closed=True)
        assert rep.winding == winding_number(loop, c)
        assert rep.delta_S == delta_S_along_path(c, a) - delta_S_along_path(c, b)
        assert rep.residual == abs(rep.delta_S - 2j * math.pi * rep.winding)


def axial_charge(q, position, speed):
    """A charge whose singular axis is the x3-parallel line through
    (position[0], position[1]): at rest, or moving along x3."""
    if speed == 0.0:
        return Charge(q, RestLine((position[0], position[1], 0.0)))
    u = four_velocity_from_3velocity([0.0, 0.0, speed])
    return Charge(q, UniformLine(V(0.0, position[0], position[1], 0.0), u))


def circle_points(center, radius, turns, samples=120, height=0.4):
    """(N, 4) points of a circle in the x1-x2 plane at time 0, starting at
    center + (radius, 0); negative turns run clockwise."""
    total = samples * abs(turns)
    phi = np.sign(turns) * 2 * math.pi * abs(turns) * np.arange(total) / total
    return np.column_stack([np.zeros(total), center[0] + radius * np.cos(phi),
                            center[1] + radius * np.sin(phi), np.full(total, height)])


def segment_distance(p, q, x):
    """Distance in the plane from x to the segment p-q."""
    d = q - p
    t = min(max(float((x - p) @ d / (d @ d)), 0.0), 1.0)
    return float(np.linalg.norm(p + t * d - x))


_radii = st.one_of(st.floats(0.3, 0.6), st.floats(0.9, 3.0))
_turns = st.sampled_from([-2, -1, 1, 2])
_speed = st.one_of(st.just(0.0), st.floats(-0.9, 0.9))


class TestLoopProperties:
    @given(r_a=_radii, r_b=_radii, turns_a=_turns, turns_b=_turns, speed=_speed)
    @settings(max_examples=60, deadline=None)
    def test_winding_additive_under_concatenation(self, r_a, r_b, turns_a, turns_b, speed):
        # two circles through the base point (1.5, 0), each 0.3 or more
        # from the axis; the concatenation runs one, then the other
        charge = axial_charge(1.0, (0.0, 0.0), speed)
        a = circle_points((1.5 - r_a, 0.0), r_a, turns_a)
        b = circle_points((1.5 - r_b, 0.0), r_b, turns_b)
        loops = [Path(p, closed=True) for p in (a, b, np.concatenate([a, b]))]
        w_a, w_b, w_ab = (winding_number(lp, charge) for lp in loops)
        assert w_ab == w_a + w_b
        d_a, d_b, d_ab = (delta_S_along_path(charge, lp) for lp in loops)
        assert abs(d_ab - (d_a + d_b)) < 1e-10
        assert abs(d_ab - 2j * math.pi * w_ab) < 1e-10

    @given(
        n=st.integers(4, 8),
        jitter=st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
        radii=st.lists(st.floats(0.5, 2.0), min_size=8, max_size=8),
        center=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        reverse=st.booleans(),
        k=st.integers(2, 6),
        speed=_speed,
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_S_independent_of_edge_subdivision(
        self, n, jitter, radii, center, reverse, k, speed
    ):
        theta = 2 * math.pi * (np.arange(n) + np.array(jitter[:n])) / n
        verts = np.array(center) + np.column_stack(
            [np.multiply(radii[:n], np.cos(theta)), np.multiply(radii[:n], np.sin(theta))])
        if reverse:
            verts = verts[::-1]
        ends = np.roll(verts, -1, axis=0)
        assume(min(segment_distance(p, q, np.zeros(2)) for p, q in zip(verts, ends)) > 0.05)
        fine = np.concatenate([p + np.outer(np.arange(k) / k, q - p)
                               for p, q in zip(verts, ends)])
        charge = axial_charge(1.3, (0.0, 0.0), speed)
        coarse_loop, fine_loop = (
            Path(np.column_stack([np.zeros(len(v)), v, np.full(len(v), 0.4)]), closed=True)
            for v in (verts, fine))
        coarse = delta_S_along_path(charge, coarse_loop)
        assert abs(delta_S_along_path(charge, fine_loop) - coarse) < 1e-10
        assert winding_number(coarse_loop, charge) == winding_number(fine_loop, charge)

    @given(
        charges=st.lists(
            st.tuples(st.floats(0.5, 2.0), st.sampled_from([1.0, -1.0]),
                      st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), _speed),
            min_size=1, max_size=3),
        radius=st.floats(0.5, 2.5),
        turns=_turns,
    )
    @settings(max_examples=60, deadline=None)
    def test_system_report_is_sum_of_one_charge_reports(self, charges, radius, turns):
        assume(all(abs(math.hypot(*pos) - radius) > 0.1 for _, _, pos, _ in charges))
        members = tuple(axial_charge(m * s, pos, v) for m, s, pos, v in charges)
        loop = Path(circle_points((0.0, 0.0), radius, turns), closed=True)
        system = ab_phase_report(ChargeSystem(members), loop)
        ones = [ab_phase_report(c, loop) for c in members]
        q_max = max(abs(c.q) for c in members)
        assert abs(system.delta_S - sum(r.delta_S for r in ones)) <= 1e-12 * q_max
        assert system.windings == tuple(r.winding for r in ones)
        assert system.samples_used == sum(r.samples_used for r in ones)
        assert system.tolerance == 1e-8 * q_max
        assert system.status == "ok"


class TestSystemReport:
    def test_opposite_charges_inside_cancel(self):
        system = ChargeSystem((axial_charge(1.0, (0.2, 0.1), 0.0),
                               axial_charge(-1.0, (-0.3, 0.0), 0.5)))
        rep = ab_phase_report(system, Path(circle_points((0.0, 0.0), 1.0, 1), closed=True))
        assert rep.windings == (-1, -1)
        assert abs(rep.delta_S) < 1e-8
        assert rep.residual < rep.tolerance
        with pytest.raises(ValueError):
            rep.winding

    def test_failure_names_the_charge(self):
        # the loop's first point lies on the second charge's axis
        system = ChargeSystem((rest_charge(), axial_charge(2.0, (1.0, 0.0), 0.0)))
        loop = Path(circle_points((0.0, 0.0), 1.0, 1), closed=True)
        with pytest.raises(ChargeSystemError) as info:
            ab_phase_report(system, loop)
        assert info.value.index == 1
        assert isinstance(info.value.__cause__, PathThroughSingularAxisError)

    def test_path_from_array_matches_path_from_events(self):
        pts = circle_points((0.3, -0.2), 1.1, 2, samples=40)
        from_array = Path(pts, closed=True)
        from_events = Path(tuple(FourVector.from_array(p) for p in pts), closed=True)
        assert np.array_equal(from_array.points, from_events.points)
        assert from_array.events == from_events.events
        a, b = ab_phase_report(rest_charge(), from_array), ab_phase_report(rest_charge(), from_events)
        assert (a.delta_S, a.windings, a.samples_used) == (b.delta_S, b.windings, b.samples_used)


def bent_line(position, v_early, v_mid, v_late):
    """A sampled line through (0, position) at t = 0, moving with v_early
    until t = -10, with v_mid until t = -5 and with v_late after: its
    velocity jumps at those two knots. Knots run from t = -40 to 10."""
    x = np.array([0.0, *position])
    late, mid, early = (np.array([1.0, *v]) for v in (v_late, v_mid, v_early))
    knots = [x - 5.0 * late - 5.0 * mid - 30.0 * early, x - 5.0 * late - 5.0 * mid,
             x - 5.0 * late, x, x + 10.0 * late]
    taus = np.cumsum([0.0] + [math.sqrt(d[0] ** 2 - d[1:] @ d[1:])
                              for d in np.diff(knots, axis=0)])
    return SampledLine(tuple(taus), tuple(FourVector.from_array(k) for k in knots))


def one_loop_report(charges, loop):
    """ab_phase_report of one loop, or the error it raises."""
    try:
        return ab_phase_report(charges, loop)
    except PrepotentialError as exc:
        return exc


def assert_same_report(got, want, q_max):
    if isinstance(want, PrepotentialError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.windings == want.windings
    assert got.samples_used == want.samples_used
    assert got.tolerance == want.tolerance
    assert abs(got.delta_S - want.delta_S) <= 1e-12 * q_max


_charge_specs = st.tuples(
    st.sampled_from(["rest", "uniform", "sampled"]),
    st.floats(0.4, 2.0) | st.floats(-2.0, -0.4),
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
)
_loop_specs = st.tuples(
    st.sampled_from(["circle", "polygon"]),
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    st.floats(0.3, 2.5),
    _turns,
    st.lists(st.floats(0.5, 1.5), min_size=3, max_size=6),
    st.floats(0.0, 1.0),
)


def _charge_of(kind, q, pos, v):
    if kind == "rest":
        return Charge(q, RestLine((pos[0], pos[1], 0.0)))
    if kind == "uniform":
        return Charge(q, UniformLine(V(0.0, pos[0], pos[1], 0.0),
                                     four_velocity_from_3velocity(v)))
    return Charge(q, bent_line((pos[0], pos[1], 0.0), v, (v[1], v[2], v[0]), (0.0, 0.0, 0.0)))


def _loop_of(kind, center, radius, turns, radii, height):
    if kind == "circle":
        return Path(circle_points(center, radius, turns, samples=48, height=height), closed=True)
    theta = 2 * math.pi * np.arange(len(radii)) / len(radii) * np.sign(turns)
    verts = np.array(center) + radius * np.column_stack(
        [np.multiply(radii, np.cos(theta)), np.multiply(radii, np.sin(theta))])
    return Path(np.column_stack([np.zeros(len(verts)), verts, np.full(len(verts), height)]),
                closed=True)


class TestBatchedReports:
    """ab_phase_reports evaluates all loops in one batch per charge; each
    loop's report is the one it gets alone."""

    @given(
        charges=st.lists(_charge_specs, min_size=1, max_size=3),
        loops=st.lists(_loop_specs, min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_report_is_one_loop_report(self, charges, loops):
        system = ChargeSystem(tuple(_charge_of(*c) for c in charges))
        paths = [_loop_of(*lp) for lp in loops]
        q_max = max(abs(c.q) for c in system)
        for got, loop in zip(ab_phase_reports(system, paths), paths):
            assert_same_report(got, one_loop_report(system, loop), q_max)
        one = system.charges[0]
        for got, loop in zip(ab_phase_reports(one, paths), paths):
            assert_same_report(got, one_loop_report(one, loop), abs(one.q))

    def test_failing_loops_fail_alone(self):
        # charge 1 is sampled and moves at v = 0.5; the fifth loop has a
        # sample 3e-8 from it, where a keeps too few digits for the
        # solver's null check
        u = four_velocity_from_3velocity([0.5, 0.0, 0.0]).as_array()
        taus = np.arange(-40.0, 11.0, 2.0)
        line = SampledLine(tuple(taus), tuple(
            FourVector.from_array(t * u + np.array([0.0, 0.0, 3.0, 0.0])) for t in taus))
        system = ChargeSystem((
            rest_charge(1.0),
            Charge(-0.5, line),
            Charge(0.7, UniformLine(V(0, -2, -2, 0), four_velocity_from_3velocity([0.1, 0.2, 0.3]))),
        ))
        near = 0.3 * u + np.array([0.0, 0.0, 3.0 + 3e-8, 0.0])
        good = [Path(circle_points(c, r, 1), closed=True)
                for c, r in (((0.0, 0.0), 1.0), ((0.3, 3.0), 1.0), ((-2.0, -2.0), 0.5))]
        # a sample on charge 0's axis, and one near charge 1's line
        on_axis = Path(np.array([[0, 1, 0, 0.5], [0, 0, 0, 0.5], near, [0, 0, 1, 0.5]]),
                       closed=True)
        # the first edge's midpoint is on charge 0's axis
        mid_on_axis = Path(np.array([[0, -1, 0, 0.4], [0, 1, 0, 0.4], [0, 0, -1, 0.4]],
                                    dtype=float), closed=True)
        # an edge 1e-12 from charge 0's axis: still coarse after 40 halvings
        too_deep = Path(np.array([[0, -7, 1e-12, 0.4], [0, 13, 1e-12, 0.4], [0, 3, -4, 0.4]]),
                        closed=True)
        not_null = Path(np.array([near, near + [0, 1, 0.5, 0], near + [0, -0.5, 1, 0]]),
                        closed=True)
        loops = [good[0], on_axis, good[1], too_deep, not_null, good[2], mid_on_axis]
        reports = ab_phase_reports(system, loops)
        for got, loop in zip(reports, loops):
            assert_same_report(got, one_loop_report(system, loop), 1.0)
        # loop index -> (failing charge, cause)
        failing = {1: (0, PathThroughSingularAxisError), 3: (0, RefinementLimitExceededError),
                   4: (1, PrepotentialError), 6: (0, PathThroughSingularAxisError)}
        for j, rep in enumerate(reports):
            if j in failing:
                assert type(rep) is ChargeSystemError
                assert (rep.index, type(rep.__cause__)) == failing[j]
            else:
                assert rep.status == "ok"
        assert str(reports[4]) == "charge 1: retarded solver produced an invalid null vector"
