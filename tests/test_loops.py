"""Winding numbers by crossing count and loop phase reports."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from prepotential import (
    Charge,
    ChargeSystem,
    ChargeSystemError,
    FourVector,
    Path,
    PathThroughSingularAxisError,
    PrepotentialError,
    RestLine,
    SampledLine,
    UniformLine,
    ab_phase_report,
    ab_phase_reports,
    delta_S_along_path,
    four_velocity_from_3velocity,
    winding_number,
    zetas_of,
)
from prepotential import loops as loops_module
from prepotential import potential
from prepotential.errors import (
    ROW_FAILURES,
    NoRetardedIntersectionError,
    NotNullError,
    ObserverOnWorldLineError,
    SingularAxisError,
)
from prepotential.scenario import bundled_scenario_path, load_scenario
from prepotential.spacetime import retarded_null_vectors, retarded_rows


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
            loop = circle(radius, height, 120, turns, tuple(center))
            rep = ab_phase_report(c, loop)
            rounded = round(rep.delta_S.imag / (2 * math.pi))
            assert rounded == rep.winding == winding_number(loop, c)
            assert rep.residual < 1e-8
            agreements += 1
        assert agreements >= trials // 2


class TestTwoPathDifference:
    """The S-difference of two open paths that share their endpoints is
    the phase of the closed loop made of the first path and then the
    second reversed."""

    @staticmethod
    def two_paths(c, a, b):
        delta = delta_S_along_path(c, a) - delta_S_along_path(c, b)
        loop = Path(np.concatenate([a.points, b.points[-2:0:-1]]), closed=True)
        return delta, loop, ab_phase_report(c, loop)

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
        delta, _, rep = self.two_paths(c, a, b)
        assert rep.winding == 0
        assert abs(delta) < 1e-9
        assert abs(delta - rep.delta_S) < 1e-9

    def test_paths_on_opposite_sides_differ_by_full_branch(self):
        q = 1.0
        c = rest_charge(q)
        upper = self.semicircle(True)
        lower = self.semicircle(False)
        delta, _, rep = self.two_paths(c, upper, lower)
        assert rep.winding == -1
        assert abs(delta - (-2j * math.pi * q)) < 1e-8
        assert abs(delta - rep.delta_S) < 1e-9
        # and the difference equals the explicit closed-loop accumulation
        assert abs(delta - delta_S_along_path(c, circle())) < 1e-9

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
        delta, loop, rep = self.two_paths(c, a, b)
        assert rep.winding == winding_number(loop, c)
        assert abs(delta - rep.delta_S) < 1e-9
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


def resampled(points, k):
    """(N k, 4) points of a closed polyline with each edge cut into k."""
    return np.concatenate([p + np.outer(np.arange(k) / k, e - p)
                           for p, e in zip(points, np.roll(points, -1, axis=0))])


def hyperbolic_line(g, direction, offset):
    """Hyperbolic motion with proper acceleration g along a unit 3-vector,
    at rest at the event offset, tabulated at 25 knots from g tau = -3 to
    0.5 (speed 0.995 at the first knot)."""
    taus = np.linspace(-3.0, 0.5, 25) / g
    knots = np.asarray(offset) + np.column_stack(
        [np.sinh(g * taus) / g, np.outer((np.cosh(g * taus) - 1.0) / g, direction)])
    return SampledLine(tuple(taus), tuple(FourVector.from_array(k) for k in knots))


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
        q=st.floats(0.4, 2.0) | st.floats(-2.0, -0.4),
        event=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
        v=st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8), st.floats(-0.5, 0.5)),
        n=st.integers(3, 8),
        jitter=st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
        radii=st.lists(st.floats(0.2, 1.5), min_size=8, max_size=8),
        center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        height=st.floats(-1.0, 1.0),
        reverse=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    # a regular hexagon round a line whose u2 is subnormal: its coefficients
    # overflow the roots, which must then fall outside the edge
    @example(q=1.0, event=(0.0, 0.0, 0.0, 0.0), v=(0.5, 1.1125369292536007e-308, 0.0), n=6,
             jitter=[0.0] * 8, radii=[1.0] * 8, center=(0.0, 0.0), height=0.4, reverse=False)
    def test_coarse_polygon_winding_is_the_resampled_oracle(
        self, q, event, v, n, jitter, radii, center, height, reverse
    ):
        # a charge with a transverse velocity: its axis is not parallel to
        # the loop's plane normal, and a polygon's edges swing far
        assume(math.hypot(v[0], v[1]) > 0.05 and math.hypot(*v) < 0.9)
        charge = Charge(q, UniformLine(V(*event), four_velocity_from_3velocity(v)))
        theta = 2 * math.pi * (np.arange(n) + np.array(jitter[:n])) / n
        verts = np.array(center) + np.column_stack(
            [np.multiply(radii[:n], np.cos(theta)), np.multiply(radii[:n], np.sin(theta))])
        if reverse:
            verts = verts[::-1]
        coarse_loop, fine_loop = (
            Path(np.column_stack([np.zeros(len(w)), w, np.full(len(w), height)]), closed=True)
            for w in (verts, resampled(verts, 256)))
        try:
            coarse = delta_S_along_path(charge, coarse_loop)
            fine = delta_S_along_path(charge, fine_loop)
            oracle = winding_number(fine_loop, charge)
        except PrepotentialError:
            assume(False)
        assert abs(coarse - fine) < 1e-9
        rep = ab_phase_report(charge, coarse_loop)
        assert rep.windings == (oracle,)
        assert rep.status == "ok"

    @given(
        q=st.floats(0.4, 2.0) | st.floats(-2.0, -0.4),
        g=st.floats(0.3, 1.0),
        direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        n=st.integers(3, 8),
        jitter=st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
        radii=st.lists(st.floats(0.2, 2.0), min_size=8, max_size=8),
        center=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        height=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    # a square whose a2 zeros come from a segment other than the first
    @example(q=1.0, g=0.3125, direction=(0.796875, 0.890625, 0.0), offset=(0.875, 0.0, 0.5),
             n=4, jitter=[0.0] * 8, radii=[1.0] * 8, center=(0.0, 0.12890625), height=0.0)
    def test_coarse_polygon_round_a_sampled_line_is_the_resampled_oracle(
        self, q, g, direction, offset, n, jitter, radii, center, height
    ):
        # a tabulated hyperbolic line accelerating across the loop's plane:
        # a2 along an edge follows a different segment on each side of a
        # knot's light cone
        norm = math.hypot(*direction)
        assume(norm > 0.1)
        charge = Charge(q, hyperbolic_line(g, np.array(direction) / norm, (0.0, *offset)))
        theta = 2 * math.pi * (np.arange(n) + np.array(jitter[:n])) / n
        verts = np.array(center) + np.column_stack(
            [np.multiply(radii[:n], np.cos(theta)), np.multiply(radii[:n], np.sin(theta))])
        coarse_loop, fine_loop = (
            Path(np.column_stack([np.zeros(len(w)), w, np.full(len(w), height)]), closed=True)
            for w in (verts, resampled(verts, 256)))
        try:
            coarse = delta_S_along_path(charge, coarse_loop)
            fine = delta_S_along_path(charge, fine_loop)
            oracle = winding_number(fine_loop, charge)
        except PrepotentialError:
            assume(False)
        assert abs(coarse - fine) < 1e-9
        assert ab_phase_report(charge, coarse_loop).windings == (oracle,)

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


def ends_on_a2_zero_loop(event, v, taus, a1, a3, third):
    """A triangle round the uniform line through event with 3-velocity v,
    whose vertex k is the line's event at proper time taus[k] plus a
    retarded null vector a with spatial part (a1[k], 0, a3[k]) for the first
    two, so that a2 vanishes at both ends of the first edge, and third for
    the last. Returns the charge and the (3, 4) vertices."""
    u = four_velocity_from_3velocity(v).as_array()
    charge = Charge(1.0, UniformLine(V(*event), FourVector.from_array(u)))
    spatial = [(a1[0], 0.0, a3[0]), (a1[1], 0.0, a3[1]), third]
    return charge, np.array([np.array(event) + tau * u + np.array([math.hypot(*a), *a])
                             for tau, a in zip(taus, spatial)])


class TestEdgeSamples:
    """An edge is sampled where a2 of the retarded null vector vanishes on
    it, so that (a1, -a2) keeps to one half-plane between samples."""

    def test_aliasing_triangle_winds_once(self):
        # each edge's ends differ in phase by less than pi/2, but one edge
        # turns a whole turn more than its ends show
        charge = Charge(1.0, UniformLine(V(-0.5, -0.7, 0.4, -0.6),
                                         four_velocity_from_3velocity([-0.1, -0.8, 0.3])))
        loop = polygon([(0.3, 0.0), (-0.6, -1.4), (-1.3, 0.1)], height=-0.4)
        rep = ab_phase_report(charge, loop)
        assert rep.windings == (1,)
        assert abs(rep.delta_S - 2j * math.pi) < 1e-12
        assert winding_number(Path(resampled(loop.points, 256), closed=True), charge) == 1

    @given(
        event=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
        v=st.tuples(st.floats(-0.5, 0.5), st.floats(0.05, 0.5) | st.floats(-0.5, -0.05),
                    st.floats(-0.5, 0.5)),
        taus=st.tuples(*[st.floats(-2.0, 0.0)] * 3),
        a1=st.tuples(st.floats(0.2, 2.0), st.floats(-2.0, -0.2)),
        a3=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        third=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    # the roots of f at the two ends round to just outside the edge
    @example(event=(0.0, 0.0, 0.0, 0.0), v=(0.294921875, -0.25, 0.0), taus=(0.0, 0.0, 0.0),
             a1=(1.0, -1.0), a3=(0.0, 0.0), third=(1.0, 1.0, 0.0))
    def test_edge_with_ends_on_a2_zero(self, event, v, taus, a1, a3, third):
        # the first edge's principal phase is +-pi, its sign set by rounding.
        # The third vertex keeps 0.5 or more from the line: the oracle's
        # samples must resolve the turn of its edges as they pass the line
        assume(math.hypot(*third) >= 0.5)
        # a third vertex on another one is no triangle: the oracle's
        # resampling repeats samples. The vertices are compared, not the
        # draws: proper times a rounding apart (0 and -6.7e-215) give one
        charge, vertices = ends_on_a2_zero_loop(event, v, taus, a1, a3, third)
        assume(len(np.unique(vertices, axis=0)) == 3)
        loop = Path(vertices, closed=True)
        fine = Path(resampled(loop.points, 256), closed=True)
        try:
            rep = ab_phase_report(charge, loop)
            oracle = winding_number(fine, charge)
            delta = delta_S_along_path(charge, fine)
        except PrepotentialError:
            assume(False)
        assert rep.windings == (oracle,)
        assert abs(rep.delta_S - delta) < 1e-9

    @pytest.mark.parametrize("event, speed, height, verts, winding", [
        ((0.0, 0.3, -0.1, 0.5), 0.4, -0.2, [(1.0, 1.5), (-0.8, -1.4), (-0.3, 0.6)], 0),
        ((0.0, 0.0, 1.0, 0.3), -0.6, 0.9, [(-1.2, -1.6), (0.7, 1.3), (-1.5, 0.1)], -1),
    ])
    def test_double_root_when_u2_is_zero(self, event, speed, height, verts, winding):
        # u2 = 0: a2 = Q2 is affine along an edge, and f = -Q2^2 has a double
        # root whose discriminant rounds to either sign
        charge = Charge(1.0, UniformLine(V(*event), four_velocity_from_3velocity([speed, 0, 0])))
        loop = polygon(verts, height=height)
        rep = ab_phase_report(charge, loop)
        fine = Path(resampled(loop.points, 256), closed=True)
        assert rep.windings == (winding,) == (winding_number(fine, charge),)
        assert abs(rep.delta_S - 2j * math.pi * winding) < 1e-12

    def test_samples_on_a2_zero(self):
        # the bundled rest_charge circles have samples at x2 = 0
        scenario = load_scenario(str(bundled_scenario_path("rest_charge")))
        (charge,) = scenario.charges
        for loop, winding in zip(scenario.loops, (-1, 0, 2)):
            assert (loop.points[:, 2] == 0.0).any()
            rep = ab_phase_report(charge, loop)
            assert rep.windings == (winding,) == (winding_number(loop, charge),)
            assert abs(rep.delta_S - 2j * math.pi * winding) < 1e-12
        # squares with their corners on the axes turn pi/2 per edge
        for verts, winding in (([(1, 0), (0, 1), (-1, 0), (0, -1)], -1),
                               ([(1, 0), (0, -1), (-1, 0), (0, 1)], 1)):
            rep = ab_phase_report(rest_charge(), polygon(verts))
            assert rep.windings == (winding,)
            assert abs(rep.delta_S - 2j * math.pi * winding) < 1e-12

    @pytest.mark.parametrize("v_before, v_after, r, theta, ends, far", [
        ((0.47728106621906274, -0.4399587424376268, 0.4179061054689658),
         (-0.2204895510002891, -0.4221128989009667, 0.12464580721498264),
         0.09014246467456717, 2.1883275134003095, (0.8935542835580306, 0.8639515295695852),
         (-0.12079264859207808, 0.0052710782907881, 0.07349409274229775)),
        ((0.41970309057302435, -0.450013708959106, 0.2121358435380961),
         (0.17743482240670083, 0.12434281062330954, 0.1292384806808371),
         0.03506745879219059, -1.7559694081224602, (1.7904920908658801, 2.296453320852696),
         (-0.08430383606727802, -0.2690427469604676, -0.03446795948044265)),
    ], ids=["kink-a", "kink-b"])
    def test_root_at_a_knot(self, v_before, v_after, r, theta, ends, far):
        # the first edge crosses a2 = 0, at a1 < 0, where its retarded point
        # is the kink of a sampled line: that root lies at the end of one
        # segment and the start of the next, and rounding may put it just
        # outside both. Keeping neither read these triangles a turn off.
        u0, u1 = (four_velocity_from_3velocity(v).as_array() for v in (v_before, v_after))
        knots = (-5.0 * u0, np.zeros(4), 5.0 * u1)
        charge = Charge(1.0, SampledLine((-5.0, 0.0, 5.0),
                                         tuple(FourVector.from_array(k) for k in knots)))
        x = r * np.array([1.0, math.cos(theta), 0.0, math.sin(theta)])
        loop = Path(np.array([x - [0, 0, ends[0], 0], x + [0, 0, ends[1], 0], [x[0], *far]]),
                    closed=True)
        fine = Path(resampled(loop.points, 4096), closed=True)
        assert ab_phase_report(charge, loop).windings == (winding_number(fine, charge),) == (0,)

    @given(
        # u2 off 0: with u2 ~ 1e-9 a vertex at the line's x2 lies within
        # rounding of a2 = 0, and an event 1e8 away fixes the line only to
        # ~1e-8, so a root at that vertex may add a sample (not a turn)
        v=st.tuples(st.floats(-0.6, 0.6), st.floats(0.05, 0.6) | st.floats(-0.6, -0.05),
                    st.floats(-0.5, 0.5)),
        far=st.sampled_from([1e4, 1e6, 1e7, 1e8]),
        n=st.integers(3, 6),
        phase=st.floats(0.0, 2 * math.pi),
        radii=st.lists(st.floats(0.2, 1.0), min_size=6, max_size=6),
        height=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    # r^2 = s^2 - D.D cancelled at 1e8 from the first event: winding 0 and
    # 7 samples there, against -1 and 14 from the event at the loop's time
    @example(v=(0.5, -0.6, 0.3), far=1e8, n=3, phase=0.1, radii=[0.5] * 6, height=0.3)
    def test_windings_do_not_depend_on_the_event_that_names_the_line(
        self, v, far, n, phase, radii, height
    ):
        # one uniform line through the origin, named by its event at x0 = 0
        # and by its event at x0 = far, the time of a loop round it
        assume(math.hypot(v[0], v[1]) > 0.05 and math.hypot(*v) < 0.9)
        u = four_velocity_from_3velocity(v)
        present = far * np.array([1.0, *v])
        theta = phase + 2 * math.pi * np.arange(n) / n
        loop = Path(np.column_stack([
            np.full(n, far), present[1] + np.multiply(radii[:n], np.cos(theta)),
            present[2] + np.multiply(radii[:n], np.sin(theta)), np.full(n, present[3] + height),
        ]), closed=True)
        near, distant = (ab_phase_reports(Charge(1.0, UniformLine(V(*event), u)), [loop])[0]
                         for event in (present, np.zeros(4)))
        assert (distant.windings, distant.samples_used) == (near.windings, near.samples_used)

    @pytest.mark.parametrize("speed", [0.0, 0.6])
    def test_edge_in_a2_zero_through_the_axis(self, speed):
        # the first edge lies in x2 = 0, where a2 vanishes identically, and
        # meets the axis a third of the way along
        charge = axial_charge(1.0, (0.0, 0.0), speed)
        loop = polygon([(-1.0, 0.0), (2.0, 0.0), (0.5, -1.0)])
        with pytest.raises(PathThroughSingularAxisError):
            delta_S_along_path(charge, loop)
        reports = ab_phase_reports(charge, [loop, circle()])
        assert type(reports[0]) is PathThroughSingularAxisError
        assert reports[1].winding == -1


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
        # sample 3e-8 from it and gets the report it gets alone
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
        # an edge 1e-12 from charge 0's axis: it is sampled where a2
        # vanishes on it, and gets a report
        near_axis = Path(np.array([[0, -7, 1e-12, 0.4], [0, 13, 1e-12, 0.4], [0, 3, -4, 0.4]]),
                         closed=True)
        # a triangle at one time in charge 1's plane x3 = 0, its first vertex
        # 3e-8 beside the charge's present position (0.3 u1, 3) and the
        # other two beyond it, so that it encloses no charge's axis
        near_line = Path(np.array([near, near + [0, 1, 0.5, 0], near + [0, -0.5, 1, 0]]),
                         closed=True)
        loops = [good[0], on_axis, good[1], near_axis, near_line, good[2], mid_on_axis]
        reports = ab_phase_reports(system, loops)
        for got, loop in zip(reports, loops):
            assert_same_report(got, one_loop_report(system, loop), 1.0)
        # loop index -> (failing charge, cause)
        failing = {1: (0, PathThroughSingularAxisError), 6: (0, PathThroughSingularAxisError)}
        for j, rep in enumerate(reports):
            if j in failing:
                assert type(rep) is ChargeSystemError
                assert (rep.index, type(rep.__cause__)) == failing[j]
            else:
                assert rep.status == "ok"
        assert reports[4].windings == (0, 0, 0)
        assert abs(reports[4].delta_S) < 1e-14
        fine = Path(resampled(near_axis.points, 256), closed=True)
        assert reports[3].windings == tuple(winding_number(fine, c) for c in system) == (1, 0, 0)


def phase_reference(charge, loop):
    """q times the sum of np.log(ratio).imag over a closed loop's edges left
    when every edge whose zeta ratio swings pi/2 or more is halved, summed
    level after level and in row order within a level; zeta from zetas_of
    of each level's retarded null vectors."""
    def zetas(X):
        return zetas_of(retarded_null_vectors(charge.line, X)[1])

    e0, e1 = loop.points, np.roll(loop.points, -1, axis=0)
    z0, z1 = zetas(e0), zetas(e1)
    total = 0.0
    while True:
        turn = np.log(z1 / z0).imag
        coarse = np.abs(turn) >= math.pi / 2
        for t in turn[~coarse].tolist():
            total += t
        if not coarse.any():
            return charge.q * total
        e0, e1, z0, z1 = e0[coarse], e1[coarse], z0[coarse], z1[coarse]
        mid = 0.5 * (e0 + e1)
        zm = zetas(mid)
        e0, e1 = np.concatenate([e0, mid]), np.concatenate([mid, e1])
        z0, z1 = np.concatenate([z0, zm]), np.concatenate([zm, z1])


class TestPhaseOnlyAccumulation:
    """Only arg(zeta) is multiple-valued: a path accumulates the guarded
    edge phases, and ln|zeta| contributes its end value less its start
    value, nothing on a closed loop."""

    @given(
        charges=st.lists(_charge_specs, min_size=1, max_size=3),
        loop=_loop_specs,
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_loop_real_part_is_exactly_zero(self, charges, loop):
        system = ChargeSystem(tuple(_charge_of(*c) for c in charges))
        path = _loop_of(*loop)
        report = one_loop_report(system, path)
        assume(not isinstance(report, PrepotentialError))
        assert report.delta_S.real == 0.0 and math.copysign(1.0, report.delta_S.real) == 1.0
        q_max = max(abs(c.q) for c in system)
        for charge, w in zip(system, report.windings):
            delta = delta_S_along_path(charge, path)
            assert delta.real == 0.0 and math.copysign(1.0, delta.real) == 1.0
            bound = 8 * np.spacing(2 * math.pi * max(abs(w), 1) * q_max)
            assert abs(delta.imag - phase_reference(charge, path)) <= bound

    @pytest.mark.parametrize("q", [1.0, -0.7])
    @pytest.mark.parametrize("speed", [0.0, 0.6])
    def test_open_path_real_part_is_the_end_values(self, q, speed):
        # an arc from 0.4 to 2.5 off the axis, half way round it
        charge = axial_charge(q, (0.0, 0.0), speed)
        phi = np.linspace(0.0, 1.2 * math.pi, 90)
        r = np.linspace(0.4, 2.5, 90)
        path = Path(np.column_stack(
            [np.zeros(90), r * np.cos(phi), r * np.sin(phi), np.linspace(0.3, -0.8, 90)]))
        z_start, z_end = zetas_of(retarded_null_vectors(charge.line, path.points[[0, -1]])[1])
        want = q * math.log(abs(z_end / z_start))
        got = delta_S_along_path(charge, path).real
        assert abs(want) > 0.5
        assert abs(got - want) <= 4 * np.spacing(abs(want))
        # the sum of the samples' log-ratio moduli telescopes to the same
        z = zetas_of(retarded_null_vectors(charge.line, path.points)[1])
        assert abs(got - q * np.log(np.abs(z[1:] / z[:-1])).sum()) < 1e-13

    def test_one_stack_for_all_charges(self, monkeypatch):
        # one stack of the loops, and one pass over it for the whole system
        built, seen = [], []

        def stack_paths(paths):
            built.append(real_stack(paths))
            return built[-1]

        def delta_S_paths(charges, stack):
            seen.append((charges, stack))
            return real_delta(charges, stack)

        real_stack, real_delta = loops_module._stack_paths, loops_module._delta_S_paths
        monkeypatch.setattr(loops_module, "_stack_paths", stack_paths)
        monkeypatch.setattr(loops_module, "_delta_S_paths", delta_S_paths)
        system = ChargeSystem((
            rest_charge(1.0),
            Charge(-0.5, RestLine((2.0, 0.5, 0.0))),
            Charge(0.7, UniformLine(V(0, -2, -2, 0), four_velocity_from_3velocity([0.1, 0.2, 0.3]))),
        ))
        paths = [Path(circle_points(c, 1.0, t), closed=True)
                 for c, t in (((0.0, 0.0), 1), ((2.0, 0.0), -2), ((-1.5, -1.5), 1))]
        reports = ab_phase_reports(system, paths)
        assert all(rep.status == "ok" for rep in reports)
        assert len(built) == 1
        assert len(seen) == 1 and seen[0][0] is system and seen[0][1] is built[0]


def per_charge_delta_S_paths(charge, stack):
    """The loop pass of one charge, as it ran before the pass over the
    charge system: per path its delta_S and samples, and the error of each
    failed path (path index -> error). Kept as the reference of the system
    pass, on the package's retarded_rows, _zeta_quotients and _a2_roots of
    the charge's own segment table."""
    n = len(stack.sizes)
    P, owner, i0, i1 = stack.points, stack.owner, stack.edges, stack.ends
    errors = {}

    def path_zetas(X, owner):
        _, A, _, failure = retarded_rows(charge.line, X)
        num, den, _, on_axis = potential._zeta_quotients(A)
        failure = np.where(failure != 0, failure, on_axis)
        bad = np.flatnonzero(failure)
        paths, first = np.unique(owner[bad], return_index=True)
        for path, code in zip(paths.tolist(), failure[bad[first]].tolist()):
            cls, message = ROW_FAILURES[code]
            if cls is SingularAxisError:
                cls = PathThroughSingularAxisError
            errors.setdefault(path, cls(message))
        with np.errstate(invalid="ignore"):
            return num / den

    z = path_zetas(P, owner)
    with np.errstate(invalid="ignore"):
        phase = np.angle(z[i1] / z[i0])
    segments = charge.line.segments
    knots = len(segments[0])
    table = (segments, np.array([0]), np.array([knots - 1]))
    roots = potential._a2_roots(table, stack).reshape(2 * knots, len(i0))
    split = np.flatnonzero((roots < 1.0).any(axis=0) | (np.abs(phase) >= math.pi / 2))
    B = np.pad(np.sort(roots[:, split].T, axis=1), ((0, 0), (1, 1)), constant_values=(0, 1))
    T = np.concatenate([0.5 * (B[:, 1:] + B[:, :-1]), B[:, 1:-1]], axis=1)
    inner = T < 1.0
    e0, e1, row, t = i0[split], i1[split], np.nonzero(inner)[0], T[inner][:, None]
    Z = np.ones(T.shape, dtype=complex)
    Z[inner] = path_zetas((1.0 - t) * P[e0[row]] + t * P[e1[row]], owner[e0[row]])
    side = np.where(Z[:, :len(roots) + 1].imag < 0.0, -1.0, 1.0)
    h = np.stack([side[:, 0], side[np.arange(len(split)), (B < 1.0).sum(axis=1) - 1]])
    theta = np.angle(np.stack([z[e0], z[e1]]))
    theta = np.where(h * theta < -math.pi / 2, theta + 2.0 * math.pi * h, theta)
    cuts = ((side[:, :-1] - side[:, 1:]) * (Z[:, len(roots) + 1:].real < 0.0)).sum(axis=1)
    phase[split] = theta[1] - theta[0] + math.pi * cuts
    turned = np.bincount(owner[i0], phase, minlength=n)
    with np.errstate(invalid="ignore"):
        stretched = np.log(np.abs(z[stack.last] / z[stack.last - stack.sizes + 1]))
    delta = np.empty(n, dtype=complex)
    delta.real = charge.q * np.where(stack.closed, 0.0, stretched) + 0.0
    delta.imag = charge.q * turned + 0.0
    return delta, stack.sizes + np.bincount(owner[e0[row]], minlength=n), errors


def per_charge_pass(system, stack):
    """per_charge_delta_S_paths charge after charge, combined as the system
    pass returns them: each failed path keeps its lowest failing charge."""
    deltas = np.empty((len(system), len(stack.sizes)), dtype=complex)
    samples = np.zeros(len(stack.sizes), dtype=np.intp)
    errors = {}
    for k, charge in enumerate(system):
        deltas[k], used, failed = per_charge_delta_S_paths(charge, stack)
        samples += used
        for j, exc in failed.items():
            errors.setdefault(j, (k, exc))
    return deltas, samples, errors


def sampled_line(position, v, knots):
    """A sampled line at (0, position) at t = 0 with knots from t = -40 to
    10, its velocity v with its components rotated by one more place on
    each segment."""
    t = np.linspace(-40.0, 10.0, knots)
    vs = np.array([np.roll(v, k) for k in range(knots - 1)])
    x = np.concatenate([np.zeros((1, 3)), np.cumsum(np.diff(t)[:, None] * vs, axis=0)])
    j = int(np.searchsorted(t, 0.0, side="right")) - 1
    x += np.asarray(position) - (x[j] - t[j] * vs[j])
    events = np.column_stack([t, x])
    d = np.diff(events, axis=0)
    taus = np.concatenate([[0.0], np.cumsum(np.sqrt(d[:, 0] ** 2 - (d[:, 1:] ** 2).sum(axis=1)))])
    return SampledLine(tuple(taus), tuple(FourVector.from_array(e) for e in events))


_pass_charge_specs = st.tuples(
    st.sampled_from(["rest", "uniform", "sampled"]),
    st.floats(0.4, 2.0) | st.floats(-2.0, -0.4),
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    st.sampled_from([2, 3, 5, 9]),
)
_failing_loop_specs = st.tuples(
    st.sampled_from(["on-axis", "edge-on-axis", "on-line", "edge-on-axis+on-line", "early",
                     "late"]),
    st.integers(0, 2),
    st.floats(0.5, 2.0),
)


def _pass_charge_of(kind, q, pos, v, knots):
    if kind == "sampled":
        return Charge(q, sampled_line((pos[0], pos[1], 0.0), v, knots))
    return _charge_of(kind, q, pos, v)


def _failing_loop_of(system, kind, index, d):
    """A triangle that fails on charge index (mod the system's size): a
    vertex or an edge's midpoint on its singular axis, a vertex on its
    line, or both of the last two; or, on a sampled line, at x0 = -1000 or
    1000, outside its range."""
    if kind in ("early", "late"):
        x0 = -1000.0 if kind == "early" else 1000.0
        return Path(np.array([[x0, 1.0, 0.0, 0.4], [x0, -0.5, 0.8, 0.4], [x0, -0.5, -0.8, 0.4]]),
                    closed=True)
    _, E, _, _ = system.charges[index % len(system)].line.segments
    x = E[len(E) // 2] + (0.0 if kind == "on-line" else np.array([d, 0.0, 0.0, d]))
    if kind.startswith("edge-on-axis"):
        third = E[len(E) // 2] if kind.endswith("on-line") else x + [0, 0, -1, 0]
        return Path(np.array([x - [0, 1, 0, 0], x + [0, 1, 0, 0], third]), closed=True)
    return Path(np.array([x, x + [0, 0.7, 0.2, 0], x + [0, -0.3, 0.8, 0]]), closed=True)


def _error_keys(errors):
    return {j: (k, type(exc), str(exc)) for j, (k, exc) in errors.items()}


class TestSystemPass:
    """_delta_S_paths evaluates every charge of a system in one pass; it
    returns, bit for bit, what the one-charge passes of its charges give,
    failing loops included."""

    @given(
        charges=st.lists(_pass_charge_specs, min_size=1, max_size=3),
        loops=st.lists(_loop_specs | _failing_loop_specs, min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    # a rest and a 9-knot sampled line: 1 and 9 knots, so ragged roots
    @example(charges=[("rest", 1.0, (0.2, 0.1), (0.0, 0.0, 0.0), 2),
                      ("sampled", -0.7, (-0.4, 0.3), (0.3, -0.2, 0.1), 9),
                      ("uniform", 1.3, (0.5, -0.5), (-0.2, 0.1, 0.3), 2)],
             loops=[("circle", (0.0, 0.0), 1.5, 1, [1.0, 1.0, 1.0], 0.4),
                    ("on-axis", 1, 1.0), ("edge-on-axis", 0, 1.0), ("early", 0, 1.0),
                    ("polygon", (0.1, -0.2), 1.0, -2, [0.8, 1.2, 1.0, 0.9], 0.2)])
    def test_system_pass_is_the_per_charge_passes(self, charges, loops):
        system = ChargeSystem(tuple(_pass_charge_of(*c) for c in charges))
        paths = [_loop_of(*lp) if lp[0] in ("circle", "polygon") else _failing_loop_of(system, *lp)
                 for lp in loops]
        stack = potential._stack_paths(paths)
        deltas, samples, errors = potential._delta_S_paths(system, stack)
        want_deltas, want_samples, want_errors = per_charge_pass(system, stack)
        assert deltas.tobytes() == want_deltas.tobytes()
        assert samples.tolist() == want_samples.tolist()
        assert _error_keys(errors) == _error_keys(want_errors)

    def test_failing_loops_are_drawn(self):
        # the failing triangles fail as their names say, at a point or at an
        # edge sample, so the property above compares errors
        system = ChargeSystem((rest_charge(1.0), Charge(-0.5, sampled_line((1.0, 0.5, 0.0),
                                                                           (0.3, 0.0, 0.1), 5))))
        # a failing point comes before a failing edge sample of its charge
        causes = {"on-axis": PathThroughSingularAxisError,
                  "edge-on-axis": PathThroughSingularAxisError,
                  "on-line": ObserverOnWorldLineError,
                  "edge-on-axis+on-line": ObserverOnWorldLineError}
        for kind, cause in causes.items():
            for index in (0, 1):
                loop = _failing_loop_of(system, kind, index, 1.0)
                _, _, errors = potential._delta_S_paths(system, potential._stack_paths([loop]))
                assert (errors[0][0], type(errors[0][1])) == (index, cause)
        for kind in ("early", "late"):
            _, _, errors = potential._delta_S_paths(
                system, potential._stack_paths([_failing_loop_of(system, kind, 0, 1.0)]))
            assert (errors[0][0], type(errors[0][1])) == (1, NoRetardedIntersectionError)

    @pytest.mark.parametrize("stage", ["points", "samples"])
    def test_batch_error_names_its_charge(self, monkeypatch, stage):
        # charge 1 sits 50 away along x1, so only its retarded vectors have
        # a1 < -40; the quotients raise for the batch on its rows, at the
        # loops' points or at their edge samples only
        zeta_quotients = potential._zeta_quotients
        point_rows = 2 * 2 * 48  # two charges, two circles of 48 points

        def failing(A):
            if (stage == "points" or len(A) != point_rows) and (A[:, 1] < -40).any():
                raise NotNullError("vector is not null")
            return zeta_quotients(A)

        far = Charge(-0.5, RestLine((50.0, 0.0, 0.0)))
        system = ChargeSystem((rest_charge(1.0), far))
        paths = [Path(circle_points((0.0, 0.0), 1.0, 1, samples=48), closed=True),
                 Path(circle_points((0.5, 0.0), 2.0, -1, samples=48), closed=True)]
        monkeypatch.setattr(potential, "_zeta_quotients", failing)
        with pytest.raises(ChargeSystemError) as info:
            ab_phase_reports(system, paths)
        assert info.value.index == 1 and str(info.value) == "charge 1: vector is not null"
        assert type(info.value.__cause__) is NotNullError
        # a lone charge's error is its own
        with pytest.raises(NotNullError) as lone:
            ab_phase_reports(far, paths)
        assert str(lone.value) == "vector is not null"
        with pytest.raises(NotNullError):
            delta_S_along_path(far, paths[0])
